//! The machine a run measured: CPU feature fingerprint, memory high-water
//! mark, and an in-process STREAM triad as the bandwidth reference.

use crate::report::Report;
use std::time::Instant;

/// Last-level cache size in bytes, from sysfs (the highest cache level of
/// CPU 0). `None` when sysfs does not describe the caches.
pub fn llc_bytes() -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(level) = std::fs::read_to_string(format!("{base}/level")) else { continue };
        let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else { continue };
        let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), parse_size(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// The process high-water resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(target_arch = "x86_64")]
fn cpu_features() -> [(&'static str, bool); 3] {
    [
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("f16c", std::arch::is_x86_feature_detected!("f16c")),
        ("avx512fp16", std::arch::is_x86_feature_detected!("avx512fp16")),
    ]
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_features() -> [(&'static str, bool); 3] {
    [("avx512f", false), ("f16c", false), ("avx512fp16", false)]
}

/// Print the host fingerprint. Wall-clock numbers are comparable only
/// between runs whose fingerprint line is identical.
pub fn print_fingerprint(rep: &Report, workers: &str) {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let llc = llc_bytes().unwrap_or(0);
    // The build targets the host CPU (`-C target-cpu=native` in the
    // repository's cargo config) exactly when the compile-time feature
    // set includes what the running CPU offers.
    let native = cfg!(target_feature = "avx512f")
        == cpu_features().iter().any(|&(n, on)| n == "avx512f" && on);
    let feats: Vec<String> =
        cpu_features().iter().map(|(n, on)| format!("{n}={}", u8::from(*on))).collect();
    let text = format!(
        "{} parallelism={parallelism} llc_bytes={llc} build_avx512f={} native_build={}",
        feats.join(" "),
        u8::from(cfg!(target_feature = "avx512f")),
        u8::from(native),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    rep.line(format!("host: {text} fingerprint={h:016x}"));
    rep.line(format!("workers: {workers} (QDD_WORKERS unset: the counts are the benchmark's own)"));
}

/// STREAM triad `a = b + s c` over arrays of at least four times the LLC
/// each, best of several passes, at `threads` threads. Bytes counted as
/// STREAM does: three arrays of 8-byte words per pass.
fn triad_gbps(a: &mut [f64], b: &[f64], c: &[f64], threads: usize, passes: usize) -> f64 {
    let n = a.len();
    let chunk = n.div_ceil(threads);
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let s = 3.0 + pass as f64 * 1e-3;
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                scope.spawn(move || {
                    for i in 0..a.len() {
                        a[i] = b[i] + s * c[i];
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(&a[n / 2]);
    3.0 * 8.0 * n as f64 / best / 1e9
}

/// Measure the triad at 1 and 2 threads; prints both and returns the
/// 2-thread rate (the host's bandwidth roofline for a 2-thread solve).
pub fn triad_reference(rep: &Report) -> f64 {
    let llc = llc_bytes().unwrap_or(32 << 20);
    let n = 4 * llc / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let one = triad_gbps(&mut a, &b, &c, 1, 4);
    let two = triad_gbps(&mut a, &b, &c, 2, 4);
    rep.line(format!(
        "triad: 3 arrays x {:.1} MB (4 x LLC of {:.1} MB), best of 4 passes: 1 thread {one:.2} GB/s, 2 threads {two:.2} GB/s",
        n as f64 * 8.0 / 1e6,
        llc as f64 / 1e6
    ));
    two
}
