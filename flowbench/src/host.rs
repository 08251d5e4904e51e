//! Host facts and drift: what a reader needs to judge whether two runs of
//! the benchmark are comparable.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Drift of the spin loop above which a run is flagged as measured on a
/// host whose speed changed under it.
pub const DRIFT_FLAG_PCT: f64 = 5.0;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The word-kernel path the library selects on this host.
pub fn simd_path() -> &'static str {
    if !als_sim::kernel::simd_enabled() {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "chunked+avx2";
    }
    "chunked"
}

/// The build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Removes every `ALS_*` variable from the environment, so thread count,
/// scheduler, kernel path and test hooks are set by the workload alone.
/// Returns the names removed. Call before any other thread starts.
pub fn clear_als_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ALS_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Best of five timings of a fixed integer loop (about 30 ms each): a
/// probe of the host's current speed that involves no memory traffic.
pub fn spin() -> Duration {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..black_box(30_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t0.elapsed()
        })
        .min()
        .unwrap_or_default()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
