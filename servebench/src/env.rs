//! The environment guard, the machine stamp and peak memory.

use flexiq_serve::ServeConfig;

/// Environment switches that make the process measure a different
/// program: fault injection, forced scalar kernels, per-call packing.
const ALWAYS_REFUSED: [&str; 3] = ["FLEXIQ_FAULT", "FLEXIQ_NO_SIMD", "FLEXIQ_NO_PREPACK"];

/// Refuses to measure under a switch that changes the program. Global
/// telemetry is refused on the untraced run only, whose end-to-end
/// numbers are measured with tracing off.
pub fn guard(traced: bool) -> Result<(), String> {
    let set = |name: &str| std::env::var_os(name).is_some_and(|v| !v.is_empty());
    for name in ALWAYS_REFUSED {
        if set(name) {
            return Err(format!(
                "{name} is set; unset it to measure the shipped program"
            ));
        }
    }
    if !traced && set("FLEXIQ_TELEMETRY") {
        return Err("FLEXIQ_TELEMETRY is set; the untraced run measures with tracing off".into());
    }
    if flexiq_serve::fault::armed() {
        return Err("fault injection is armed".into());
    }
    Ok(())
}

/// One line describing the machine and the resolved serving layout.
pub fn stamp(cfg: &ServeConfig) -> String {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".into());
    format!(
        "env cores={} isa={} workers={} pool_threads={} pin={} decode_pool_threads={} \
         FLEXIQ_THREADS={} FLEXIQ_PIN={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        flexiq_tensor::simd::active().name(),
        cfg.workers,
        cfg.resolved_pool_threads(),
        cfg.resolved_pin(),
        flexiq_parallel::global().threads(),
        var("FLEXIQ_THREADS"),
        var("FLEXIQ_PIN"),
    )
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux/x86-64 and aarch64: two `timeval`s (four
    // 64-bit words) followed by fourteen `long`s, `ru_maxrss` first.
    let mut usage = [0i64; 18];
    // SAFETY: `getrusage(RUSAGE_SELF = 0, *mut rusage)` writes exactly
    // one `struct rusage` (144 bytes on these targets), which `usage`
    // provides; the call has no other side effects.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    // ru_maxrss is reported in KiB.
    usage[4] as f64 / 1024.0
}

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}
