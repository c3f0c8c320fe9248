//! Per-layer probes of the traced run.
//!
//! Each probe times calls into one layer's public functions with the
//! benchmark's own clock, on the thread-pool layout the servers resolve:
//! the image server's shared intra-batch pool for the RNet20 passes and
//! kernels, and the ambient (global) pool the decode scheduler runs on
//! for the TinyLm steps. Engine phase times come from the program's own
//! phase spans, read through `flexiq_telemetry`.

use std::sync::Arc;
use std::time::Instant;

use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::FlexiRuntime;
use flexiq_nn::kv::{KvLayerCache, KvSpec};
use flexiq_parallel::{PoolConfig, ThreadPool};
use flexiq_serve::ServeConfig;
use flexiq_telemetry as tel;
use flexiq_tensor::im2col::Conv2dGeometry;
use flexiq_tensor::{gemm, im2col, Tensor};

use crate::report::{Values, LEVELS};
use crate::stats::median;

/// Engine phases reported per N=16 pass.
const PHASES: [&str; 5] = ["act_quant", "bit_lower", "im2col", "band_gemm", "requant"];

/// The runtime levels in [`LEVELS`] order: int8 first, then the schedule.
pub fn runtime_levels(rt: &FlexiRuntime) -> [usize; 5] {
    let ratios = &rt.schedule().ratios;
    assert_eq!(
        ratios,
        &[0.25, 0.5, 0.75, 1.0],
        "the benchmark names levels after the paper's ratios"
    );
    [LEVEL_INT8, 0, 1, 2, 3]
}

/// Index of a runtime level in [`LEVELS`].
pub fn level_slot(level: usize) -> usize {
    if level == LEVEL_INT8 {
        0
    } else {
        level + 1
    }
}

/// The shared intra-batch pool a default image server builds.
pub fn serve_pool(cfg: &ServeConfig) -> Arc<ThreadPool> {
    ThreadPool::with_config(
        cfg.resolved_pool_threads(),
        PoolConfig {
            pin: cfg.resolved_pin(),
            on_thread_start: Some(Arc::new(|_| flexiq_tensor::scratch::warm_defaults())),
        },
    )
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times).expect("at least one repetition")
}

/// Global counters over a window of serving traffic.
pub struct Window(tel::CountersSnapshot);

impl Window {
    pub fn start() -> Window {
        Window(tel::counters())
    }

    /// Counter deltas since [`Window::start`].
    pub fn delta(&self) -> tel::CountersSnapshot {
        let (a, b) = (self.0, tel::counters());
        tel::CountersSnapshot {
            gemm_calls: b.gemm_calls - a.gemm_calls,
            gemm_madds: b.gemm_madds - a.gemm_madds,
            pool_tasks: b.pool_tasks - a.pool_tasks,
            pool_busy_ns: b.pool_busy_ns - a.pool_busy_ns,
            pool_idle_ns: b.pool_idle_ns - a.pool_idle_ns,
            pack_cache_hits: b.pack_cache_hits - a.pack_cache_hits,
            pack_cache_misses: b.pack_cache_misses - a.pack_cache_misses,
            decode_steps: b.decode_steps - a.decode_steps,
            decode_tokens: b.decode_tokens - a.decode_tokens,
            ..Default::default()
        }
    }

    /// Per-request kernel, pool and cache metrics over `requests`
    /// answered requests.
    pub fn record(d: &tel::CountersSnapshot, requests: usize, v: &mut Values) {
        let per_req = |x: u64| x as f64 / requests.max(1) as f64;
        let share = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        v.set("tensor.madds_per_req", per_req(d.gemm_madds));
        v.set("tensor.gemm_calls_per_req", per_req(d.gemm_calls));
        v.set("parallel.tasks_per_req", per_req(d.pool_tasks));
        v.set("parallel.busy_frac", share(d.pool_busy_ns, d.pool_idle_ns));
        v.set(
            "nn.pack_cache_hit_ratio",
            share(d.pack_cache_hits, d.pack_cache_misses),
        );
    }
}

/// Set-up probes: pipeline preparation (median over the run's set-ups),
/// an eager cache prewarm, and the prepacked-weight cache's size.
pub fn setup_probes(rt: &FlexiRuntime, prepare_s: &[f64], v: &mut Values) {
    v.set("core.prepare_s", median(prepare_s).expect("set-ups ran"));
    let prewarm_ms = time_ms(3, || {
        rt.invalidate_pack_cache();
        rt.prewarm_levels().expect("prewarm");
    });
    v.set("core.prewarm_s", prewarm_ms / 1e3);
    v.set(
        "core.pack_cache_mb",
        rt.pack_cache().resident_bytes() as f64 / (1 << 20) as f64,
    );
}

/// RNet20 probes on `pool`: the level curve, engine phases at int8 and
/// q50, tracing overhead, and the conv kernels at the served shape.
pub fn image_probes(rt: &FlexiRuntime, images: &[Tensor], pool: &Arc<ThreadPool>, v: &mut Values) {
    let levels = runtime_levels(rt);
    let one = &images[..1];
    let batch = &images[..16];
    flexiq_parallel::with_pool(pool, || {
        let pass = |xs: &[Tensor]| {
            std::hint::black_box(rt.infer_batch(xs).expect("probe pass"));
        };
        for (name, &level) in LEVELS.iter().zip(&levels) {
            rt.set_level(level).expect("level");
            pass(batch);
            let n1 = time_ms(40, || pass(one));
            let n16 = time_ms(9, || pass(batch));
            v.set(&format!("core.pass_ms.{name}.n1"), n1);
            v.set(&format!("core.pass_ms.{name}.n16"), n16);
        }

        for (name, level) in [("q50", levels[2]), ("int8", levels[0])] {
            rt.set_level(level).expect("level");
            const PASSES: usize = 5;
            tel::reset();
            tel::set_enabled(true);
            for _ in 0..PASSES {
                pass(batch);
            }
            tel::set_enabled(false);
            let spans = tel::drain();
            let agg = tel::top_spans(&spans, tel::Cat::Phase, usize::MAX);
            for phase in PHASES {
                let ns = agg
                    .iter()
                    .find(|a| a.name == phase)
                    .map_or(0, |a| a.total_ns);
                let ms = ns as f64 / 1e6 / PASSES as f64;
                v.set(&format!("nn.phase_ms.{name}.{phase}"), ms);
            }
        }

        // Tracing overhead: interleaved untraced / traced N=16 int8 passes.
        rt.set_level(LEVEL_INT8).expect("level");
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            off.push(time_ms(1, || pass(batch)));
            tel::reset();
            tel::set_enabled(true);
            on.push(time_ms(1, || pass(batch)));
            tel::set_enabled(false);
        }
        tel::reset();
        let ratio = median(&on).expect("reps") / median(&off).expect("reps");
        v.set("telemetry.overhead_pct", (ratio - 1.0) * 100.0);

        conv_kernels(v);
    });
}

/// The first RNet20 (eval) stage's 3×3 conv at N=16, as the int8 engine
/// runs it: im2col of the stacked batch, then one band GEMM per
/// feature group (4 channels × 9 taps).
fn conv_kernels(v: &mut Values) {
    const NB: usize = 16;
    const GROUP_K: usize = 4 * 9;
    let g = Conv2dGeometry {
        c_in: 16,
        h: 16,
        w: 16,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let (m, k, cols) = (16, g.rows(), g.cols());
    let sample = g.c_in * g.h * g.w;
    let input: Vec<i8> = (0..NB * sample).map(|i| (i * 37 % 255) as i8).collect();
    let weights: Vec<i8> = (0..m * k).map(|i| (i * 53 % 255) as i8).collect();
    let mut lowered = vec![0i8; k * NB * cols];
    let ms = time_ms(30, || {
        im2col::im2col_i8_batch_fill(&input, NB, sample, &g, &mut lowered);
        std::hint::black_box(&lowered);
    });
    v.set("tensor.im2col_gbs", lowered.len() as f64 / (ms / 1e3) / 1e9);
    let mut acc = vec![0i32; m * NB * cols];
    let ms = time_ms(30, || {
        for k0 in (0..k).step_by(GROUP_K) {
            gemm::gemm_i8_band_colbatch(
                NB,
                m,
                cols,
                k,
                k0,
                k0 + GROUP_K,
                &weights,
                &lowered,
                &mut acc,
            );
        }
        std::hint::black_box(&acc);
    });
    let ops = 2.0 * (m * NB * cols * k) as f64;
    v.set("tensor.gemm_gops.conv_i8", ops / (ms / 1e3) / 1e9);
}

/// TinyLm probes on the ambient pool: prefill, decode steps at fused
/// widths 1 and 8, the KV cache, and a decode linear's prepacked band
/// GEMMs.
pub fn decode_probes(rt: &FlexiRuntime, prompt: &Tensor, v: &mut Values) {
    v.set(
        "core.prefill_ms",
        time_ms(50, || {
            std::hint::black_box(rt.decode_start(prompt).expect("prefill"));
        }),
    );
    let fresh = || rt.decode_start(prompt).expect("prefill").0;
    let mut steps = Vec::new();
    for _ in 0..10 {
        let mut s = fresh();
        while s.pos() < s.context() {
            let t = Instant::now();
            std::hint::black_box(rt.decode_step(&mut s, 1.0).expect("step"));
            steps.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    v.set("core.decode_step_ms.n1", median(&steps).expect("steps"));
    steps.clear();
    let mut last = None;
    for _ in 0..10 {
        let mut sessions: Vec<_> = (0..8).map(|_| fresh()).collect();
        while sessions[0].pos() < sessions[0].context() {
            let mut refs: Vec<_> = sessions.iter_mut().collect();
            let t = Instant::now();
            std::hint::black_box(rt.decode_step_batch(&mut refs, &[1.0; 8]).expect("step"));
            steps.push(t.elapsed().as_secs_f64() * 1e3);
        }
        last = sessions.pop();
    }
    let full = last.expect("eight sessions stepped to the context");
    v.set("core.decode_step_ms.n8", median(&steps).expect("steps"));
    v.set(
        "nn.kv.bytes_per_token",
        full.kv_bytes() as f64 / full.pos() as f64,
    );

    kv_cache(v);
    decode_linear(v);
}

/// One TinyLm (eval) attention layer's cache: width 32, 4 heads, the
/// served mixed spec, filled to the 16-token context.
fn kv_cache(v: &mut Values) {
    const C: usize = 32;
    const T: usize = 16;
    let row = |t: usize, salt: usize| -> Vec<f32> {
        (0..C)
            .map(|i| (((t * 31 + i * 7 + salt) % 23) as f32 - 11.0) / 7.0)
            .collect()
    };
    let rows: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> =
        (0..T).map(|t| (row(t, 1), row(t, 2), row(t, 3))).collect();
    let (mut append, mut attend) = (Vec::new(), Vec::new());
    let mut out = vec![0.0f32; C];
    for _ in 0..200 {
        let mut cache = KvLayerCache::new(C, 4, KvSpec::mixed(2, 0.5), T).expect("kv cache");
        for (k, val, q) in &rows {
            let t = Instant::now();
            cache.append(k, val).expect("append");
            append.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            cache.attend(q, &mut out).expect("attend");
            attend.push(t.elapsed().as_secs_f64() * 1e6);
        }
        std::hint::black_box(&out);
    }
    v.set("nn.kv.append_us", median(&append).expect("reps"));
    v.set("nn.kv.attend_us", median(&attend).expect("reps"));
}

/// TinyLm's MLP up-projection (32 → 64) at fused width 8, one prepacked
/// band GEMM per 4-channel feature group, as the int8 engine runs it.
fn decode_linear(v: &mut Values) {
    const M: usize = 8;
    const N: usize = 64;
    const K: usize = 32;
    const GROUP: usize = 4;
    let a: Vec<i8> = (0..M * K).map(|i| (i * 29 % 255) as i8).collect();
    let w: Vec<i8> = (0..N * K).map(|i| (i * 41 % 255) as i8).collect();
    let panels: Vec<_> = (0..K)
        .step_by(GROUP)
        .map(|k0| (k0, gemm::prepack_i8_wt_band(N, K, k0, k0 + GROUP, &w)))
        .collect();
    let mut c = vec![0i32; M * N];
    const CALLS: usize = 200;
    let ms = time_ms(30, || {
        for _ in 0..CALLS {
            for (k0, p) in &panels {
                gemm::gemm_i8_band_wt_prepacked(M, N, K, *k0, k0 + GROUP, &a, &w, p, &mut c);
            }
        }
        std::hint::black_box(&c);
    });
    let ops = 2.0 * (M * N * K * CALLS) as f64;
    v.set("tensor.gemm_gops.decode_i8", ops / (ms / 1e3) / 1e9);
}
