//! The RNet20 (eval scale) workloads behind `Server`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use flexiq_core::pipeline::{prepare, FlexiQConfig};
use flexiq_core::runtime::LEVEL_INT8;
use flexiq_core::selection::Strategy;
use flexiq_core::FlexiRuntime;
use flexiq_nn::data::{gen_image_inputs, teacher_dataset};
use flexiq_nn::graph::Graph;
use flexiq_nn::qexec::{ExecMode, QuantExecOptions};
use flexiq_nn::zoo::{ModelId, Scale};
use flexiq_serve::{InferResponse, ServeConfig, Server, Ticket};
use flexiq_tensor::Tensor;

use crate::layers::{self, level_slot, Window};
use crate::report::{p99_note, Outcome, Values, LEVELS};
use crate::stats::{self, checked_percentile, latency_from_due, ms, segment_percentile};
use crate::traffic::{self, ImageControl, ImageSpec, Record};
use crate::{error_shares, Args};

/// Calibration inputs are part of the model, not of the traffic: fixed.
const CALIB_SEED: u64 = 0xCA11B;
const CALIB_SAMPLES: usize = 8;
/// Seed of the fixed evaluation pool the requests draw images from.
pub const POOL_SEED: u64 = 0x1A6E5;

/// Builds and prepares RNet20 on the integer engine; returns the f32
/// graph (the teacher), the runtime and the `prepare` time in seconds.
pub fn prepare_runtime() -> (Graph, FlexiRuntime, f64) {
    let id = ModelId::RNet20;
    let graph = id.build(Scale::Eval).expect("build RNet20");
    let calib = gen_image_inputs(CALIB_SAMPLES, &id.input_dims(Scale::Eval), CALIB_SEED);
    let mut cfg = FlexiQConfig::new(4, Strategy::Greedy);
    cfg.exec = QuantExecOptions {
        mode: ExecMode::Int,
        ..Default::default()
    };
    let t = Instant::now();
    let prepared = prepare(&graph, &calib, &cfg).expect("prepare RNet20");
    (graph, prepared.runtime, t.elapsed().as_secs_f64())
}

/// `n` seeded RNet20 input images.
pub fn images(n: usize, seed: u64) -> Vec<Tensor> {
    gen_image_inputs(n, &ModelId::RNet20.input_dims(Scale::Eval), seed)
}

struct Setup {
    graph: Graph,
    runtime: Arc<FlexiRuntime>,
    server: Server,
}

/// One full set-up: model build, `prepare`, runtime, prewarm (inside
/// server start, as shipped) and server start.
fn set_up(spec: &ImageSpec, cfg: &ServeConfig) -> (Setup, f64, f64) {
    let t = Instant::now();
    let (graph, runtime, prepare_s) = prepare_runtime();
    let runtime = Arc::new(runtime);
    let server = match spec.control {
        ImageControl::Fixed(ratio) => {
            let level = if ratio == 0.0 {
                LEVEL_INT8
            } else {
                runtime
                    .schedule()
                    .nearest_level(ratio)
                    .expect("schedule level")
            };
            runtime.set_level(level).expect("level");
            Server::start_fixed(Arc::clone(&runtime), cfg.clone())
        }
        ImageControl::Adaptive => Server::start_adaptive(Arc::clone(&runtime), cfg.clone()),
    }
    .expect("start server");
    let setup = Setup {
        graph,
        runtime,
        server,
    };
    (setup, t.elapsed().as_secs_f64(), prepare_s)
}

/// Per-sample outputs of the runtime at the level a response reports,
/// computed on first use.
struct Oracle<'a> {
    runtime: &'a FlexiRuntime,
    images: &'a [Tensor],
    outputs: HashMap<(usize, usize), Tensor>,
}

impl Oracle<'_> {
    /// Whether `resp` bit-equals a standalone pass over the same image
    /// at the level the response reports.
    fn matches(&mut self, image: usize, resp: &InferResponse) -> bool {
        let (rt, x) = (self.runtime, &self.images[image]);
        let want = self.outputs.entry((resp.level, image)).or_insert_with(|| {
            rt.set_level(resp.level).expect("reported level exists");
            rt.infer(x).expect("oracle pass")
        });
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        want.dims() == resp.output.dims() && bits(want) == bits(&resp.output)
    }
}

/// An answered request.
struct Answer<'a> {
    /// Index of its image in the pool.
    image: usize,
    /// Due time → response.
    latency_ms: f64,
    /// Bit-equal to the oracle.
    ok: bool,
    resp: &'a InferResponse,
}

/// Runs one image workload.
pub fn run(spec: &ImageSpec, args: &Args) -> Result<Outcome, String> {
    let cfg = ServeConfig::default();
    println!("{}", crate::env::stamp(&cfg));
    let (mut setup_s, mut prepare_s) = (Vec::new(), Vec::new());
    let mut kept: Option<Setup> = None;
    for _ in 0..traffic::SETUP_REPS {
        if let Some(old) = kept.take() {
            old.server.shutdown();
        }
        let (setup, total, prep) = set_up(spec, &cfg);
        setup_s.push(total);
        prepare_s.push(prep);
        kept = Some(setup);
    }
    let Setup {
        graph,
        runtime,
        server,
    } = kept.expect("at least one set-up");

    let pool = images(spec.pool, POOL_SEED);
    let labels = teacher_dataset(&graph, pool.clone())
        .map_err(|e| format!("teacher labels: {e}"))?
        .labels;
    // Request `i` carries image `(i + offset) mod pool`.
    let offset = traffic::sub_seed(args.seed, 1) as usize % pool.len();
    let image = |i: usize| (i + offset) % pool.len();
    let submit = |i: usize| server.submit(pool[image(i)].clone());
    let wait = |t: Ticket| t.wait();

    // Checked before timing: distinct images, stacked by the server, must
    // match the per-sample oracle.
    let (pre, _) = traffic::backlog(traffic::PRECHECK, 0, submit, wait);
    if args.trace {
        flexiq_telemetry::set_enabled(true);
    }
    let window = Window::start();
    let timed = traffic::run_timed(
        spec.cycle,
        spec.backlog,
        args.seconds,
        traffic::sub_seed(args.seed, 2),
        traffic::PRECHECK,
        submit,
        wait,
    );
    let counters = window.delta();
    flexiq_telemetry::set_enabled(false);
    let snapshot = server.shutdown();

    // Every answer, before and during timing, against the oracle.
    let mut oracle = Oracle {
        runtime: &runtime,
        images: &pool,
        outputs: HashMap::new(),
    };
    let pre = answers(pre.iter(), image, &mut oracle);
    let segments: Vec<Vec<Answer>> = timed
        .segments
        .iter()
        .map(|s| answers(s.iter(), image, &mut oracle))
        .collect();
    let open: Vec<&Answer> = segments.iter().flatten().collect();
    let drained = answers(timed.drains(), image, &mut oracle);
    let served: Vec<&Answer> = open.iter().copied().chain(&drained).collect();
    let verified = served.iter().filter(|a| a.ok).count();
    let pre_ok = pre.len() == traffic::PRECHECK && pre.iter().all(|a| a.ok);

    let per_segment = |f: &dyn Fn(&Answer) -> f64| -> Vec<Vec<f64>> {
        segments.iter().map(|s| s.iter().map(f).collect()).collect()
    };
    let service = |a: &Answer| ms(a.resp.latency.saturating_sub(a.resp.queue_delay));
    let lat = per_segment(&|a| a.latency_ms);
    let per_output = per_segment(&|a| service(a) / a.resp.batch_size as f64);

    let mut v = Values::default();
    v.set("p50_ms", segment_percentile(&lat, 0.5, "latency")?);
    v.set("p90_ms", segment_percentile(&lat, 0.9, "latency")?);
    // One output per image request: its first output is its response.
    v.set("ttft_p50_ms", segment_percentile(&lat, 0.5, "latency")?);
    v.set("ttft_p90_ms", segment_percentile(&lat, 0.9, "latency")?);
    v.set(
        "tpot_p50_ms",
        segment_percentile(&per_output, 0.5, "service")?,
    );
    v.set(
        "tpot_p90_ms",
        segment_percentile(&per_output, 0.9, "service")?,
    );
    let met: Vec<bool> = open
        .iter()
        .map(|a| a.ok && a.latency_ms <= spec.limit_ms)
        .collect();
    v.set(
        "slo_attain",
        stats::slo_attainment(&met, timed.open().count()),
    );
    let agree = served
        .iter()
        .filter(|a| a.resp.output.argmax() == Some(labels[a.image]))
        .count();
    v.set("top1_agree", agree as f64 / served.len().max(1) as f64);
    let rates: Vec<f64> = timed
        .rounds
        .iter()
        .map(|(records, dt)| records.len() as f64 / dt.as_secs_f64())
        .collect();
    let drain = stats::median(&rates).expect("backlog rounds ran");
    v.set("drain_rps", drain);
    // One output (a class label) per request.
    v.set("tok_s", drain);
    let offered = timed.offered();
    v.set("answered_frac", served.len() as f64 / offered as f64);
    v.set("setup_s", stats::median(&setup_s).expect("set-ups ran"));
    v.set("rss_mb", crate::env::peak_rss_mb());

    if args.trace {
        let queue: Vec<f64> = open.iter().map(|a| ms(a.resp.queue_delay)).collect();
        v.set(
            "serve.queue_wait_p50_ms",
            checked_percentile(&queue, 0.5, "queue")?,
        );
        v.set(
            "serve.queue_wait_p99_ms",
            checked_percentile(&queue, 0.99, "queue")?,
        );
        let services: Vec<f64> = open.iter().map(|a| service(a)).collect();
        v.set(
            "serve.service_p50_ms",
            checked_percentile(&services, 0.5, "service")?,
        );
        v.set("serve.batch_mean.steady", batch_mean(&open));
        v.set(
            "serve.batch_mean.drain",
            batch_mean(&drained.iter().collect::<Vec<_>>()),
        );
        let outcomes = timed
            .open()
            .chain(timed.drains())
            .map(|r| r.outcome.as_ref().err());
        error_shares(outcomes, offered, &mut v);
        let lag: Vec<f64> = timed
            .open()
            .map(|r| ms(r.sent.saturating_duration_since(r.due)))
            .collect();
        v.set(
            "serve.gen_lag_p99_ms",
            checked_percentile(&lag, 0.99, "generator")?,
        );
        let levels: Vec<usize> = served.iter().map(|a| a.resp.level).collect();
        let shares = stats::level_shares(&levels, LEVELS.len(), level_slot);
        for (name, share) in LEVELS.iter().zip(shares) {
            v.set(&format!("serve.level_share.{name}"), share);
        }
        v.set("serve.level_switches", snapshot.level_switches as f64);
        Window::record(&counters, served.len(), &mut v);
        layers::setup_probes(&runtime, &prepare_s, &mut v);
        layers::image_probes(&runtime, &pool, &layers::serve_pool(&cfg), &mut v);
        crate::gen::decode_layers(traffic::sub_seed(args.seed, 3), &mut v)?;
    }

    let notes = vec![
        format!(
            "samples: {} open-loop answers, {} backlog rounds of {}",
            open.len(),
            timed.rounds.len(),
            spec.backlog
        ),
        p99_note("p99_ms", &lat.concat()),
        p99_note("tpot_p99_ms", &per_output.concat()),
    ];
    Ok(Outcome {
        correct: pre_ok && verified == served.len(),
        attempted: offered,
        failed: offered - verified,
        values: v,
        notes,
    })
}

/// The answered requests among `records`, checked against the oracle.
fn answers<'a>(
    records: impl Iterator<Item = &'a Record<InferResponse>>,
    image: impl Fn(usize) -> usize,
    oracle: &mut Oracle,
) -> Vec<Answer<'a>> {
    records
        .filter_map(|r| {
            let resp = r.outcome.as_ref().ok()?;
            let image = image(r.index);
            Some(Answer {
                image,
                latency_ms: ms(latency_from_due(r.due, r.sent, resp.latency)),
                ok: oracle.matches(image, resp),
                resp,
            })
        })
        .collect()
}

/// Mean requests per dispatched batch: each request of a batch of `b`
/// contributes `1/b` batches.
fn batch_mean(answers: &[&Answer]) -> f64 {
    let batches: f64 = answers.iter().map(|a| 1.0 / a.resp.batch_size as f64).sum();
    if batches == 0.0 {
        0.0
    } else {
        answers.len() as f64 / batches
    }
}
