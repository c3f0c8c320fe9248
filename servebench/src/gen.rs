//! The TinyLm (eval scale) generation workload behind `DecodeServer`.

use std::sync::Arc;
use std::time::Instant;

use flexiq_core::pipeline::{prepare, FlexiQConfig};
use flexiq_core::selection::Strategy;
use flexiq_core::FlexiRuntime;
use flexiq_nn::data::{gen_token_stream, lm_sequences};
use flexiq_nn::exec::{run as run_graph, F32Compute};
use flexiq_nn::graph::Graph;
use flexiq_nn::kv::KvSpec;
use flexiq_nn::qexec::{ExecMode, QuantExecOptions};
use flexiq_nn::zoo::{ModelId, Scale, TinyLmCfg};
use flexiq_serve::{DecodeConfig, DecodeServer, GenResponse, GenTicket, ServeConfig};
use flexiq_telemetry::CountersSnapshot;
use flexiq_tensor::rng::seeded;
use flexiq_tensor::Tensor;
use rand::Rng;

use crate::layers::{self, level_slot, Window};
use crate::report::{p99_note, Outcome, Values, LEVELS};
use crate::stats::{self, checked_percentile, latency_from_due, ms, segment_percentile};
use crate::traffic::{self, GenSpec, Record};
use crate::{error_shares, Args};

/// Calibration sequences are part of the model, not of the traffic.
const CALIB_SEED: u64 = 0xCA11C;
const CALIB_SAMPLES: usize = 8;
/// Seed of the fixed evaluation pool the requests draw prompts from.
const POOL_SEED: u64 = 0x9E7;

/// Builds and prepares TinyLm on the integer engine with the spec's KV
/// cache, pinned at the spec's level and prewarmed; returns the f32
/// graph (the teacher), the runtime and the `prepare` time in seconds.
fn prepare_runtime(spec: &GenSpec) -> (Graph, FlexiRuntime, f64) {
    let lm = TinyLmCfg::at(Scale::Eval);
    let graph = ModelId::TinyLm.build(Scale::Eval).expect("build TinyLm");
    let calib = lm_sequences(
        &gen_token_stream(lm.vocab, CALIB_SAMPLES * lm.context, CALIB_SEED),
        lm.context,
    );
    let mut cfg = FlexiQConfig::new(4, Strategy::Greedy);
    cfg.exec = QuantExecOptions {
        mode: ExecMode::Int,
        ..Default::default()
    };
    let t = Instant::now();
    let prepared = prepare(&graph, &calib, &cfg).expect("prepare TinyLm");
    let prepare_s = t.elapsed().as_secs_f64();
    let runtime = prepared
        .runtime
        .with_kv_spec(KvSpec::mixed(spec.kv.0, spec.kv.1));
    let level = runtime
        .schedule()
        .nearest_level(spec.ratio)
        .expect("schedule level");
    runtime.set_level(level).expect("level");
    runtime.prewarm_levels().expect("prewarm");
    (graph, runtime, prepare_s)
}

/// A fixed prompt of the spec's middle length for the decode probes.
fn probe_prompt(spec: &GenSpec) -> Tensor {
    let lm = TinyLmCfg::at(Scale::Eval);
    let len = (spec.prompt_len.0 + spec.prompt_len.1) / 2;
    let ids = gen_token_stream(lm.vocab, len, CALIB_SEED ^ 1);
    Tensor::from_vec([len], ids.into_iter().map(|t| t as f32).collect()).expect("prompt")
}

/// `n` seeded prompts with lengths drawn from the spec.
fn prompts(n: usize, spec: &GenSpec, seed: u64) -> Vec<Tensor> {
    let lm = TinyLmCfg::at(Scale::Eval);
    let seqs = lm_sequences(
        &gen_token_stream(lm.vocab, n * lm.context, seed),
        lm.context,
    );
    let mut rng = seeded(seed ^ 0x9);
    seqs.into_iter()
        .map(|s| {
            let len = rng.gen_range(spec.prompt_len.0..=spec.prompt_len.1);
            s.slice_axis0(len).expect("prompt slice")
        })
        .collect()
}

/// The fixed evaluation pool: prompts with their token budgets.
fn eval_pool(spec: &GenSpec) -> (Vec<Tensor>, Vec<usize>) {
    let mut rng = seeded(POOL_SEED ^ 0xB);
    let budgets = (0..spec.pool)
        .map(|_| rng.gen_range(spec.budget.0..=spec.budget.1))
        .collect();
    (prompts(spec.pool, spec, POOL_SEED), budgets)
}

/// A stream is correct when it is the oracle's prefix of its budget,
/// generated at the oracle's level.
fn matches_oracle(resp: &GenResponse, level: usize, oracle: &[u32], budget: usize) -> bool {
    resp.level == level && resp.tokens[..] == oracle[..budget.min(oracle.len())]
}

/// Greedy decoding: index of the largest logit (lowest index on ties).
fn argmax(row: &Tensor) -> u32 {
    row.argmax().expect("non-empty logits") as u32
}

/// The solo greedy stream of `prompt`: prefill, then single-session
/// steps, `max_new` tokens (the prefill's included).
fn solo_stream(rt: &FlexiRuntime, prompt: &Tensor, max_new: usize) -> Vec<u32> {
    let (mut s, first, _) = rt.decode_start(prompt).expect("prefill");
    let mut tokens = vec![argmax(&first)];
    while tokens.len() < max_new && s.pos() < s.context() {
        let last = *tokens.last().expect("non-empty") as f32;
        let (row, _) = rt.decode_step(&mut s, last).expect("step");
        tokens.push(argmax(&row));
    }
    tokens
}

/// Per position of `stream`, whether the f32 teacher, fed the prompt and
/// the stream so far, predicts the same token.
fn teacher_agreement(graph: &Graph, prompt: &Tensor, stream: &[u32]) -> Vec<bool> {
    let p = prompt.numel();
    let mut ids = prompt.data().to_vec();
    ids.extend(stream[..stream.len() - 1].iter().map(|&t| t as f32));
    let n = ids.len();
    let logits = run_graph(
        graph,
        &Tensor::from_vec([n], ids).expect("ids"),
        &mut F32Compute,
    )
    .expect("teacher forward");
    (0..stream.len())
        .map(|i| argmax(&logits.index_axis0(p - 1 + i).expect("row")) == stream[i])
        .collect()
}

/// An answered generation request.
struct Answer<'a> {
    /// Index of its prompt in the pool.
    prompt: usize,
    /// Due time → first token, and → last token.
    ttft_ms: f64,
    total_ms: f64,
    /// Mean gap between the stream's later tokens.
    tpot_ms: f64,
    /// Equal to the oracle stream.
    ok: bool,
    resp: &'a GenResponse,
}

/// The answered requests among `records`: `prompt` maps a request index
/// to its prompt, `correct` checks a stream against the oracle.
fn answers<'a>(
    records: impl Iterator<Item = &'a Record<GenResponse>>,
    prompt: impl Fn(usize) -> usize,
    correct: impl Fn(usize, &GenResponse) -> bool,
) -> Vec<Answer<'a>> {
    records
        .filter_map(|r| {
            let resp = r.outcome.as_ref().ok()?;
            let i = prompt(r.index);
            Some(Answer {
                prompt: i,
                ttft_ms: ms(latency_from_due(r.due, r.sent, resp.ttft)),
                total_ms: ms(latency_from_due(
                    r.due,
                    r.sent,
                    resp.ttft + resp.decode_time,
                )),
                // Budgets are at least 2, so a stream has a later token.
                tpot_ms: ms(resp.decode_time) / (resp.tokens.len().max(2) - 1) as f64,
                ok: correct(i, resp),
                resp,
            })
        })
        .collect()
}

/// The decode server's layer metrics over a traffic window: queue wait,
/// prefill time (TTFT − queue delay) and mean fused-step width.
fn decode_serve_metrics(
    open: &[&Answer],
    served: &[&Answer],
    counters: &CountersSnapshot,
    v: &mut Values,
) -> Result<(), String> {
    let queue: Vec<f64> = open.iter().map(|a| ms(a.resp.queue_delay)).collect();
    v.set(
        "serve.decode.queue_wait_p99_ms",
        checked_percentile(&queue, 0.99, "queue")?,
    );
    let prefill: Vec<f64> = open
        .iter()
        .map(|a| ms(a.resp.ttft.saturating_sub(a.resp.queue_delay)))
        .collect();
    v.set(
        "serve.decode.prefill_p50_ms",
        checked_percentile(&prefill, 0.5, "prefill")?,
    );
    // Fused steps and their tokens: every counted step and token minus
    // the prefills (one step, prompt-length tokens each).
    let prefill_tokens: usize = served.iter().map(|a| a.resp.prompt_len).sum();
    let fused_steps = counters.decode_steps.saturating_sub(served.len() as u64);
    let fused_tokens = counters.decode_tokens.saturating_sub(prefill_tokens as u64);
    v.set(
        "serve.decode.fused_width_mean",
        fused_tokens as f64 / fused_steps.max(1) as f64,
    );
    Ok(())
}

/// The `serve::decode` and decode-path layers for a traced run of an
/// image workload: serves `MIN_SEGMENTS` segments of the generation
/// traffic (answers checked against the oracle), records the decode
/// server's layer metrics, then runs the decode probes.
pub fn decode_layers(seed: u64, v: &mut Values) -> Result<(), String> {
    let spec = traffic::TINYLM_GEN;
    let runtime = Arc::new(prepare_runtime(&spec).1);
    let level = runtime.level();
    let (pool, budgets) = eval_pool(&spec);
    let oracle: Vec<Vec<u32>> = pool
        .iter()
        .map(|p| solo_stream(&runtime, p, spec.budget.1))
        .collect();
    let server = DecodeServer::start(Arc::clone(&runtime), DecodeConfig::default())
        .expect("start decode server");
    let prompt = |i: usize| i % pool.len();
    let submit = |i: usize| server.submit_bounded(pool[prompt(i)].clone(), budgets[prompt(i)]);
    let window = Window::start();
    let timed = traffic::run_timed(spec.cycle, spec.backlog, 0.0, seed, 0, submit, |t| t.wait());
    let counters = window.delta();
    server.shutdown();
    let correct =
        |i: usize, resp: &GenResponse| matches_oracle(resp, level, &oracle[i], budgets[i]);
    let open = answers(timed.open(), prompt, correct);
    let drained = answers(timed.drains(), prompt, correct);
    let served: Vec<&Answer> = open.iter().chain(&drained).collect();
    if served.len() != timed.offered() || served.iter().any(|a| !a.ok) {
        return Err("decode layer probe: a generation failed or differs from its oracle".into());
    }
    let open: Vec<&Answer> = open.iter().collect();
    decode_serve_metrics(&open, &served, &counters, v)?;
    layers::decode_probes(&runtime, &probe_prompt(&spec), v);
    Ok(())
}

/// Runs the generation workload.
pub fn run(spec: &GenSpec, args: &Args) -> Result<Outcome, String> {
    println!("{}", crate::env::stamp(&ServeConfig::default()));
    let cfg = DecodeConfig::default();
    let (mut setup_s, mut prepare_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Graph, Arc<FlexiRuntime>, DecodeServer)> = None;
    for _ in 0..traffic::SETUP_REPS {
        if let Some((_, _, old)) = kept.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let (graph, rt, prep) = prepare_runtime(spec);
        let rt = Arc::new(rt);
        let server =
            DecodeServer::start(Arc::clone(&rt), cfg.clone()).expect("start decode server");
        setup_s.push(t.elapsed().as_secs_f64());
        prepare_s.push(prep);
        kept = Some((graph, rt, server));
    }
    let (graph, runtime, server) = kept.expect("at least one set-up");
    let level = runtime.level();

    let (pool, budgets) = eval_pool(spec);
    // Oracle streams and the teacher's per-token agreement with them.
    let oracle: Vec<Vec<u32>> = pool
        .iter()
        .map(|p| solo_stream(&runtime, p, spec.budget.1))
        .collect();
    let agree: Vec<Vec<bool>> = pool
        .iter()
        .zip(&oracle)
        .map(|(p, s)| teacher_agreement(&graph, p, s))
        .collect();

    // Request `i` carries prompt `(i + offset) mod pool` with its budget.
    let offset = traffic::sub_seed(args.seed, 1) as usize % pool.len();
    let prompt = |i: usize| (i + offset) % pool.len();
    let submit = |i: usize| server.submit_bounded(pool[prompt(i)].clone(), budgets[prompt(i)]);
    let wait = |t: GenTicket| t.wait();
    let correct =
        |i: usize, resp: &GenResponse| matches_oracle(resp, level, &oracle[i], budgets[i]);

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
    server.shutdown();

    let pre = answers(pre.iter(), prompt, correct);
    let segments: Vec<Vec<Answer>> = timed
        .segments
        .iter()
        .map(|s| answers(s.iter(), prompt, correct))
        .collect();
    let open: Vec<&Answer> = segments.iter().flatten().collect();
    let drained = answers(timed.drains(), prompt, correct);
    let served: Vec<&Answer> = open.iter().copied().chain(&drained).collect();
    let verified = served.iter().filter(|a| a.ok).count();
    let pre_ok = pre.len() == traffic::PRECHECK && pre.iter().all(|a| a.ok);

    let per_segment = |f: &dyn Fn(&Answer) -> f64| -> Vec<Vec<f64>> {
        segments.iter().map(|s| s.iter().map(f).collect()).collect()
    };
    let total = per_segment(&|a| a.total_ms);
    let ttft = per_segment(&|a| a.ttft_ms);
    let tpot = per_segment(&|a| a.tpot_ms);

    let mut v = Values::default();
    v.set("p50_ms", segment_percentile(&total, 0.5, "latency")?);
    v.set("p90_ms", segment_percentile(&total, 0.9, "latency")?);
    v.set("ttft_p50_ms", segment_percentile(&ttft, 0.5, "ttft")?);
    v.set("ttft_p90_ms", segment_percentile(&ttft, 0.9, "ttft")?);
    v.set("tpot_p50_ms", segment_percentile(&tpot, 0.5, "tpot")?);
    v.set("tpot_p90_ms", segment_percentile(&tpot, 0.9, "tpot")?);
    let met: Vec<bool> = open
        .iter()
        .map(|a| a.ok && a.ttft_ms <= spec.ttft_limit_ms && a.tpot_ms <= spec.tpot_limit_ms)
        .collect();
    v.set(
        "slo_attain",
        stats::slo_attainment(&met, timed.open().count()),
    );
    let (hits, tokens) = served.iter().fold((0usize, 0usize), |(h, t), a| {
        let n = a.resp.tokens.len().min(agree[a.prompt].len());
        (
            h + agree[a.prompt][..n].iter().filter(|&&x| x).count(),
            t + n,
        )
    });
    v.set("top1_agree", hits as f64 / tokens.max(1) as f64);
    let per_s = |f: &dyn Fn(&Record<GenResponse>) -> usize| -> f64 {
        let rates: Vec<f64> = timed
            .rounds
            .iter()
            .map(|(records, dt)| records.iter().map(f).sum::<usize>() as f64 / dt.as_secs_f64())
            .collect();
        stats::median(&rates).expect("backlog rounds ran")
    };
    v.set("drain_rps", per_s(&|_| 1));
    let tokens_of = |r: &Record<GenResponse>| r.outcome.as_ref().map_or(0, |g| g.tokens.len());
    v.set("tok_s", per_s(&tokens_of));
    let offered = timed.offered();
    v.set("answered_frac", served.len() as f64 / offered as f64);
    v.set("setup_s", stats::median(&setup_s).expect("set-ups ran"));
    v.set("rss_mb", crate::env::peak_rss_mb());

    if args.trace {
        // The image server's queue, service and batch metrics do not
        // apply to the decode server.
        for name in [
            "serve.queue_wait_p50_ms",
            "serve.queue_wait_p99_ms",
            "serve.service_p50_ms",
            "serve.batch_mean.steady",
            "serve.batch_mean.drain",
            "serve.level_switches",
        ] {
            v.set(name, 0.0);
        }
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
        decode_serve_metrics(&open, &served, &counters, &mut v)?;
        Window::record(&counters, served.len(), &mut v);
        layers::setup_probes(&runtime, &prepare_s, &mut v);
        let (_, rnet, _) = crate::image::prepare_runtime();
        rnet.prewarm_levels().expect("prewarm");
        let images = crate::image::images(16, crate::image::POOL_SEED);
        layers::image_probes(
            &rnet,
            &images,
            &layers::serve_pool(&ServeConfig::default()),
            &mut v,
        );
        layers::decode_probes(&runtime, &probe_prompt(spec), &mut v);
    }

    let notes = vec![
        format!(
            "samples: {} open-loop answers, {} backlog rounds of {}",
            open.len(),
            timed.rounds.len(),
            spec.backlog
        ),
        p99_note("p99_ms", &total.concat()),
        p99_note("ttft_p99_ms", &ttft.concat()),
        p99_note("tpot_p99_ms", &tpot.concat()),
    ];
    Ok(Outcome {
        correct: pre_ok && verified == served.len(),
        attempted: offered,
        failed: offered - verified,
        values: v,
        notes,
    })
}
