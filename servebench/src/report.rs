//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serving levels in ratio order, as named in metrics.
pub const LEVELS: [&str; 5] = ["int8", "q25", "q50", "q75", "q100"];

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 13] = [
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("tpot_p90_ms", "ms"),
    ("slo_attain", "ratio"),
    ("top1_agree", "ratio"),
    ("drain_rps", "1/s"),
    ("tok_s", "tok/s"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.batch_mean.steady", "count"),
    ("serve.batch_mean.drain", "count"),
    ("serve.rejected", "ratio"),
    ("serve.shed", "ratio"),
    ("serve.expired", "ratio"),
    ("serve.exec_failed", "ratio"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("serve.level_share.int8", "ratio"),
    ("serve.level_share.q25", "ratio"),
    ("serve.level_share.q50", "ratio"),
    ("serve.level_share.q75", "ratio"),
    ("serve.level_share.q100", "ratio"),
    ("serve.level_switches", "count"),
    ("serve.decode.queue_wait_p99_ms", "ms"),
    ("serve.decode.prefill_p50_ms", "ms"),
    ("serve.decode.fused_width_mean", "count"),
    ("core.pass_ms.int8.n1", "ms"),
    ("core.pass_ms.int8.n16", "ms"),
    ("core.pass_ms.q25.n1", "ms"),
    ("core.pass_ms.q25.n16", "ms"),
    ("core.pass_ms.q50.n1", "ms"),
    ("core.pass_ms.q50.n16", "ms"),
    ("core.pass_ms.q75.n1", "ms"),
    ("core.pass_ms.q75.n16", "ms"),
    ("core.pass_ms.q100.n1", "ms"),
    ("core.pass_ms.q100.n16", "ms"),
    ("core.decode_step_ms.n1", "ms"),
    ("core.decode_step_ms.n8", "ms"),
    ("core.prefill_ms", "ms"),
    ("core.prepare_s", "s"),
    ("core.prewarm_s", "s"),
    ("core.pack_cache_mb", "MiB"),
    ("nn.phase_ms.q50.act_quant", "ms"),
    ("nn.phase_ms.q50.bit_lower", "ms"),
    ("nn.phase_ms.q50.im2col", "ms"),
    ("nn.phase_ms.q50.band_gemm", "ms"),
    ("nn.phase_ms.q50.requant", "ms"),
    ("nn.phase_ms.int8.act_quant", "ms"),
    ("nn.phase_ms.int8.bit_lower", "ms"),
    ("nn.phase_ms.int8.im2col", "ms"),
    ("nn.phase_ms.int8.band_gemm", "ms"),
    ("nn.phase_ms.int8.requant", "ms"),
    ("nn.kv.append_us", "us"),
    ("nn.kv.attend_us", "us"),
    ("nn.kv.bytes_per_token", "B"),
    ("nn.pack_cache_hit_ratio", "ratio"),
    ("tensor.gemm_gops.conv_i8", "Gop/s"),
    ("tensor.gemm_gops.decode_i8", "Gop/s"),
    ("tensor.im2col_gbs", "GB/s"),
    ("tensor.madds_per_req", "count"),
    ("tensor.gemm_calls_per_req", "count"),
    ("parallel.busy_frac", "ratio"),
    ("parallel.tasks_per_req", "count"),
    ("telemetry.overhead_pct", "%"),
];

/// Metric values of one run, keyed by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a declared metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(declared, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one run.
pub struct Outcome {
    /// Every checked response matched its oracle.
    pub correct: bool,
    /// Requests offered in the timed phases.
    pub attempted: usize,
    /// Offered requests not answered with a verified output.
    pub failed: usize,
    pub values: Values,
    /// Lines printed ahead of the metrics: sample counts and the
    /// ungated p99 tails.
    pub notes: Vec<String>,
}

/// A note line with the p99 of `samples` (ms) and the sample count.
pub fn p99_note(name: &str, samples: &[f64]) -> String {
    match crate::stats::percentile(samples, 0.99) {
        Some(v) => format!(
            "{name:<34} {v:>14.6} ms  (p99 of {} samples, not gated)",
            samples.len()
        ),
        None => format!("{name:<34} too few samples ({}) for a p99", samples.len()),
    }
}

/// Human-readable metric lines followed by the one-line JSON result the
/// last line of standard output carries. `table` selects the metrics
/// printed; each must have been recorded.
pub fn render(outcome: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    let mut out = String::new();
    for note in &outcome.notes {
        let _ = writeln!(out, "{note}");
    }
    let mut metrics = String::new();
    for (i, &(name, unit)) in table.iter().enumerate() {
        let value = outcome
            .values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let _ = writeln!(out, "{name:<34} {value:>14.6} {unit}");
        if i > 0 {
            metrics.push_str(", ");
        }
        // `{:?}` is the shortest form that round-trips every digit, and
        // its `1.0` / `1e-7` spellings are valid JSON.
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        text.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let names = names_in_benchmark_json();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                names.iter().any(|n| n == name),
                "{name} missing from BENCHMARK.json"
            );
        }
        // Every other name is a workload the benchmark can run.
        let metrics = END_TO_END.len() + PER_LAYER.len();
        let workloads: Vec<&String> = names
            .iter()
            .filter(|n| {
                !END_TO_END
                    .iter()
                    .chain(&PER_LAYER)
                    .any(|m| m.0 == n.as_str())
            })
            .collect();
        assert_eq!(names.len(), metrics + workloads.len());
        for w in workloads {
            assert!(
                crate::Workload::ALL.iter().any(|x| x.name() == w),
                "unknown workload {w}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "{a} declared twice");
            assert!(
                a.len() <= 64
                    && a.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    #[test]
    fn result_line_is_the_last_line() {
        let mut values = Values::default();
        values.set("p50_ms", 1.25);
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            values,
            notes: vec!["a note".into()],
        };
        let text = render(&outcome, &END_TO_END[..1]);
        assert_eq!(text.lines().next().unwrap(), "a note");
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
