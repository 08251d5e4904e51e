//! The observability layer must be *invisible* to synthesis: an enabled
//! run (JSONL trace + Prometheus export) produces byte-identical circuits
//! and bit-identical errors to a disabled run, at any thread count.
//!
//! Beyond invisibility, the trace must be *honest*: the engine feeds its
//! `StepTimes` accumulators from the very `Span::finish` values that land
//! in the JSONL stream, so summing `dur_ns` per step name must reproduce
//! `StepTimes` exactly — no second clock, no drift.

use std::path::PathBuf;

use proptest::prelude::*;

use dualphase_als::aig::Aig;
use dualphase_als::obs::prom;
use dualphase_als::prelude::*;

fn adder() -> Aig {
    dualphase_als::circuits::benchmark("adder", dualphase_als::circuits::BenchmarkScale::Reduced)
}

fn cfg(threads: usize) -> FlowConfig {
    FlowConfig::builder(MetricKind::Med, 4.0).patterns(1024).threads(threads).build().unwrap()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("als-obs-it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{}-{name}", std::process::id()))
}

fn ascii(res: &FlowResult) -> String {
    dualphase_als::aig::io::to_ascii_string(&res.circuit)
}

fn run_dpsa(cfg: FlowConfig) -> FlowResult {
    flows::by_name("dpsa", cfg).unwrap().run(&adder()).unwrap()
}

fn assert_same_synthesis(plain: &FlowResult, traced: &FlowResult, what: &str) {
    assert_eq!(ascii(plain), ascii(traced), "{what}: circuits differ");
    assert_eq!(
        plain.final_error.to_bits(),
        traced.final_error.to_bits(),
        "{what}: final error differs"
    );
    assert_eq!(plain.iterations.len(), traced.iterations.len(), "{what}: LAC counts differ");
    for (a, b) in plain.iterations.iter().zip(&traced.iterations) {
        assert_eq!(a.lac, b.lac, "{what}: LAC sequence diverged");
        assert_eq!(a.error_after.to_bits(), b.error_after.to_bits(), "{what}");
    }
    assert_eq!(plain.guard, traced.guard, "{what}: guard stats differ");
}

/// Pulls `"key":<integer>` out of a JSONL line (no serde in-tree).
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Pulls `"key":"value"` out of a JSONL line.
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let at = line.find(&needle)? + needle.len();
    line[at..].split('"').next()
}

#[test]
fn enabled_runs_are_byte_identical_to_disabled_runs() {
    for threads in [1usize, 4] {
        let plain = run_dpsa(cfg(threads));
        let trace = tmp(&format!("ident-{threads}.jsonl"));
        let metrics = tmp(&format!("ident-{threads}.prom"));
        let obs = Obs::new(ObsConfig {
            trace: Some(trace.clone()),
            metrics: Some(metrics.clone()),
            tree: false,
        })
        .unwrap();
        let traced = run_dpsa(cfg(threads).with_obs(obs.clone()));
        obs.finish().unwrap();
        assert_same_synthesis(&plain, &traced, &format!("threads={threads}"));
        assert!(std::fs::metadata(&trace).unwrap().len() > 0, "empty trace");
        assert!(std::fs::metadata(&metrics).unwrap().len() > 0, "empty metrics");
    }
}

#[test]
fn jsonl_span_totals_reproduce_step_times_exactly() {
    for name in FLOW_NAMES {
        let trace = tmp(&format!("totals-{name}.jsonl"));
        let obs =
            Obs::new(ObsConfig { trace: Some(trace.clone()), metrics: None, tree: false }).unwrap();
        let res =
            flows::by_name(*name, cfg(1).with_obs(obs.clone())).unwrap().run(&adder()).unwrap();
        obs.finish().unwrap();

        let text = std::fs::read_to_string(&trace).unwrap();
        let mut totals = std::collections::BTreeMap::new();
        for line in text.lines() {
            let span = json_str(line, "name").expect("span event without a name");
            let dur = json_u64(line, "dur_ns").expect("span event without dur_ns");
            *totals.entry(span.to_string()).or_insert(0u64) += dur;
            // Every cut span says what it did: a full computation (its
            // input size), an incremental update (|S_v|) or a spot check.
            if span == "cuts" {
                assert!(
                    ["nodes", "s_v", "spot_check"].iter().any(|k| json_u64(line, k).is_some()),
                    "{name}: cuts span without a count: {line}"
                );
            }
        }

        // One source of truth: StepTimes is accumulated from the same
        // Span::finish durations the trace records, so the sums are
        // *equal*, not merely close. Step 3 is evaluation plus candidate
        // generation.
        let total = |span: &str| totals.get(span).copied().unwrap_or(0);
        let t = &res.step_times;
        for (step, spans, step_total) in [
            ("cuts", &["cuts"][..], t.cuts),
            ("cpm", &["cpm"][..], t.cpm),
            ("eval", &["eval", "generate"][..], t.eval),
            ("apply", &["apply"][..], t.apply),
        ] {
            assert_eq!(
                spans.iter().map(|s| total(s)).sum::<u64>(),
                step_total.as_nanos() as u64,
                "{name}: spans {spans:?} diverged from StepTimes::{step}"
            );
        }
        // The hierarchy is present: a single flow root enclosing iterations.
        assert_eq!(totals.get("flow").map(|_| 1), Some(1), "{name}");
        assert!(totals.contains_key("iteration"), "{name}");
        assert!(totals.contains_key("phase1"), "{name}");
        assert!(totals.contains_key("generate"), "{name}: no generate span");
    }
}

#[test]
fn prometheus_export_passes_lint_and_covers_the_engine() {
    let metrics = tmp("lint.prom");
    let obs =
        Obs::new(ObsConfig { trace: None, metrics: Some(metrics.clone()), tree: false }).unwrap();
    let res = run_dpsa(cfg(2).with_obs(obs.clone()));
    obs.finish().unwrap();

    let text = std::fs::read_to_string(&metrics).unwrap();
    let families = prom::lint(&text).expect("promlint failed");
    assert!(families >= 10, "expected a well-populated registry, got {families} families");
    for required in [
        "als_iterations_total",
        "als_cut_recomputations_total",
        "als_cpm_rows_built_total",
        "als_cpc_violations_total",
        "als_guard_validations_total",
        "als_pool_regions_total",
        "als_s_cand_size",
    ] {
        assert!(text.contains(required), "metric {required} missing from:\n{text}");
    }
    // The exported counters reflect the run that produced them.
    let applied: u64 = res.iterations.len() as u64;
    assert!(
        text.contains(&format!("als_iterations_total {applied}")),
        "als_iterations_total should equal {applied}:\n{text}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Instrumentation stays invisible across seeds, pattern budgets and
    /// flows — not just for the one configuration pinned above.
    #[test]
    fn observability_never_changes_results(
        seed in 0u64..1000,
        patterns in 256usize..1024,
        flow_idx in 0usize..FLOW_NAMES.len(),
    ) {
        let name = FLOW_NAMES[flow_idx];
        let build = |obs: Obs| {
            let cfg = FlowConfig::builder(MetricKind::Med, 4.0)
                .patterns(patterns)
                .seed(seed)
                .build()
                .unwrap()
                .with_obs(obs);
            flows::by_name(name, cfg).unwrap().run(&adder()).unwrap()
        };
        let plain = build(Obs::disabled());
        let trace = tmp(&format!("prop-{name}-{seed}-{patterns}.jsonl"));
        let obs = Obs::new(ObsConfig { trace: Some(trace), metrics: None, tree: false }).unwrap();
        let traced = build(obs.clone());
        obs.finish().unwrap();
        prop_assert_eq!(ascii(&plain), ascii(&traced));
        prop_assert_eq!(plain.final_error.to_bits(), traced.final_error.to_bits());
    }
}
