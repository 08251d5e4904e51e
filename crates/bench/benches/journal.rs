//! Journal overhead on a full DP-SA run: the same synthesis is timed with
//! journaling off and on (`FlowConfig::with_journal`), the results are
//! asserted identical, and the relative overhead is written to
//! `BENCH_journal.json`.
//!
//! Under group commit the writer persists (temp + fsync + rename + parent
//! dir fsync) once per committed *iteration* — at the next checkpoint
//! append or the final flush — not once per LAC, so the overhead scales
//! with iterations. This bench derives the persist count from the loaded
//! journal (header + one per checkpoint + one trailing flush when the
//! journal ends in commits) and reports commits-per-persist alongside the
//! wall-clock ratio, so both write-path regressions and any return to
//! per-commit fsyncing are visible.
//!
//! Like the other benches, the binary is inert without the
//! `--bench` argument `cargo bench` passes. The output path defaults to
//! `<repo root>/BENCH_journal.json` and can be overridden with
//! `ALS_BENCH_OUT`.

use std::time::Instant;

use als_circuits::{benchmark, BenchmarkScale};
use als_engine::{DualPhaseFlow, Flow, FlowConfig, FlowResult};
use als_error::MetricKind;

const RUNS: usize = 3;

/// Best-of-`RUNS` wall time of `f` in milliseconds (after one warmup).
fn time_ms<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let result = f();
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (result, best)
}

fn assert_identical(off: &FlowResult, on: &FlowResult, name: &str) {
    assert_eq!(off.lacs_applied(), on.lacs_applied(), "{name}: journaling changed the run");
    assert_eq!(off.final_error.to_bits(), on.final_error.to_bits(), "{name}");
    assert_eq!(
        als_aig::io::to_ascii_string(&off.circuit),
        als_aig::io::to_ascii_string(&on.circuit),
        "{name}: journaling changed the circuit"
    );
}

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        return; // `cargo test` runs bench binaries without --bench
    }
    let journal_path = std::env::temp_dir().join(format!("als-bench-{}.alsj", std::process::id()));

    let mut rows: Vec<String> = Vec::new();
    for name in ["adder", "sm9x8", "mult16"] {
        let aig = benchmark(name, BenchmarkScale::Reduced);
        let cfg = FlowConfig::new(MetricKind::Med, 4.0).with_patterns(1024).with_threads(1);

        let (off, off_ms) =
            time_ms(|| DualPhaseFlow::with_self_adaption(cfg.clone()).run(&aig).unwrap());
        let (on, on_ms) = time_ms(|| {
            DualPhaseFlow::with_self_adaption(cfg.clone().with_journal(&journal_path))
                .run(&aig)
                .unwrap()
        });
        assert_identical(&off, &on, name);

        let commits = on.lacs_applied();
        let journal_bytes = std::fs::metadata(&journal_path).map(|m| m.len()).unwrap_or(0);
        // Derive the persist count from the surviving journal: the header
        // write, one group commit per checkpoint append, and a final
        // flush if the journal ends in commit records.
        let loaded = als_engine::journal::load(&journal_path).expect("journal loads");
        let checkpoints = loaded
            .records
            .iter()
            .filter(|r| matches!(r, als_engine::journal::Record::Checkpoint(_)))
            .count();
        let trailing_flush =
            matches!(loaded.records.last(), Some(als_engine::journal::Record::Commit(_)));
        let persists = 1 + checkpoints + usize::from(trailing_flush);
        let commits_per_persist = commits as f64 / persists as f64;
        std::fs::remove_file(&journal_path).ok();
        let overhead_ms = (on_ms - off_ms).max(0.0);
        let overhead_pct = 100.0 * overhead_ms / off_ms.max(1e-9);
        let per_commit_us = 1e3 * overhead_ms / (commits.max(1) as f64);
        println!(
            "bench: journal/{name:<7} off {off_ms:>9.3} ms  on {on_ms:>9.3} ms  \
             overhead {overhead_pct:>5.1}% ({per_commit_us:.0} us/commit, {commits} commits, \
             {persists} persists, {journal_bytes} B)"
        );
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"gates\": {}, \"commits\": {commits}, \
             \"checkpoints\": {checkpoints}, \"persists\": {persists}, \
             \"commits_per_persist\": {commits_per_persist:.2}, \
             \"journal_bytes\": {journal_bytes}, \"off_ms\": {off_ms:.3}, \
             \"on_ms\": {on_ms:.3}, \"overhead_pct\": {overhead_pct:.2}, \
             \"per_commit_us\": {per_commit_us:.1}}}",
            aig.num_ands()
        ));
    }

    let json = format!(
        "{{\n  \"flow\": \"DP-SA\",\n  \"metric\": \"med\",\n  \"bound\": 4.0,\n  \
         \"patterns\": 1024,\n  \"runs\": {RUNS},\n  \"note\": \"group commit: one persist \
         (temp + fsync + rename + dir fsync) per iteration — at the checkpoint append or \
         the final flush — not one per committed LAC\",\n  \"circuits\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let out = std::env::var("ALS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_journal.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write BENCH_journal.json");
    println!("bench: journal overhead -> {out}");
}
