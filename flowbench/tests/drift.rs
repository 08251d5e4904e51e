//! Drift test: every workload, run at miniature scale through the library,
//! prints exactly the metrics `BENCHMARK.json` declares, each with its
//! declared unit, and passes its own output check.

use als_obs::json::{self, Json};
use flowbench::{run, RunOpts, Scale, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn check_workload(name: &str) {
    for trace in [false, true] {
        let seconds = if name == "daemon_open" { 2.0 } else { 0.5 };
        let opts = RunOpts { seed: 3, seconds, trace, scale: Scale::Mini };
        let report = run(name, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.correct(), "{name} trace={trace}: {:?}", report.lines);
        let printed: Vec<(String, String)> = report
            .metrics(trace)
            .into_iter()
            .map(|(n, _, u)| (n.to_string(), u.to_string()))
            .collect();
        let section = if trace { "per_layer" } else { "end_to_end" };
        assert_eq!(
            printed,
            declared(section),
            "{name}: printed metrics differ from BENCHMARK.json {section}"
        );
        if !trace {
            assert!(report.unmeasured().is_empty(), "{name}: unmeasured {:?}", report.unmeasured());
        }
        let result = json::parse(&report.json(trace)).expect("the result line is JSON");
        let Json::Obj(members) = &result else { panic!("the result is an object") };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let listed: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
        .collect();
    assert_eq!(listed, WORKLOADS);
}

#[test]
fn small_sasimi_prints_its_metrics() {
    check_workload("small_sasimi");
}

#[test]
fn large_const_prints_its_metrics() {
    check_workload("large_const");
}

#[test]
fn threads2_prints_its_metrics() {
    check_workload("threads2");
}

#[test]
fn daemon_open_prints_its_metrics() {
    check_workload("daemon_open");
}
