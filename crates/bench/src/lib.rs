//! Shared helpers for the experiment binaries that regenerate the paper's
//! tables and figures.
//!
//! Each binary accepts a small common set of flags (parsed by
//! [`ExpArgs::parse`]):
//!
//! * `--full` — paper-scale circuits (slow!) instead of reduced ones,
//! * `--patterns N` — Monte-Carlo patterns (default 2048 reduced / 8192
//!   full),
//! * `--circuits a,b,c` — restrict to a subset of benchmarks,
//! * `--seed S` — RNG seed,
//! * `--threshold-index 0|1|2` — which of the paper's three thresholds,
//! * `--trace p.jsonl` / `--metrics p.prom` — structured observability
//!   sinks shared by every run the binary performs.

use als_aig::Aig;
use als_circuits::{benchmark, BenchmarkScale};
use als_engine::{FlowConfig, FlowResult};
use als_error::{paper_thresholds, MetricKind};
use als_map::{map_circuit, CellLibrary};
use als_obs::{Obs, ObsConfig};

pub use als_error::metric::paper_thresholds as thresholds;

/// Common experiment arguments.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Paper-scale circuits.
    pub full: bool,
    /// Monte-Carlo pattern count.
    pub patterns: usize,
    /// Benchmarks to run (empty = binary default).
    pub circuits: Vec<String>,
    /// RNG seed.
    pub seed: u64,
    /// Which paper threshold to use (0 = tight, 1 = median, 2 = loose).
    pub threshold_index: usize,
    /// Optional group filter (`small` / `large`).
    pub group: Option<String>,
    /// Worker threads for the shared analysis pool (`None` keeps the
    /// `ALS_THREADS` environment default).
    pub threads: Option<usize>,
    /// JSONL span-trace path shared by every run of the binary.
    pub trace: Option<String>,
    /// Prometheus text-metrics path, written when the binary finishes.
    pub metrics: Option<String>,
}

impl Default for ExpArgs {
    fn default() -> ExpArgs {
        ExpArgs {
            full: false,
            patterns: 0, // resolved by scale
            circuits: Vec::new(),
            seed: 0xA15,
            threshold_index: 1,
            group: None,
            threads: None,
            trace: None,
            metrics: None,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> ExpArgs {
        let mut out = ExpArgs::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = |name: &str| {
                args.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match a.as_str() {
                "--full" => out.full = true,
                "--patterns" => {
                    out.patterns = value("--patterns").parse().unwrap_or_else(|_| {
                        eprintln!("--patterns expects a number");
                        std::process::exit(2);
                    })
                }
                "--circuits" => {
                    out.circuits =
                        value("--circuits").split(',').map(|s| s.trim().to_string()).collect()
                }
                "--seed" => {
                    out.seed = value("--seed").parse().unwrap_or_else(|_| {
                        eprintln!("--seed expects a number");
                        std::process::exit(2);
                    })
                }
                "--threshold-index" => {
                    out.threshold_index = value("--threshold-index").parse().unwrap_or_else(|_| {
                        eprintln!("--threshold-index expects 0, 1 or 2");
                        std::process::exit(2);
                    })
                }
                "--group" => out.group = Some(value("--group")),
                "--trace" => out.trace = Some(value("--trace")),
                "--metrics" => out.metrics = Some(value("--metrics")),
                "--threads" => {
                    out.threads = Some(value("--threads").parse().unwrap_or_else(|_| {
                        eprintln!("--threads expects a number");
                        std::process::exit(2);
                    }))
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full --patterns N --circuits a,b,c --seed S \
                         --threshold-index 0|1|2 --group small|large --threads T \
                         --trace p.jsonl --metrics p.prom"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        out.resolve()
    }

    /// Fills the defaults that depend on other flags: an unset (zero)
    /// pattern count becomes 8192 with `--full`, else 2048.
    pub fn resolve(mut self) -> ExpArgs {
        if self.patterns == 0 {
            self.patterns = if self.full { 8192 } else { 2048 };
        }
        self
    }

    /// The benchmark scale implied by `--full`.
    pub fn scale(&self) -> BenchmarkScale {
        if self.full {
            BenchmarkScale::Paper
        } else {
            BenchmarkScale::Reduced
        }
    }

    /// Resolves the circuit list: explicit `--circuits`, else the group,
    /// else `default_names`.
    pub fn circuit_names(&self, default_names: Vec<&'static str>) -> Vec<String> {
        if !self.circuits.is_empty() {
            return self.circuits.clone();
        }
        match self.group.as_deref() {
            Some("small") => {
                als_circuits::suite::small_circuit_names().iter().map(|s| s.to_string()).collect()
            }
            Some("large") => {
                als_circuits::suite::large_circuit_names().iter().map(|s| s.to_string()).collect()
            }
            _ => default_names.into_iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Builds a benchmark at the selected scale.
    pub fn build(&self, name: &str) -> Aig {
        benchmark(name, self.scale())
    }

    /// The paper threshold for `metric` on a circuit with `k` outputs.
    pub fn threshold(&self, metric: MetricKind, k: usize) -> f64 {
        paper_thresholds(metric, k)[self.threshold_index.min(2)]
    }

    /// One observability handle for the whole binary (disabled unless
    /// `--trace` or `--metrics` was given). Call once, clone it into every
    /// [`FlowConfig`] via `with_obs`, and `finish()` it before exiting.
    pub fn observability(&self) -> Obs {
        if self.trace.is_none() && self.metrics.is_none() {
            return Obs::disabled();
        }
        Obs::new(ObsConfig {
            trace: self.trace.as_ref().map(Into::into),
            metrics: self.metrics.as_ref().map(Into::into),
            tree: false,
        })
        .unwrap_or_else(|e| {
            eprintln!("observability setup failed: {e}");
            std::process::exit(2);
        })
    }

    /// A flow configuration for the given circuit under `metric`.
    ///
    /// Mirrors the paper's setup: SASIMI LACs and `M = 60` for small
    /// circuits, constant LACs and `M = 150` for large ones.
    pub fn config_for(&self, name: &str, metric: MetricKind, bound: f64) -> FlowConfig {
        let mut base =
            FlowConfig::new(metric, bound).with_patterns(self.patterns).with_seed(self.seed);
        if let Some(threads) = self.threads {
            base = base.with_threads(threads);
        }
        if als_circuits::suite::large_circuit_names().contains(&name) {
            base.for_large_circuit()
        } else {
            base
        }
    }
}

/// ADP ratio of a flow result against the original circuit.
pub fn adp_ratio_of(result: &FlowResult, original: &Aig) -> f64 {
    als_map::adp_ratio(&result.circuit, original, &CellLibrary::new())
}

/// Formats a mapping line for Table I.
pub fn describe(aig: &Aig) -> String {
    let m = map_circuit(aig, &CellLibrary::new());
    format!(
        "{:<10} {:>4}/{:<4} {:>7} {:>10.2} {:>8.3}",
        aig.name(),
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_ands(),
        m.area,
        m.delay
    )
}

/// Percentage formatter.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_fills_the_pattern_count_by_scale() {
        assert_eq!(ExpArgs::default().patterns, 0);
        assert_eq!(ExpArgs::default().resolve().patterns, 2048);
        assert_eq!(ExpArgs { full: true, ..ExpArgs::default() }.resolve().patterns, 8192);
        let explicit = ExpArgs { full: true, patterns: 512, ..ExpArgs::default() };
        assert_eq!(explicit.resolve().patterns, 512);
    }

    #[test]
    fn circuit_names_resolution() {
        let mut a = ExpArgs::default();
        assert_eq!(a.circuit_names(vec!["adder"]), vec!["adder"]);
        a.group = Some("small".into());
        assert!(a.circuit_names(vec![]).contains(&"c880".to_string()));
        a.circuits = vec!["mult16".into()];
        assert_eq!(a.circuit_names(vec![]), vec!["mult16"]);
    }

    #[test]
    fn config_for_selects_group_defaults() {
        let a = ExpArgs { patterns: 512, ..ExpArgs::default() };
        let small = a.config_for("adder", MetricKind::Mse, 1.0);
        assert!(small.lac.substitutions);
        assert_eq!(small.m, 60);
        let large = a.config_for("log2", MetricKind::Mse, 1.0);
        assert!(!large.lac.substitutions);
        assert_eq!(large.m, 150);
    }

    #[test]
    fn describe_contains_name() {
        let aig = benchmark("c880", BenchmarkScale::Reduced);
        assert!(describe(&aig).contains("c880"));
    }
}
