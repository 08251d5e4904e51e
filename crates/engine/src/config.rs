//! Flow configuration.

use std::fmt;

use als_error::MetricKind;
use als_lac::CandidateConfig;
use als_obs::Obs;

/// How Monte-Carlo input patterns are drawn.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub enum PatternSource {
    /// Independent uniform bits (the paper's experimental setup).
    #[default]
    Uniform,
    /// Independent biased bits: each input is 1 with the given
    /// probability — exercises the "any input distribution" claim.
    Biased(f64),
}

/// How the best candidate LAC of an iteration is chosen.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum SelectionStrategy {
    /// Smallest error increase, ties broken by larger area saving — the
    /// paper's criterion ("selects one target node with the smallest
    /// error increase").
    #[default]
    MinError,
    /// Largest area saving per unit of error increase (SASIMI-style
    /// gain/cost greedy). Tends to remove big cones earlier at the price
    /// of burning error budget faster.
    MaxGainPerError,
}

/// Settings of the guarded execution layer: transactional LAC application
/// with exact pre-commit re-measurement, rollback on budget overshoot and
/// incremental-state spot-checking.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardConfig {
    /// Apply each selected LAC inside a transaction and re-measure the
    /// circuit error exactly before committing; roll back and evict the
    /// candidate when the measurement overshoots the bound. With the
    /// flows' exact estimators this never triggers, so enabling it does
    /// not change results — it removes the *assumption* that it cannot.
    pub enabled: bool,
    /// Additionally re-validate every commit on an independent validation
    /// pattern set (different seed, [`GuardConfig::validation_factor`]×
    /// larger than the estimation set). Catches overshoot caused by an
    /// unrepresentative estimation sample, at the price of one extra
    /// simulation per candidate commit.
    pub strict: bool,
    /// Size multiplier of the strict validation set relative to the
    /// estimation set.
    pub validation_factor: usize,
    /// Candidates tried (applied, measured, rolled back) per selection
    /// before the iteration gives up.
    pub max_retries: usize,
    /// How many times an overshoot may double the validation sample count
    /// before it stops growing.
    pub max_resamples: usize,
    /// Live nodes spot-checked against ground truth after each
    /// incremental phase-two round (0 disables the check).
    pub spot_check: usize,
}

impl Default for GuardConfig {
    fn default() -> GuardConfig {
        GuardConfig {
            enabled: true,
            strict: false,
            validation_factor: 4,
            max_retries: 8,
            max_resamples: 3,
            spot_check: 8,
        }
    }
}

/// Crash-safety settings: where the run journal lives and whether the run
/// starts fresh or resumes from the journal's last checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Path of the journal file (created fresh, or read when resuming).
    pub path: std::path::PathBuf,
    /// Resume from an existing journal instead of starting a fresh run.
    pub resume: bool,
}

/// Configuration shared by every flow.
///
/// The dual-phase parameters follow the paper's experimental setup:
/// `M = 60` candidates (150 for large circuits), `N = M/3`, and the
/// self-adaption constants `R_inc = 0.25`, `b_r = 0.025`, `b_s = 0.25`,
/// `e_t = 0.5`.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Error metric the bound applies to.
    pub metric: MetricKind,
    /// Error upper bound `E_b`.
    pub error_bound: f64,
    /// Number of Monte-Carlo patterns (rounded up to a multiple of 64).
    pub num_patterns: usize,
    /// RNG seed for pattern generation.
    pub seed: u64,
    /// Input distribution for pattern generation.
    pub patterns_from: PatternSource,
    /// Candidate selection criterion.
    pub selection: SelectionStrategy,
    /// Explicit output weights; `None` selects `2^o` (unsigned word).
    pub weights: Option<Vec<f64>>,
    /// Candidate LAC enumeration settings.
    pub lac: CandidateConfig,
    /// Candidate-set size `M` for the dual-phase flows.
    pub m: usize,
    /// Phase-two iteration limit `N` (must stay below `M`).
    pub n: usize,
    /// Self-adaption growth/shrink factor `R_inc`.
    pub r_inc: f64,
    /// Relaxed bound ratio `b_r`.
    pub b_r: f64,
    /// Strict bound ratio `b_s`.
    pub b_s: f64,
    /// Relative-error-increase threshold `e_t`.
    pub e_t: f64,
    /// AccALS: maximum LACs applied per comprehensive analysis.
    pub multi_k: usize,
    /// Safety cap on applied LACs.
    pub max_lacs: usize,
    /// Worker threads for the shared analysis pool — disjoint cuts, CPM
    /// waves, simulation waves and batch error estimation all fan out over
    /// it (the paper uses 16 for its Table II runs; 1 = serial).
    pub threads: usize,
    /// Scheduling mode of the shared pool: the adaptive serial/parallel
    /// cutover, or forced fan-out when the `ALS_SCHED` environment
    /// variable says `force` (a test aid). Like `threads`, scheduling
    /// never affects result bytes — only where and in what grain the work
    /// runs — so it is excluded from journal fingerprints and a run may be
    /// resumed under a different scheduler.
    pub sched: als_par::SchedConfig,
    /// Fold trivially-constant gates after each applied LAC (an exact
    /// transformation ABC would perform before mapping; keeps reported
    /// areas honest for constant LACs).
    pub fold_constants: bool,
    /// Guarded execution settings (transactional application, budget
    /// guard, incremental-state fallback).
    pub guard: GuardConfig,
    /// Crash-safe run journal (`None` = no journal). Only the dual-phase
    /// flows support journaling; other flows reject it with a
    /// configuration error.
    pub journal: Option<JournalConfig>,
    /// Observability handle: hierarchical tracing spans and the metrics
    /// registry every instrumented layer (flows, guard, journal, worker
    /// pool) reports into. Disabled by default; a disabled handle makes
    /// every instrumentation point an inlined no-op.
    pub obs: Obs,
    /// Supervision limits: wall-clock deadline, iteration budget and the
    /// external cancellation token. Like `threads`, these never affect
    /// the result bytes of the work that does run — they only decide when
    /// it stops — so they are excluded from journal fingerprints and a
    /// preempted run may be resumed under different (or no) limits.
    pub supervise: crate::supervisor::SuperviseConfig,
    /// Deterministic fault-injection plan exercised by the chaos test
    /// suite. Compiled in only with the `fault-inject` feature; the
    /// default plan injects nothing.
    #[cfg(feature = "fault-inject")]
    pub faults: crate::faultplan::FaultPlan,
}

/// The default worker-thread budget: the `ALS_THREADS` environment
/// variable when set to a positive integer, else 1 (serial). Runs stay
/// byte-for-byte deterministic at any thread count, so this is purely a
/// performance knob — safe to flip fleet-wide (e.g. in CI) without
/// touching call sites.
fn default_threads() -> usize {
    std::env::var("ALS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

impl FlowConfig {
    /// A configuration with the paper's small-circuit defaults.
    pub fn new(metric: MetricKind, error_bound: f64) -> FlowConfig {
        FlowConfig {
            metric,
            error_bound,
            num_patterns: 8192,
            seed: 0xA15,
            patterns_from: PatternSource::Uniform,
            selection: SelectionStrategy::MinError,
            weights: None,
            lac: CandidateConfig::sasimi(8),
            m: 60,
            n: 20,
            r_inc: 0.25,
            b_r: 0.025,
            b_s: 0.25,
            e_t: 0.5,
            multi_k: 8,
            max_lacs: 100_000,
            threads: default_threads(),
            sched: als_par::SchedConfig::from_env(),
            fold_constants: true,
            guard: GuardConfig::default(),
            journal: None,
            obs: Obs::disabled(),
            supervise: crate::supervisor::SuperviseConfig::default(),
            #[cfg(feature = "fault-inject")]
            faults: crate::faultplan::FaultPlan::default(),
        }
    }

    /// Starts a validating builder with the paper's small-circuit
    /// defaults. Unlike the chainable `with_*` setters (which clamp bad
    /// values silently), [`FlowConfigBuilder::build`] rejects an
    /// inconsistent configuration with a [`ConfigError`].
    pub fn builder(metric: MetricKind, error_bound: f64) -> FlowConfigBuilder {
        FlowConfigBuilder { cfg: FlowConfig::new(metric, error_bound) }
    }

    /// Switches to the paper's large-circuit setup: `M = 150`, `N = 50`,
    /// constant LACs only.
    pub fn for_large_circuit(mut self) -> FlowConfig {
        self.m = 150;
        self.n = 50;
        self.lac = CandidateConfig::constants_only();
        self
    }

    /// Sets the Monte-Carlo pattern count (rounded up to a multiple of 64).
    pub fn with_patterns(mut self, num_patterns: usize) -> FlowConfig {
        self.num_patterns = num_patterns.max(64);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> FlowConfig {
        self.seed = seed;
        self
    }

    /// Sets the candidate-set size `M` and derives `N = M/3`.
    pub fn with_candidates(mut self, m: usize) -> FlowConfig {
        self.m = m.max(3);
        self.n = (self.m / 3).max(1);
        self
    }

    /// Sets the worker-thread budget of the shared analysis pool,
    /// overriding the `ALS_THREADS` default.
    pub fn with_threads(mut self, threads: usize) -> FlowConfig {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the scheduling configuration of the shared pool,
    /// overriding the `ALS_SCHED` default.
    pub fn with_sched(mut self, sched: als_par::SchedConfig) -> FlowConfig {
        self.sched = sched;
        self
    }

    /// Selects the input distribution.
    pub fn with_input_distribution(mut self, source: PatternSource) -> FlowConfig {
        self.patterns_from = source;
        self
    }

    /// Selects the candidate selection criterion.
    pub fn with_selection(mut self, strategy: SelectionStrategy) -> FlowConfig {
        self.selection = strategy;
        self
    }

    /// Enables strict mode: every commit is re-validated on an
    /// independent, larger pattern set.
    pub fn with_strict(mut self) -> FlowConfig {
        self.guard.strict = true;
        self
    }

    /// Journals every committed iteration to `path` (fresh run: any
    /// existing journal at that path is overwritten).
    pub fn with_journal(mut self, path: impl Into<std::path::PathBuf>) -> FlowConfig {
        self.journal = Some(JournalConfig { path: path.into(), resume: false });
        self
    }

    /// Resumes a run from the journal at `path` and keeps journaling to it.
    pub fn with_resume(mut self, path: impl Into<std::path::PathBuf>) -> FlowConfig {
        self.journal = Some(JournalConfig { path: path.into(), resume: true });
        self
    }

    /// Installs a fault-injection plan (chaos tests only).
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, faults: crate::faultplan::FaultPlan) -> FlowConfig {
        self.faults = faults;
        self
    }

    /// Attaches an observability handle: every instrumented layer of the
    /// run (flows, guard, journal, worker pool) reports spans and metrics
    /// through it.
    pub fn with_obs(mut self, obs: Obs) -> FlowConfig {
        self.obs = obs;
        self
    }

    /// Imposes a wall-clock deadline on the run: once it passes, the flow
    /// stops at the next supervision check and reports the best-so-far
    /// circuit with [`StopReason::Deadline`](crate::StopReason::Deadline).
    pub fn with_timeout(mut self, deadline: std::time::Duration) -> FlowConfig {
        self.supervise.deadline = Some(deadline);
        self
    }

    /// Caps the number of applied LACs as a supervision budget (unlike
    /// `max_lacs`, excluded from journal fingerprints: a budgeted run can
    /// be resumed without the cap).
    pub fn with_max_iters(mut self, max_iters: usize) -> FlowConfig {
        self.supervise.max_iters = Some(max_iters);
        self
    }

    /// Installs an external cancellation token; cancelling it stops the
    /// run gracefully at the next supervision check.
    pub fn with_cancel_token(mut self, token: crate::supervisor::CancelToken) -> FlowConfig {
        self.supervise.cancel = token;
        self
    }

    /// Number of 64-bit pattern words.
    pub fn pattern_words(&self) -> usize {
        self.num_patterns.div_ceil(64)
    }

    /// Checks the cross-field invariants the builder enforces. The public
    /// fields remain assignable for one deprecation cycle, so a config
    /// assembled by hand can be re-validated before a run.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_patterns == 0 {
            return Err(ConfigError::NoPatterns);
        }
        if self.m == 0 || self.n == 0 {
            return Err(ConfigError::EmptyCandidateSet { m: self.m, n: self.n });
        }
        if self.m <= self.n {
            return Err(ConfigError::CandidateBudget { m: self.m, n: self.n });
        }
        if let PatternSource::Biased(p) = self.patterns_from {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ConfigError::BiasOutOfRange(p));
            }
        }
        if !self.error_bound.is_finite() || self.error_bound < 0.0 {
            return Err(ConfigError::BadErrorBound(self.error_bound));
        }
        if self.supervise.deadline == Some(std::time::Duration::ZERO) {
            return Err(ConfigError::ZeroTimeout);
        }
        if self.supervise.max_iters == Some(0) {
            return Err(ConfigError::ZeroIterLimit);
        }
        Ok(())
    }
}

/// Why a [`FlowConfigBuilder`] refused to produce a [`FlowConfig`].
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The Monte-Carlo sample count is zero.
    NoPatterns,
    /// `M` or `N` is zero — no candidates to analyse.
    EmptyCandidateSet {
        /// Candidate-set size `M`.
        m: usize,
        /// Phase-two iteration limit `N`.
        n: usize,
    },
    /// The phase-two budget `N` is not strictly below the candidate-set
    /// size `M`.
    CandidateBudget {
        /// Candidate-set size `M`.
        m: usize,
        /// Phase-two iteration limit `N`.
        n: usize,
    },
    /// A biased input distribution's one-probability is outside `[0, 1]`.
    BiasOutOfRange(f64),
    /// The error bound is negative, infinite or NaN.
    BadErrorBound(f64),
    /// A wall-clock deadline of zero — the run could never start. Omit
    /// the deadline instead to run unlimited.
    ZeroTimeout,
    /// A supervision iteration budget of zero — the run could never apply
    /// a LAC. Omit the budget instead to run unlimited.
    ZeroIterLimit,
    /// A resumed run's supervision iteration budget does not exceed the
    /// number of LACs its journal has already committed: the run would be
    /// preempted again before making any progress. Raise (or drop) the
    /// budget — supervision limits are excluded from journal fingerprints
    /// precisely so a resume may change them.
    ResumeIterBudget {
        /// LACs already committed in the journal being resumed.
        journaled: usize,
        /// The configured supervision budget.
        limit: usize,
    },
}

impl ConfigError {
    /// A stable machine-readable code for the wire protocol's error
    /// bodies (`ErrorBody.code`).
    pub fn code(&self) -> &'static str {
        match self {
            ConfigError::NoPatterns => "no_patterns",
            ConfigError::EmptyCandidateSet { .. } => "empty_candidate_set",
            ConfigError::CandidateBudget { .. } => "candidate_budget",
            ConfigError::BiasOutOfRange(_) => "bias_out_of_range",
            ConfigError::BadErrorBound(_) => "bad_error_bound",
            ConfigError::ZeroTimeout => "zero_timeout",
            ConfigError::ZeroIterLimit => "zero_iter_limit",
            ConfigError::ResumeIterBudget { .. } => "resume_iter_budget",
        }
    }

    /// The wire form: `{"code": …, "message": …}` — the same shape the
    /// service's `ErrorBody` uses, so configuration rejections cross the
    /// wire without losing their type.
    pub fn to_json(&self) -> als_obs::json::Json {
        als_obs::json::Json::obj().with("code", self.code()).with("message", self.to_string())
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoPatterns => {
                write!(f, "the Monte-Carlo pattern count must be positive")
            }
            ConfigError::EmptyCandidateSet { m, n } => {
                write!(f, "M and N must be positive (got M = {m}, N = {n})")
            }
            ConfigError::CandidateBudget { m, n } => {
                write!(f, "the candidate-set size M must exceed N (got M = {m}, N = {n})")
            }
            ConfigError::BiasOutOfRange(p) => {
                write!(f, "biased input probability {p} is outside [0, 1]")
            }
            ConfigError::BadErrorBound(b) => {
                write!(f, "error bound {b} must be finite and non-negative")
            }
            ConfigError::ZeroTimeout => {
                write!(f, "a --timeout of zero would stop the run before it starts")
            }
            ConfigError::ZeroIterLimit => {
                write!(f, "a --max-iters of zero would stop the run before it starts")
            }
            ConfigError::ResumeIterBudget { journaled, limit } => {
                write!(
                    f,
                    "the iteration budget ({limit}) does not exceed the {journaled} LACs the \
                     journal already holds — the resumed run could make no progress (raise or \
                     drop --max-iters)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`FlowConfig`], started by
/// [`FlowConfig::builder`]. Setters store values verbatim (no clamping);
/// [`FlowConfigBuilder::build`] checks the cross-field invariants and
/// returns a [`ConfigError`] instead of silently repairing the input.
#[derive(Clone, Debug)]
pub struct FlowConfigBuilder {
    cfg: FlowConfig,
}

impl FlowConfigBuilder {
    /// Sets the Monte-Carlo pattern count (validated, not clamped).
    pub fn patterns(mut self, num_patterns: usize) -> FlowConfigBuilder {
        self.cfg.num_patterns = num_patterns;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> FlowConfigBuilder {
        self.cfg.seed = seed;
        self
    }

    /// Sets the candidate-set size `M` and the phase-two limit `N`
    /// explicitly (`build` enforces `M > N > 0`).
    pub fn candidates(mut self, m: usize, n: usize) -> FlowConfigBuilder {
        self.cfg.m = m;
        self.cfg.n = n;
        self
    }

    /// Sets the worker-thread budget.
    pub fn threads(mut self, threads: usize) -> FlowConfigBuilder {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Selects the input distribution (`build` rejects a biased
    /// probability outside `[0, 1]`).
    pub fn input_distribution(mut self, source: PatternSource) -> FlowConfigBuilder {
        self.cfg.patterns_from = source;
        self
    }

    /// Selects the candidate selection criterion.
    pub fn selection(mut self, strategy: SelectionStrategy) -> FlowConfigBuilder {
        self.cfg.selection = strategy;
        self
    }

    /// Replaces the guarded-execution settings wholesale.
    pub fn guard(mut self, guard: GuardConfig) -> FlowConfigBuilder {
        self.cfg.guard = guard;
        self
    }

    /// Journals every committed iteration to `path`.
    pub fn journal(mut self, path: impl Into<std::path::PathBuf>) -> FlowConfigBuilder {
        self.cfg.journal = Some(JournalConfig { path: path.into(), resume: false });
        self
    }

    /// Resumes a run from the journal at `path` and keeps journaling to
    /// it.
    pub fn resume(mut self, path: impl Into<std::path::PathBuf>) -> FlowConfigBuilder {
        self.cfg.journal = Some(JournalConfig { path: path.into(), resume: true });
        self
    }

    /// Enables strict mode: every commit is re-validated on an
    /// independent, larger pattern set.
    pub fn strict(mut self) -> FlowConfigBuilder {
        self.cfg.guard.strict = true;
        self
    }

    /// Sets how many rejected candidates a selection may roll back before
    /// the iteration gives up.
    pub fn max_retries(mut self, retries: usize) -> FlowConfigBuilder {
        self.cfg.guard.max_retries = retries;
        self
    }

    /// Imposes a wall-clock deadline (`build` rejects a zero deadline).
    pub fn timeout(mut self, deadline: std::time::Duration) -> FlowConfigBuilder {
        self.cfg.supervise.deadline = Some(deadline);
        self
    }

    /// Caps the number of applied LACs as a supervision budget (`build`
    /// rejects a zero budget).
    pub fn max_iters(mut self, max_iters: usize) -> FlowConfigBuilder {
        self.cfg.supervise.max_iters = Some(max_iters);
        self
    }

    /// Installs an external cancellation token.
    pub fn cancel_token(mut self, token: crate::supervisor::CancelToken) -> FlowConfigBuilder {
        self.cfg.supervise.cancel = token;
        self
    }

    /// Attaches an observability handle.
    pub fn obs(mut self, obs: Obs) -> FlowConfigBuilder {
        self.cfg.obs = obs;
        self
    }

    /// Validates the assembled configuration and returns it, or the first
    /// violated invariant.
    pub fn build(self) -> Result<FlowConfig, ConfigError> {
        self.cfg.validate()?;
        let mut cfg = self.cfg;
        // normalise the pattern count exactly like the legacy setter
        cfg.num_patterns = cfg.num_patterns.max(64);
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_codes_are_stable_and_distinct() {
        let cases = [
            (ConfigError::NoPatterns, "no_patterns"),
            (ConfigError::EmptyCandidateSet { m: 0, n: 0 }, "empty_candidate_set"),
            (ConfigError::CandidateBudget { m: 10, n: 20 }, "candidate_budget"),
            (ConfigError::BiasOutOfRange(2.0), "bias_out_of_range"),
            (ConfigError::BadErrorBound(-1.0), "bad_error_bound"),
            (ConfigError::ZeroTimeout, "zero_timeout"),
            (ConfigError::ZeroIterLimit, "zero_iter_limit"),
            (ConfigError::ResumeIterBudget { journaled: 5, limit: 5 }, "resume_iter_budget"),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (err, code) in cases {
            assert_eq!(err.code(), code);
            assert!(seen.insert(code), "duplicate error code {code}");
            let j = err.to_json();
            assert_eq!(j.get("code").and_then(|c| c.as_str()), Some(code));
            let msg = j.get("message").and_then(|m| m.as_str()).unwrap_or("");
            assert_eq!(msg, err.to_string(), "wire message mirrors Display");
        }
    }

    #[test]
    fn defaults_match_paper() {
        let c = FlowConfig::new(MetricKind::Mse, 100.0);
        assert_eq!(c.m, 60);
        assert_eq!(c.n, 20);
        assert_eq!(c.r_inc, 0.25);
        assert_eq!(c.b_r, 0.025);
        assert_eq!(c.b_s, 0.25);
        assert_eq!(c.e_t, 0.5);
        assert!(c.n < c.m);
    }

    #[test]
    fn large_circuit_setup() {
        let c = FlowConfig::new(MetricKind::Er, 0.01).for_large_circuit();
        assert_eq!(c.m, 150);
        assert_eq!(c.n, 50);
        assert!(!c.lac.substitutions);
    }

    #[test]
    fn pattern_rounding() {
        let c = FlowConfig::new(MetricKind::Er, 0.01).with_patterns(100);
        assert_eq!(c.pattern_words(), 2);
        assert_eq!(FlowConfig::new(MetricKind::Er, 0.1).with_patterns(1).pattern_words(), 1);
    }

    #[test]
    fn candidate_derivation() {
        let c = FlowConfig::new(MetricKind::Er, 0.01).with_candidates(90);
        assert_eq!((c.m, c.n), (90, 30));
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let c = FlowConfig::builder(MetricKind::Med, 2.0)
            .patterns(1000)
            .seed(7)
            .candidates(90, 30)
            .threads(4)
            .input_distribution(PatternSource::Biased(0.25))
            .build()
            .unwrap();
        assert_eq!((c.m, c.n), (90, 30));
        assert_eq!(c.seed, 7);
        assert_eq!(c.threads, 4);
        assert_eq!(c.num_patterns, 1000);
        assert!(!c.obs.is_enabled());
    }

    #[test]
    fn builder_rejects_inverted_candidate_budget() {
        let err = FlowConfig::builder(MetricKind::Med, 1.0).candidates(20, 20).build().unwrap_err();
        assert_eq!(err, ConfigError::CandidateBudget { m: 20, n: 20 });
        assert!(err.to_string().contains("M must exceed N"));
        let err = FlowConfig::builder(MetricKind::Med, 1.0).candidates(0, 0).build().unwrap_err();
        assert_eq!(err, ConfigError::EmptyCandidateSet { m: 0, n: 0 });
    }

    #[test]
    fn builder_rejects_zero_patterns_and_bad_bias() {
        let err = FlowConfig::builder(MetricKind::Er, 0.1).patterns(0).build().unwrap_err();
        assert_eq!(err, ConfigError::NoPatterns);
        let err = FlowConfig::builder(MetricKind::Er, 0.1)
            .input_distribution(PatternSource::Biased(1.5))
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::BiasOutOfRange(1.5));
        assert!(FlowConfig::builder(MetricKind::Er, 0.1)
            .input_distribution(PatternSource::Biased(f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_degenerate_supervision_limits() {
        let err =
            FlowConfig::builder(MetricKind::Er, 0.1).timeout(std::time::Duration::ZERO).build();
        assert_eq!(err.unwrap_err(), ConfigError::ZeroTimeout);
        let err = FlowConfig::builder(MetricKind::Er, 0.1).max_iters(0).build();
        assert_eq!(err.unwrap_err(), ConfigError::ZeroIterLimit);
        let c = FlowConfig::builder(MetricKind::Er, 0.1)
            .timeout(std::time::Duration::from_secs(5))
            .max_iters(3)
            .build()
            .unwrap();
        assert_eq!(c.supervise.deadline, Some(std::time::Duration::from_secs(5)));
        assert_eq!(c.supervise.max_iters, Some(3));
    }

    #[test]
    fn builder_rejects_bad_bounds_and_validate_matches() {
        let err = FlowConfig::builder(MetricKind::Er, -1.0).build().unwrap_err();
        assert_eq!(err, ConfigError::BadErrorBound(-1.0));
        assert!(FlowConfig::builder(MetricKind::Er, f64::INFINITY).build().is_err());
        // hand-assembled configs re-validate through the same predicate
        let mut c = FlowConfig::new(MetricKind::Er, 0.1);
        assert!(c.validate().is_ok());
        c.n = c.m;
        assert!(c.validate().is_err());
    }
}
