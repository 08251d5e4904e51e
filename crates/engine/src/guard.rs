//! The budget guard: transactional LAC application with exact pre-commit
//! re-measurement and rollback on budget overshoot.
//!
//! Every flow routes its "apply the selected candidate" step through
//! [`BudgetGuard::select_apply`]. The guard applies the candidate inside a
//! transaction ([`crate::Ctx::apply_txn`]), re-measures the circuit error
//! exactly on the estimation patterns and — in strict mode — on an
//! independent, larger validation pattern set, and only then commits. An
//! overshoot rolls the application back, evicts the candidate from the pool
//! and retries with the next-best one; strict-mode overshoots additionally
//! double the validation sample count (up to a cap) so a persistently
//! unlucky sample cannot keep admitting bad candidates.

use std::collections::HashSet;

use als_aig::{Aig, EditRecord, NodeId};
use als_error::{unsigned_weights, ErrorState, MetricKind};
use als_obs::{Counter, Obs};
use als_sim::{PackedBits, PatternSet, Simulator};

use crate::config::{FlowConfig, GuardConfig, SelectionStrategy};
use crate::context::{Ctx, Evaluated};
use crate::error::EngineError;
use crate::report::GuardStats;

/// Relative slack added to the bound before an exact measurement counts as
/// an overshoot, so commit/reject decisions are immune to floating-point
/// noise between estimator and re-measurement.
fn threshold(bound: f64) -> f64 {
    bound + 1e-9 * bound.abs().max(1.0)
}

/// An accepted application returned by [`BudgetGuard::select_apply`].
pub struct GuardedApply {
    /// The candidate that committed.
    pub eval: Evaluated,
    /// Edit records of the committed application (LAC first).
    pub records: Vec<EditRecord>,
    /// Candidates applied, measured over budget and rolled back before
    /// this one committed.
    pub rollbacks: usize,
}

/// The strict-mode validation set: patterns drawn independently of the
/// estimation set, plus the original circuit's outputs on them.
struct ValSet {
    patterns: PatternSet,
    golden: Vec<PackedBits>,
}

/// Guarded-execution state of one flow run.
pub struct BudgetGuard {
    cfg: GuardConfig,
    #[cfg(feature = "fault-inject")]
    faults: crate::faultplan::FaultPlan,
    bound: f64,
    metric: MetricKind,
    weights: Vec<f64>,
    /// The exact input circuit, kept to produce golden outputs for
    /// freshly drawn validation sets.
    original: Aig,
    /// Seed of the next validation set to draw.
    val_seed: u64,
    /// 64-bit words per validation pattern set (doubles on resample).
    val_words: usize,
    val: Option<ValSet>,
    resamples: usize,
    /// `(target, replacement literal)` pairs measured over budget; never
    /// offered again this run.
    evicted: HashSet<(NodeId, u32)>,
    /// Validation error recorded at the most recent commit (strict mode).
    committed_val_error: f64,
    stats: GuardStats,
    metrics: GuardMetrics,
}

/// Pre-registered guard counters mirroring [`GuardStats`] into the
/// metrics registry (no-ops when observability is off).
#[derive(Clone, Debug, Default)]
struct GuardMetrics {
    validations: Counter,
    rollbacks: Counter,
    evictions: Counter,
    resamples: Counter,
    fallbacks: Counter,
}

impl GuardMetrics {
    fn register(obs: &Obs) -> GuardMetrics {
        GuardMetrics {
            validations: obs
                .counter("als_guard_validations_total", "exact pre-commit measurements"),
            rollbacks: obs
                .counter("als_guard_rollbacks_total", "applications rolled back on overshoot"),
            evictions: obs
                .counter("als_guard_evictions_total", "candidates evicted after a rollback"),
            resamples: obs
                .counter("als_guard_resamples_total", "strict-mode validation-set doublings"),
            fallbacks: obs.counter(
                "als_guard_fallbacks_total",
                "phase-two aborts to a fresh comprehensive analysis",
            ),
        }
    }
}

impl BudgetGuard {
    /// Builds the guard for a run of `cfg` on `original`.
    pub fn new(original: &Aig, cfg: &FlowConfig) -> BudgetGuard {
        let weights =
            cfg.weights.clone().unwrap_or_else(|| unsigned_weights(original.num_outputs()));
        BudgetGuard {
            cfg: cfg.guard.clone(),
            #[cfg(feature = "fault-inject")]
            faults: cfg.faults.clone(),
            bound: cfg.error_bound,
            metric: cfg.metric,
            weights,
            original: original.clone(),
            // A seed unrelated to the estimation seed, so validation
            // patterns are independent of the ones candidates were tuned on.
            val_seed: cfg.seed ^ 0x5E_ED0F_DA7A_u64,
            val_words: cfg.pattern_words().max(1) * cfg.guard.validation_factor.max(1),
            val: None,
            resamples: 0,
            evicted: HashSet::new(),
            committed_val_error: 0.0,
            stats: GuardStats::default(),
            metrics: GuardMetrics::register(&cfg.obs),
        }
    }

    /// Guard activity accumulated so far.
    pub fn stats(&self) -> GuardStats {
        self.stats
    }

    /// Snapshot of the guard's mutable state for a journal checkpoint.
    /// The validation set itself is not captured: it is a pure function
    /// of `val_seed`/`val_words` and is lazily rebuilt after a restore.
    pub fn snapshot(&self) -> crate::journal::GuardSnapshot {
        let mut evicted: Vec<(u32, u32)> = self.evicted.iter().map(|&(n, r)| (n.0, r)).collect();
        evicted.sort_unstable();
        crate::journal::GuardSnapshot {
            val_seed: self.val_seed,
            val_words: self.val_words as u64,
            resamples: self.resamples as u64,
            committed_val_error: self.committed_val_error,
            evicted,
            stats: self.stats,
        }
    }

    /// Restores the state captured by [`BudgetGuard::snapshot`].
    pub fn restore(&mut self, s: &crate::journal::GuardSnapshot) {
        self.val_seed = s.val_seed;
        self.val_words = s.val_words as usize;
        self.val = None;
        self.resamples = s.resamples as usize;
        self.committed_val_error = s.committed_val_error;
        self.evicted = s.evicted.iter().map(|&(n, r)| (NodeId(n), r)).collect();
        self.stats = s.stats;
    }

    /// Records one incremental-state fallback (a failed phase-two
    /// spot-check that forced a fresh comprehensive analysis).
    pub fn note_fallback(&mut self) {
        self.stats.fallbacks += 1;
        self.metrics.fallbacks.inc();
    }

    /// Degradation ladder: freezes the validation sample count at its
    /// current size by lowering the resample cap to the resamples already
    /// taken. Returns whether anything changed. Deterministic on resume:
    /// the cap is re-derived from the journaled fallback count, and the
    /// frozen `val_words`/`val_seed` live in the checkpoint snapshot.
    pub fn reduce_resampling(&mut self) -> bool {
        if self.cfg.max_resamples <= self.resamples {
            return false;
        }
        self.cfg.max_resamples = self.resamples;
        true
    }

    /// The final error the run should report: the measured error on the
    /// estimation patterns, or — in strict mode — the validation error
    /// recorded at the last commit, which the guard proved to be within
    /// the bound.
    pub fn final_error(&self, ctx: &Ctx) -> f64 {
        if self.cfg.enabled && self.cfg.strict {
            self.committed_val_error
        } else {
            ctx.error()
        }
    }

    /// Candidates not yet evicted by a rollback.
    pub fn admissible(&self, evals: &[Evaluated]) -> Vec<Evaluated> {
        evals
            .iter()
            .filter(|e| !self.evicted.contains(&(e.lac.target, e.lac.replacement().raw())))
            .cloned()
            .collect()
    }

    /// The working circuit's error on the validation set, built lazily
    /// (and rebuilt after each resample).
    fn validation_error(&mut self, ctx: &Ctx) -> f64 {
        if self.val.is_none() {
            let patterns =
                PatternSet::random(self.original.num_inputs(), self.val_words, self.val_seed);
            let sim = Simulator::new_with(&self.original, &patterns, ctx.pool());
            let golden: Vec<PackedBits> = (0..self.original.num_outputs())
                .map(|o| sim.output_value(&self.original, o))
                .collect();
            self.val = Some(ValSet { patterns, golden });
        }
        let vs = self.val.as_ref().expect("validation set just built");
        let sim = Simulator::new_with(&ctx.aig, &vs.patterns, ctx.pool());
        let outs: Vec<PackedBits> =
            (0..ctx.aig.num_outputs()).map(|o| sim.output_value(&ctx.aig, o)).collect();
        ErrorState::new(self.metric, self.weights.clone(), vs.golden.clone(), &outs).error()
    }

    /// Doubles the validation sample count and forces a redraw, up to
    /// [`GuardConfig::max_resamples`] times per run.
    fn resample(&mut self) {
        if self.resamples >= self.cfg.max_resamples {
            return;
        }
        self.resamples += 1;
        self.val_words *= 2;
        self.val_seed = self.val_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        self.val = None;
        self.stats.resamples += 1;
        self.metrics.resamples.inc();
    }

    /// Applies `eval` inside a transaction and re-measures before
    /// committing. Returns the edit records on commit, `None` after a
    /// rollback (the candidate is evicted and, in strict mode, the
    /// validation set grows).
    pub fn try_apply(
        &mut self,
        ctx: &mut Ctx,
        eval: &Evaluated,
    ) -> Result<Option<Vec<EditRecord>>, EngineError> {
        if !self.cfg.enabled {
            return Ok(Some(ctx.apply(&eval.lac)));
        }
        let records = ctx.apply_txn(&eval.lac);
        self.stats.validations += 1;
        self.metrics.validations.inc();
        let mut over = ctx.error() > threshold(self.bound);
        #[cfg(feature = "fault-inject")]
        {
            over = over || self.faults.take_forced_overshoot();
        }
        let mut val_error = None;
        if !over && self.cfg.strict {
            let e = self.validation_error(ctx);
            over = e > threshold(self.bound);
            val_error = Some(e);
        }
        if !over {
            ctx.commit_txn();
            if let Some(e) = val_error {
                self.committed_val_error = e;
            }
            return Ok(Some(records));
        }
        ctx.rollback(&records);
        self.stats.rollbacks += 1;
        self.metrics.rollbacks.inc();
        self.evicted.insert((eval.lac.target, eval.lac.replacement().raw()));
        self.stats.evictions += 1;
        self.metrics.evictions.inc();
        if self.cfg.strict {
            self.resample();
        }
        Ok(None)
    }

    /// Selects the best admissible candidate under `strategy`, applies it
    /// transactionally and commits once the exact re-measurement stays
    /// within the bound. Rolls back, evicts and retries on overshoot, up
    /// to [`GuardConfig::max_retries`] rollbacks; returns `Ok(None)` when
    /// no candidate survives (the iteration should stop, exactly as if
    /// selection had found nothing).
    ///
    /// `veto` sees each selected candidate and the current error before
    /// the candidate is applied; returning `true` stops the selection with
    /// `Ok(None)` (DP-SA's adaptive phase-two stop).
    pub fn select_apply(
        &mut self,
        ctx: &mut Ctx,
        evals: &[Evaluated],
        strategy: SelectionStrategy,
        mut veto: impl FnMut(&Evaluated, f64) -> bool,
    ) -> Result<Option<GuardedApply>, EngineError> {
        let mut rollbacks = 0;
        for _ in 0..=self.cfg.max_retries {
            let pool = self.admissible(evals);
            let Some(eval) = Ctx::select(&pool, self.bound, strategy, ctx.error()) else {
                return Ok(None);
            };
            if veto(&eval, ctx.error()) {
                return Ok(None);
            }
            match self.try_apply(ctx, &eval)? {
                Some(records) => return Ok(Some(GuardedApply { eval, records, rollbacks })),
                None => rollbacks += 1,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_lac::{Lac, LacKind};

    fn small() -> Aig {
        let mut aig = Aig::new("t");
        let x = aig.add_inputs("x", 4);
        let g1 = aig.and(x[0], x[1]);
        let g2 = aig.and(g1, x[2]);
        let g3 = aig.and(g2, x[3]);
        aig.add_output(g3, "o0");
        aig
    }

    fn cfg(bound: f64) -> FlowConfig {
        FlowConfig::new(MetricKind::Med, bound).with_patterns(256)
    }

    #[test]
    fn commits_within_budget_and_rolls_back_overshoot() {
        let aig = small();
        // Bound 0: only exact-equivalence rewrites may commit. Constant-0
        // on the top gate definitely overshoots.
        let cfg = cfg(0.0);
        let mut ctx = Ctx::new(&aig, &cfg);
        let mut guard = BudgetGuard::new(&aig, &cfg);
        let top = aig.iter_ands().last().unwrap();
        let bad = Lac { target: top, kind: LacKind::Const1 };
        let eval = Evaluated { lac: bad, error_after: 0.0, saving: 1 };
        let before = ctx.aig.num_ands();
        let res = guard.try_apply(&mut ctx, &eval).unwrap();
        assert!(res.is_none(), "overshooting LAC must not commit");
        assert_eq!(ctx.aig.num_ands(), before, "rollback restores the circuit");
        assert_eq!(ctx.error(), 0.0, "rollback restores the error state");
        assert_eq!(guard.stats().rollbacks, 1);
        assert_eq!(guard.stats().evictions, 1);
        // The evicted candidate is never offered again.
        assert!(guard.admissible(std::slice::from_ref(&eval)).is_empty());
    }

    #[test]
    fn disabled_guard_applies_directly() {
        let aig = small();
        let mut cfg = cfg(1e9);
        cfg.guard.enabled = false;
        let mut ctx = Ctx::new(&aig, &cfg);
        let mut guard = BudgetGuard::new(&aig, &cfg);
        let top = aig.iter_ands().last().unwrap();
        let lac = Lac { target: top, kind: LacKind::Const0 };
        let eval = Evaluated { lac, error_after: 0.0, saving: 1 };
        let res = guard.try_apply(&mut ctx, &eval).unwrap();
        assert!(res.is_some());
        assert_eq!(guard.stats().validations, 0, "no validation without the guard");
        assert!(!ctx.aig.in_txn(), "no transaction left open");
    }

    #[test]
    fn strict_mode_validates_on_independent_patterns() {
        let aig = small();
        let cfg = cfg(1e9).with_strict();
        let mut ctx = Ctx::new(&aig, &cfg);
        let mut guard = BudgetGuard::new(&aig, &cfg);
        let top = aig.iter_ands().last().unwrap();
        let lac = Lac { target: top, kind: LacKind::Const0 };
        let eval = Evaluated { lac, error_after: 0.0, saving: 1 };
        let res = guard.try_apply(&mut ctx, &eval).unwrap();
        assert!(res.is_some(), "generous bound commits");
        assert!(guard.final_error(&ctx) <= threshold(1e9));
        assert!(guard.final_error(&ctx) > 0.0, "validation measured the damage");
    }

    #[test]
    fn resample_grows_and_caps() {
        let aig = small();
        let mut cfg = cfg(0.5);
        cfg.guard.max_resamples = 2;
        let mut guard = BudgetGuard::new(&aig, &cfg);
        let w0 = guard.val_words;
        guard.resample();
        guard.resample();
        guard.resample(); // capped
        assert_eq!(guard.val_words, w0 * 4);
        assert_eq!(guard.stats().resamples, 2);
    }

    #[test]
    fn reduce_resampling_freezes_the_validation_set() {
        let aig = small();
        let cfg = cfg(0.5);
        let mut guard = BudgetGuard::new(&aig, &cfg);
        guard.resample();
        assert!(guard.reduce_resampling(), "cap lowered to resamples taken");
        assert!(!guard.reduce_resampling(), "second call is a no-op");
        let w = guard.val_words;
        guard.resample();
        assert_eq!(guard.val_words, w, "further resamples are frozen out");
    }
}
