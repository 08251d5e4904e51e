//! Layer replay: one comprehensive iteration and one phase-two round of
//! the dual-phase flow, driven by the harness through the layers' public
//! functions, each call timed and its work counted. This is where the
//! per-call comparisons live: full versus incremental cuts, full versus
//! partial CPM, initial simulation versus apply-and-resimulate.

use std::collections::HashSet;
use std::time::Instant;

use als_aig::{Aig, NodeId};
use als_cuts::CutState;
use als_engine::{Ctx, FlowConfig};

use crate::stats::ratio;
use crate::Report;

/// Times (seconds) and work counts of replayed calls, summed over circuits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    /// `Ctx::new`: golden simulation and error state.
    pub sim_init_s: f64,
    /// `CutState::compute_with`.
    pub cuts_full_s: f64,
    /// `compute_full_with`.
    pub cpm_full_s: f64,
    /// Rows the full CPM built.
    pub cpm_full_rows: f64,
    /// `als_lac::generate`.
    pub generate_s: f64,
    /// `Ctx::evaluate_lacs`.
    pub eval_s: f64,
    /// LACs `evaluate_lacs` was given.
    pub eval_lacs: f64,
    /// `Ctx::apply` of the best candidate (edit + cone resimulation).
    pub apply_s: f64,
    /// `CutState::update_after` over the edit records.
    pub update_s: f64,
    /// `|S_v|` summed over those updates.
    pub sv_nodes: f64,
    /// `compute_partial_with` over the top-M candidate set.
    pub partial_s: f64,
    /// Rows the partial CPM built.
    pub partial_rows: f64,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

impl Replay {
    /// Replays one dual-phase iteration of `aig` under `cfg` and adds its
    /// timings and counts.
    pub fn add(&mut self, aig: &Aig, cfg: &FlowConfig) -> Result<(), String> {
        let mut ctx = timed(&mut self.sim_init_s, || Ctx::new(aig, cfg));
        let mut cuts =
            timed(&mut self.cuts_full_s, || CutState::compute_with(&ctx.aig, ctx.pool()))
                .map_err(|p| format!("cut computation panicked: {p:?}"))?;
        let cpm = timed(&mut self.cpm_full_s, || {
            als_cpm::compute_full_with(&ctx.aig, &ctx.sim, &cuts, ctx.pool())
        })
        .map_err(|e| format!("full CPM failed: {e}"))?;
        self.cpm_full_rows += cpm.num_rows() as f64;
        let lacs =
            timed(&mut self.generate_s, || als_lac::generate(&ctx.aig, &ctx.sim, &cfg.lac, None));
        self.eval_lacs += lacs.len() as f64;
        let evals = timed(&mut self.eval_s, || ctx.evaluate_lacs(&cpm, &lacs))
            .map_err(|e| format!("evaluation failed: {e}"))?;
        let Some(best) = Ctx::select_best(&evals, cfg.error_bound) else {
            return Ok(()); // nothing fits the bound: no phase two to replay
        };
        let mut s_cand: Vec<NodeId> = Ctx::rank_targets(&evals).into_iter().take(cfg.m).collect();
        let records = timed(&mut self.apply_s, || ctx.apply(&best.lac));
        let removed: HashSet<NodeId> =
            records.iter().flat_map(|r| r.removed.iter().copied()).collect();
        s_cand.retain(|n| !removed.contains(n) && ctx.aig.is_live(*n) && ctx.aig.node(*n).is_and());
        timed(&mut self.update_s, || {
            for rec in &records {
                cuts.update_after(&ctx.aig, rec);
                self.sv_nodes += cuts.last_update_size() as f64;
            }
        });
        let (pcpm, _closure) = timed(&mut self.partial_s, || {
            als_cpm::compute_partial_with(&ctx.aig, &ctx.sim, &cuts, &s_cand, ctx.pool())
        })
        .map_err(|e| format!("partial CPM failed: {e}"))?;
        self.partial_rows += pcpm.num_rows() as f64;
        Ok(())
    }

    /// Writes the replay's per-layer metrics.
    pub fn report(&self, r: &mut Report) {
        r.set("sim.init_ms", 1e3 * self.sim_init_s);
        r.set("sim.apply_resim_ms", 1e3 * self.apply_s);
        r.set("cuts.full_ms", 1e3 * self.cuts_full_s);
        r.set("cuts.update_us_per_sv_node", ratio(1e6 * self.update_s, self.sv_nodes));
        r.set("cpm.full_rows_per_ms", ratio(self.cpm_full_rows, 1e3 * self.cpm_full_s));
        r.set("cpm.partial_rows_per_ms", ratio(self.partial_rows, 1e3 * self.partial_s));
        r.set("lac.generate_ms", 1e3 * self.generate_s);
        r.set("eval.ns_per_lac", ratio(1e9 * self.eval_s, self.eval_lacs));
    }
}
