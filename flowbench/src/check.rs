//! Independent output check.
//!
//! A deliberately naive evaluator: one pattern at a time, one `bool` per
//! node, in an order found by its own depth-first search. It shares no
//! code with `Simulator` or the word kernels, so a bug there cannot hide
//! the same bug here. Every synthesis result the benchmark produces is
//! re-measured with it on the run's own pattern set.

use als_aig::{Aig, Lit, NodeId, NodeKind};
use als_error::MetricKind;
use als_sim::PatternSet;

/// The three error metrics of one approximate circuit against its
/// original, over one pattern set.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Errors {
    /// Share of patterns on which any output differs.
    pub er: f64,
    /// Mean absolute weighted error (output `o` weighs `2^o`).
    pub med: f64,
    /// Mean squared weighted error.
    pub mse: f64,
}

impl Errors {
    /// The value of `metric`.
    pub fn get(&self, metric: MetricKind) -> f64 {
        match metric {
            MetricKind::Er => self.er,
            MetricKind::Med => self.med,
            MetricKind::Mse => self.mse,
        }
    }
}

/// A circuit prepared for per-pattern evaluation: its AND gates in an
/// order where every gate follows its fanins.
struct Naive<'a> {
    aig: &'a Aig,
    order: Vec<NodeId>,
    values: Vec<bool>,
}

impl<'a> Naive<'a> {
    fn new(aig: &'a Aig) -> Naive<'a> {
        let mut order = Vec::new();
        let mut state = vec![0u8; aig.num_nodes()]; // 0 new, 1 open, 2 done
        for out in aig.outputs() {
            let mut stack = vec![out.lit.node()];
            while let Some(&n) = stack.last() {
                let node = aig.node(n);
                if state[n.index()] == 2 || node.kind() != NodeKind::And {
                    state[n.index()] = 2;
                    stack.pop();
                    continue;
                }
                if state[n.index()] == 0 {
                    state[n.index()] = 1;
                    for f in node.fanins() {
                        if state[f.node().index()] == 0 {
                            stack.push(f.node());
                        }
                    }
                } else {
                    state[n.index()] = 2;
                    order.push(n);
                    stack.pop();
                }
            }
        }
        Naive { aig, order, values: vec![false; aig.num_nodes()] }
    }

    fn lit(&self, l: Lit) -> bool {
        self.values[l.node().index()] != l.is_complement()
    }

    fn outputs(&mut self, pattern: &[bool]) -> Vec<bool> {
        for (i, &pi) in self.aig.inputs().iter().enumerate() {
            self.values[pi.index()] = pattern[i];
        }
        for k in 0..self.order.len() {
            let n = self.order[k];
            let [a, b] = self.aig.node(n).fanins();
            self.values[n.index()] = self.lit(a) && self.lit(b);
        }
        self.aig.outputs().iter().map(|o| self.lit(o.lit)).collect()
    }
}

/// ER, MED and MSE of `approx` against `original` on every pattern of
/// `patterns`.
pub fn measure(original: &Aig, approx: &Aig, patterns: &PatternSet) -> Errors {
    let mut golden = Naive::new(original);
    let mut test = Naive::new(approx);
    let (mut wrong, mut abs_sum, mut sq_sum) = (0usize, 0.0f64, 0.0f64);
    for p in 0..patterns.num_patterns() {
        let pattern = patterns.pattern(p);
        let e = golden.outputs(&pattern);
        let a = test.outputs(&pattern);
        let mut err = 0.0f64;
        let mut differs = false;
        for (o, (&ev, &av)) in e.iter().zip(&a).enumerate() {
            if ev != av {
                differs = true;
                let w = (o as f64).exp2();
                if ev {
                    err -= w;
                } else {
                    err += w;
                }
            }
        }
        wrong += usize::from(differs);
        abs_sum += err.abs();
        sq_sum += err * err;
    }
    let n = patterns.num_patterns() as f64;
    Errors { er: wrong as f64 / n, med: abs_sum / n, mse: sq_sum / n }
}

/// What a synthesis run claims about its result.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Metric the bound applies to.
    pub metric: MetricKind,
    /// The error bound the run was given.
    pub bound: f64,
    /// The error the run reported for its final circuit.
    pub reported: f64,
    /// Monte-Carlo pattern count of the run.
    pub num_patterns: usize,
    /// Pattern seed of the run.
    pub seed: u64,
}

/// Checks a result: the circuit is structurally sound, keeps the
/// original's interface, its error recomputed on the run's own patterns
/// equals the reported error to 1e-9 relative, and it is within the bound.
pub fn verify(original: &Aig, approx: &Aig, claim: &Claim) -> Result<(), String> {
    als_aig::check::check(approx).map_err(|e| format!("structural check failed: {e}"))?;
    if (approx.num_inputs(), approx.num_outputs())
        != (original.num_inputs(), original.num_outputs())
    {
        return Err("the result changed the circuit's interface".into());
    }
    let patterns =
        PatternSet::random(original.num_inputs(), claim.num_patterns.div_ceil(64), claim.seed)
            .with_pattern_count(claim.num_patterns);
    let value = measure(original, approx, &patterns).get(claim.metric);
    let scale = value.abs().max(claim.reported.abs());
    if (value - claim.reported).abs() > 1e-9 * scale {
        return Err(format!(
            "recomputed {} {value} but the run reported {}",
            claim.metric, claim.reported
        ));
    }
    if value > claim.bound * (1.0 + 1e-9) {
        return Err(format!("{} {value} exceeds the bound {}", claim.metric, claim.bound));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SplitMix;
    use als_error::{unsigned_weights, ErrorState};
    use als_sim::{PackedBits, Simulator};

    fn random_aig(rng: &mut SplitMix, inputs: usize, gates: usize, outputs: usize) -> Aig {
        let mut aig = Aig::new("r");
        let mut lits = aig.add_inputs("x", inputs);
        for _ in 0..gates {
            let a = lits[rng.below(lits.len())].xor_complement(rng.below(2) == 1);
            let b = lits[rng.below(lits.len())].xor_complement(rng.below(2) == 1);
            lits.push(aig.and(a, b));
        }
        for o in 0..outputs {
            let l = lits[rng.below(lits.len())].xor_complement(rng.below(2) == 1);
            aig.add_output(l, format!("o{o}"));
        }
        aig
    }

    fn reference(original: &Aig, approx: &Aig, patterns: &PatternSet) -> ErrorState {
        let golden = Simulator::new(original, patterns);
        let test = Simulator::new(approx, patterns);
        let k = original.num_outputs();
        let exact: Vec<PackedBits> = (0..k).map(|o| golden.output_value(original, o)).collect();
        let approx_vals: Vec<PackedBits> = (0..k).map(|o| test.output_value(approx, o)).collect();
        ErrorState::with_pattern_count(
            MetricKind::Mse,
            unsigned_weights(k),
            exact,
            &approx_vals,
            patterns.num_patterns(),
        )
    }

    #[test]
    fn naive_evaluator_matches_simulator_on_random_circuits() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        for seed in 0..24u64 {
            let mut rng = SplitMix::new(seed);
            let inputs = 6 + rng.below(6);
            let outputs = 1 + rng.below(9);
            let (g1, g2) = (10 + rng.below(60), 10 + rng.below(60));
            let original = random_aig(&mut rng, inputs, g1, outputs);
            let approx = random_aig(&mut rng, inputs, g2, outputs);
            let count = 64 + rng.below(300);
            let patterns =
                PatternSet::random(inputs, count.div_ceil(64), seed).with_pattern_count(count);
            let naive = measure(&original, &approx, &patterns);
            let state = reference(&original, &approx, &patterns);
            assert!(close(naive.er, state.er()), "seed {seed}: ER {} vs {}", naive.er, state.er());
            assert!(
                close(naive.med, state.med()),
                "seed {seed}: MED {} vs {}",
                naive.med,
                state.med()
            );
            assert!(
                close(naive.mse, state.mse()),
                "seed {seed}: MSE {} vs {}",
                naive.mse,
                state.mse()
            );
            assert_eq!(
                measure(&original, &original, &patterns),
                Errors { er: 0.0, med: 0.0, mse: 0.0 }
            );
        }
    }

    /// A ripple-carry adder; `swap` exchanges its two low sum outputs, an
    /// approximation that keeps every gate in use.
    fn adder(width: usize, swap: bool) -> Aig {
        let mut aig = Aig::new("adder");
        let a = aig.add_inputs("a", width);
        let b = aig.add_inputs("b", width);
        let mut carry = Lit::FALSE;
        let mut sums = Vec::new();
        for i in 0..width {
            let (s, c) = aig.full_adder(a[i], b[i], carry);
            sums.push(s);
            carry = c;
        }
        sums.push(carry);
        if swap {
            sums.swap(0, 1);
        }
        for (i, s) in sums.into_iter().enumerate() {
            aig.add_output(s, format!("s{i}"));
        }
        aig
    }

    #[test]
    fn verify_rejects_a_misreported_error_or_a_broken_bound() {
        let (original, approx) = (adder(4, false), adder(4, true));
        let patterns = PatternSet::random(8, 4, 11).with_pattern_count(256);
        let med = measure(&original, &approx, &patterns).med;
        assert!(med > 0.0);
        let claim = Claim {
            metric: MetricKind::Med,
            bound: med,
            reported: med,
            num_patterns: 256,
            seed: 11,
        };
        assert_eq!(verify(&original, &approx, &claim), Ok(()));
        assert!(
            verify(&original, &approx, &Claim { reported: med * 1.001, ..claim.clone() }).is_err()
        );
        assert!(verify(&original, &approx, &Claim { bound: med * 0.99, ..claim }).is_err());
    }
}
