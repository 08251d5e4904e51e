//! Area-delay product helpers.

use als_aig::Aig;

use crate::library::CellLibrary;
use crate::mapper::map_circuit;

/// Maps `aig` and returns its area-delay product.
pub fn adp(aig: &Aig, lib: &CellLibrary) -> f64 {
    map_circuit(aig, lib).adp()
}

/// The paper's quality measure: ADP of the approximate circuit over the
/// ADP of the original circuit (1.0 = no saving; smaller is better).
///
/// A degenerate original with zero ADP yields a ratio of 1.0.
pub fn adp_ratio(approx: &Aig, original: &Aig, lib: &CellLibrary) -> f64 {
    let orig = adp(original, lib);
    if orig == 0.0 {
        return 1.0;
    }
    adp(approx, lib) / orig
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_aig::{Aig, Lit};

    #[test]
    fn identical_circuits_have_ratio_one() {
        let mut aig = Aig::new("t");
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let g = aig.and(a, b);
        aig.add_output(g, "o");
        let lib = CellLibrary::new();
        assert!((adp_ratio(&aig, &aig, &lib) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn approximation_lowers_ratio() {
        let mut orig = Aig::new("orig");
        let xs = orig.add_inputs("x", 4);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = orig.xor(acc, x);
        }
        orig.add_output(acc, "o");
        // approximate: replace the whole parity by one input
        let mut approx = Aig::new("approx");
        let ys = approx.add_inputs("x", 4);
        approx.add_output(ys[0], "o");
        let lib = CellLibrary::new();
        let r = adp_ratio(&approx, &orig, &lib);
        assert!(r < 0.2, "ratio {r}");
    }

    #[test]
    fn zero_adp_original_defined() {
        let mut orig = Aig::new("z");
        orig.add_output(Lit::FALSE, "o");
        let lib = CellLibrary::new();
        assert_eq!(adp_ratio(&orig, &orig, &lib), 1.0);
    }
}
