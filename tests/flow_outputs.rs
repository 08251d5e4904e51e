//! Pinned outputs of the four deterministic flows.
//!
//! Each case runs conventional, VECBEE `l=1`, AccALS and DP on one reduced
//! benchmark at the paper's index-1 bound and compares three things with
//! pinned values: the FNV-1a digest of the final circuit's ASCII AIGER
//! text, the number of applied LACs and the bits of the final error. A
//! refactor must keep them; a change that moves an output on purpose
//! updates them and says why. DP-SA is left out because its self-adaption
//! follows wall-clock step times.
//!
//! Threads and scheduler come from the environment (`ALS_THREADS`,
//! `ALS_SCHED`), and `ALS_SIMD=0` switches evaluation to the reference
//! evaluator, so running this file under those settings checks that none
//! of them changes an output.

use dualphase_als::circuits::{benchmark, BenchmarkScale};
use dualphase_als::engine::{flows, journal, FlowConfig, FlowName};
use dualphase_als::error::{paper_thresholds, MetricKind};

/// The flows pinned here, in [`flows::FLOW_NAMES`] order.
const FLOWS: [FlowName; 4] = [FlowName::Conventional, FlowName::L1, FlowName::AccAls, FlowName::Dp];

/// Runs the four flows on `circuit` and compares each output with its
/// pinned `(digest, lacs, final_error bits)`.
fn check(circuit: &str, metric: MetricKind, patterns: usize, pinned: [(u64, usize, u64); 4]) {
    let original = benchmark(circuit, BenchmarkScale::Reduced);
    let bound = paper_thresholds(metric, original.num_outputs())[1];
    let cfg = FlowConfig::new(metric, bound).with_patterns(patterns).with_seed(11);
    let got: Vec<(u64, usize, u64)> = FLOWS
        .iter()
        .map(|&flow| {
            let res = flows::by_name(flow, cfg.clone()).unwrap().run(&original).unwrap();
            (
                journal::circuit_fingerprint(&res.circuit),
                res.lacs_applied(),
                res.final_error.to_bits(),
            )
        })
        .collect();
    let table: Vec<String> =
        got.iter().map(|(d, n, e)| format!("(0x{d:016x}, {n}, 0x{e:016x})")).collect();
    for ((flow, want), have) in FLOWS.iter().zip(pinned).zip(&got) {
        assert_eq!(
            *have,
            want,
            "{circuit}/{flow}: output moved; this run gives [{}]",
            table.join(", ")
        );
    }
}

#[test]
fn c880_under_mse() {
    check(
        "c880",
        MetricKind::Mse,
        1024,
        [
            (0x9d2c_32e8_2d71_69e2, 25, 0x4102_9000_0000_0000),
            (0x9d2c_32e8_2d71_69e2, 25, 0x4102_9000_0000_0000),
            (0x435a_e543_d271_5445, 17, 0x4103_da00_0000_0000),
            (0x9d2c_32e8_2d71_69e2, 25, 0x4102_9000_0000_0000),
        ],
    );
}

#[test]
fn adder_under_mse() {
    check(
        "adder",
        MetricKind::Mse,
        1024,
        [
            (0x5bde_f1a0_834f_6f47, 81, 0x4145_7258_e8e0_0000),
            (0xb48b_3104_5f8f_4f14, 79, 0x414b_01dc_e8e0_0000),
            (0xf13a_68ba_ea44_7708, 71, 0x4148_14f3_fe40_0000),
            (0x5bde_f1a0_834f_6f47, 81, 0x4145_7258_e8e0_0000),
        ],
    );
}

#[test]
fn c1908_under_er() {
    check(
        "c1908",
        MetricKind::Er,
        1024,
        [
            (0x2110_7991_a4f2_758d, 24, 0x3f84_0000_0000_0000),
            (0x2110_7991_a4f2_758d, 24, 0x3f84_0000_0000_0000),
            (0x3ff4_5743_288a_98d2, 24, 0x3f84_0000_0000_0000),
            (0x2110_7991_a4f2_758d, 24, 0x3f84_0000_0000_0000),
        ],
    );
}

#[test]
fn sm9x8_under_med() {
    check(
        "sm9x8",
        MetricKind::Med,
        256,
        [
            (0x671d_edbf_369c_6a02, 264, 0x4048_8080_0000_0000),
            (0x1617_883e_aab9_694b, 239, 0x4049_2380_0000_0000),
            (0x1a36_72bf_0dae_29f9, 208, 0x4049_0f80_0000_0000),
            (0x5b28_97b3_cd38_1c61, 238, 0x4049_2280_0000_0000),
        ],
    );
}
