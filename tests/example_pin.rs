//! Pins concrete simulation bit for bit.
//!
//! Two hashes per design, both 64-bit FNV-1a over text lines:
//!
//! * the positive-example set `generate_examples` builds for the safe set
//!   `classify` reports, with the default pair count and seed (one line per
//!   example, its state values in state order);
//! * the differential-test verdict for every default candidate (one line
//!   per candidate: the mnemonic, then the diverging cycle or `none`).
//!
//! The constants were recorded from a known-good build. A change that moves
//! one of them changed what the simulator computes, not only how fast.

use hh_suite::netlist::miter::Miter;
use hh_suite::uarch::boomlite::{boom_lite, BoomVariant};
use hh_suite::uarch::rocketlite::rocket_lite;
use hh_suite::uarch::Design;
use hh_suite::veloct::examples::{differential_test, generate_examples};
use hh_suite::veloct::{default_candidates, Veloct, VeloctConfig};

/// 64-bit FNV-1a over `lines`, each line terminated by `\n`.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.as_bytes().iter().chain(b"\n") {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The example count and hash of the default example set for `design`'s
/// classified safe set.
fn example_hash(design: &Design) -> (usize, u64) {
    let config = VeloctConfig {
        threads: 2,
        ..VeloctConfig::default()
    };
    let veloct = Veloct::with_config(design, config.clone());
    let safe = veloct.classify(&default_candidates()).safe;
    let (miter, _) = veloct.build_miter(&safe);
    let examples = generate_examples(design, &miter, &safe, config.pairs_per_instr, config.seed)
        .expect("the classified safe set generates examples");
    let lines: Vec<String> = examples
        .iter()
        .map(|s| {
            s.iter()
                .map(|(_, v)| format!("{:x}", v.bits()))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    (lines.len(), fnv1a(&lines))
}

/// The number of diverging candidates and the hash of every verdict.
fn difftest_hash(design: &Design) -> (usize, u64) {
    let miter = Miter::build(&design.netlist);
    let lines: Vec<String> = default_candidates()
        .into_iter()
        .map(|m| match differential_test(design, &miter, m) {
            Some(div) => format!("{m} {}", div.cycle),
            None => format!("{m} none"),
        })
        .collect();
    let diverging = lines.iter().filter(|l| !l.ends_with(" none")).count();
    (diverging, fnv1a(&lines))
}

#[test]
fn rocketlite_examples_are_pinned() {
    assert_eq!(
        example_hash(&rocket_lite(16)),
        (1143, 0x1efe_696c_8915_59dc)
    );
}

#[test]
fn small_boomlite_examples_are_pinned() {
    assert_eq!(
        example_hash(&boom_lite(BoomVariant::Small, 16)),
        (3310, 0x3c84_c9dc_895a_4534)
    );
}

#[test]
fn difftest_verdicts_are_pinned() {
    let designs = [
        rocket_lite(16),
        boom_lite(BoomVariant::Small, 16),
        boom_lite(BoomVariant::Large, 16),
    ];
    let got: Vec<(usize, u64)> = designs.iter().map(difftest_hash).collect();
    assert_eq!(
        got,
        vec![
            (6, 0x354b_1bd5_d75c_a982),
            (3, 0x493c_a6e9_9dcf_4a0e),
            (3, 0x493c_a6e9_9dcf_4a0e)
        ]
    );
}
