//! Pins the learned invariants bit for bit.
//!
//! Each case runs the full `Veloct::classify` pipeline with the default
//! configuration at one thread count and hashes the safe set plus the
//! sorted predicate strings with FNV-1a. The constants were recorded from
//! a known-good build; a change that moves any of them changed what the
//! system learns, not only how fast it learns it.

use hh_suite::uarch::boomlite::{boom_lite, BoomVariant};
use hh_suite::uarch::rocketlite::rocket_lite;
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

/// Learns `design` at `threads` and hashes the safe set and the invariant.
fn invariant_hash(design: &hh_suite::uarch::Design, threads: usize) -> (usize, u64) {
    let config = VeloctConfig {
        threads,
        ..VeloctConfig::default()
    };
    let report = Veloct::with_config(design, config).classify(&default_candidates());
    let inv = report.invariant.expect("the safe set has an invariant");
    let mut lines: Vec<String> = report.safe.iter().map(|m| format!("safe {m}")).collect();
    let mut preds: Vec<String> = inv.preds().iter().map(|p| format!("{p:?}")).collect();
    preds.sort();
    lines.extend(preds);
    (inv.len(), fnv1a(&lines))
}

#[test]
fn rocketlite_invariant_is_pinned() {
    let design = rocket_lite(16);
    for threads in [1, 2] {
        assert_eq!(
            invariant_hash(&design, threads),
            (3, 0x5b85_214d_7662_f323),
            "RocketLite invariant moved at {threads} thread(s)"
        );
    }
}

#[test]
fn small_boomlite_invariant_is_pinned() {
    let design = boom_lite(BoomVariant::Small, 16);
    for threads in [1, 2] {
        assert_eq!(
            invariant_hash(&design, threads),
            (59, 0xd218_a181_eac4_52fb),
            "SmallBoomLite invariant moved at {threads} thread(s)"
        );
    }
}
