//! Off-clock checks of learned invariants.
//!
//! Every invariant an operation returns is checked after the measured
//! window, outside every timing: initiation on the reset state, the
//! property (`Eq` of every observable) among its predicates, and
//! consecution by one monolithic SMT query over the whole design. The
//! monolithic query is slow (about a second on LargeBoomLite), so each distinct
//! invariant is checked once per run and a rejection is charged to every
//! operation that returned it. The check runs on a freshly built miter:
//! miter construction is deterministic, so the predicates' state ids mean
//! the same states there as in the run that learned them.

use crate::expect::Tally;
use hh_isa::Mnemonic;
use hh_netlist::eval::StateValues;
use hh_smt::Predicate;
use hh_uarch::Design;
use hhoudini::Invariant;
use std::collections::BTreeMap;
use veloct::Veloct;

/// The distinct invariants of one run, each with the operations that
/// returned it.
#[derive(Debug)]
pub struct Checks<K: Ord> {
    seen: BTreeMap<(K, Vec<Mnemonic>, Vec<Predicate>), u64>,
}

impl<K: Ord + Clone> Checks<K> {
    /// No invariants yet.
    pub fn new() -> Checks<K> {
        Checks {
            seen: BTreeMap::new(),
        }
    }

    /// Records that `ops` operations on `design` with `safe` returned `inv`.
    pub fn add(&mut self, design: K, safe: &[Mnemonic], inv: &Invariant, ops: u64) {
        let key = (
            design,
            crate::expect::sorted(safe.to_vec()),
            inv.preds().to_vec(),
        );
        *self.seen.entry(key).or_insert(0) += ops;
    }

    /// Checks every distinct invariant, charging failures to `tally`.
    /// `build` makes the design a key names.
    pub fn run(
        &self,
        build: impl Fn(&K) -> Design,
        name: impl Fn(&K) -> String,
        tally: &mut Tally,
    ) {
        for ((key, safe, preds), &ops) in &self.seen {
            if let Err(e) = check_invariant(&build(key), safe, preds) {
                tally.fail(&format!("off-clock check on {}", name(key)), ops, &e);
            }
        }
    }

    /// Number of distinct invariants recorded.
    pub fn len(&self) -> usize {
        self.seen.len()
    }
}

/// Checks initiation, the property and consecution of the invariant
/// `preds` learned for `safe` on `design`.
pub fn check_invariant(
    design: &Design,
    safe: &[Mnemonic],
    preds: &[Predicate],
) -> Result<(), String> {
    let veloct = Veloct::new(design);
    let (miter, _) = veloct.build_miter(safe);
    let netlist = miter.netlist();
    let inv = Invariant::new(preds.to_vec());
    if let Some(p) = veloct.property(&miter).iter().find(|p| !inv.contains(p)) {
        return Err(format!("property {} missing", p.describe(netlist)));
    }
    if !inv.holds_on(&StateValues::initial(netlist)) {
        return Err("initiation: the reset state violates the invariant".to_string());
    }
    if !inv.verify_monolithic(netlist) {
        return Err("consecution: the invariant is not inductive".to_string());
    }
    Ok(())
}
