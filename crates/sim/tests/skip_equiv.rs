//! The skipping simulator equals a step-by-step reference.
//!
//! `simulate` copies the successor row instead of evaluating when a cycle
//! repeats its predecessor's state and inputs, and `output_waveform` reuses
//! the previous value there. The reference below evaluates every cycle with
//! the `Bv` interpreter. Input streams are built from long runs of repeated
//! vectors, so both the skipping and the evaluating path are exercised.

#[path = "../../netlist/tests/support/mod.rs"]
mod support;

use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::{Bv, Netlist};
use hh_sim::{output_waveform, simulate, state_waveform};
use proptest::prelude::*;
use support::*;

/// Expands `(value, run)` pairs into a stream with each value repeated
/// `run % 12 + 1` times.
fn expand(runs: &[(u64, u8)]) -> Vec<u64> {
    runs.iter()
        .flat_map(|&(v, run)| std::iter::repeat_n(v, run as usize % 12 + 1))
        .collect()
}

/// Asserts row for row that `simulate` and `output_waveform` (for every
/// output) match the reference run of `n` from `init` under `inputs`.
fn assert_matches_reference(n: &Netlist, init: &StateValues, inputs: &[InputValues]) {
    let trace = simulate(n, init.clone(), inputs);
    assert_eq!(trace.cycles(), inputs.len());
    let mut states = vec![init.clone()];
    for iv in inputs {
        let next = oracle_step(n, states.last().unwrap(), iv);
        states.push(next);
    }
    for (c, expected) in states.iter().enumerate() {
        assert_eq!(&trace.state(c), expected, "state row {c}");
    }
    for sid in n.state_ids() {
        let expected: Vec<Bv> = states.iter().map(|s| s.get(sid)).collect();
        assert_eq!(state_waveform(&trace, sid), expected);
    }
    let values: Vec<Vec<Bv>> = inputs
        .iter()
        .zip(&states)
        .map(|(iv, s)| oracle_eval_all(n, s, iv))
        .collect();
    for (name, node) in n.outputs() {
        let expected: Vec<Bv> = values.iter().map(|v| v[node.index()]).collect();
        assert_eq!(output_waveform(n, &trace, *node), expected, "output {name}");
    }
}

/// A 4-bit counter that increments every cycle: no cycle ever repeats.
fn free_running_counter() -> Netlist {
    let mut n = Netlist::new("counter");
    let c = n.state("c", 4, Bv::zero(4));
    let cur = n.state_node(c);
    let one = n.c(4, 1);
    let nxt = n.add(cur, one);
    n.set_next(c, nxt);
    n.add_output("c", cur);
    n
}

/// A shift register fed by `in` plus a saturating 3-bit counter: under a
/// constant input both settle into a fixed point after a few cycles.
fn settling_design() -> Netlist {
    let mut n = Netlist::new("settle");
    let input = n.input("in", 8);
    let s0 = n.state("s0", 8, Bv::new(8, 0xa5));
    let s1 = n.state("s1", 8, Bv::new(8, 0x5a));
    let sat = n.state("sat", 3, Bv::zero(3));
    n.set_next(s0, input);
    let s0n = n.state_node(s0);
    n.set_next(s1, s0n);
    let cur = n.state_node(sat);
    let one = n.c(3, 1);
    let inc = n.add(cur, one);
    let full = n.eq_const(cur, 7);
    let nxt = n.ite(full, cur, inc);
    n.set_next(sat, nxt);
    let s1n = n.state_node(s1);
    let out = n.xor(s0n, s1n);
    n.add_output("x", out);
    n
}

fn drive_in(n: &Netlist, width: u32, vals: &[u64]) -> Vec<InputValues> {
    vals.iter()
        .map(|&v| {
            let mut iv = InputValues::zeros(n);
            iv.set_by_name(n, "in", Bv::new(width, v));
            iv
        })
        .collect()
}

#[test]
fn free_running_counter_matches_reference() {
    let n = free_running_counter();
    let inputs = vec![InputValues::zeros(&n); 40];
    assert_matches_reference(&n, &StateValues::initial(&n), &inputs);
}

#[test]
fn settling_design_matches_reference() {
    let n = settling_design();
    let vals = expand(&[(3, 11), (3, 11), (9, 0), (200, 7), (0, 11), (0, 5)]);
    assert_matches_reference(&n, &StateValues::initial(&n), &drive_in(&n, 8, &vals));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The netlist property tests' designs, under runs of repeated inputs.
    #[test]
    fn skipping_matches_reference_on_register_designs(
        recipes in arb_recipes(),
        runs in proptest::collection::vec((0u64..64, any::<u8>()), 1..8),
    ) {
        let n = build(&recipes);
        let inputs = drive(&n, &expand(&runs));
        assert_matches_reference(&n, &StateValues::initial(&n), &inputs);
    }

    /// Designs over every operator and widths up to 64 bits, from random
    /// states, under runs of repeated input vectors.
    #[test]
    fn skipping_matches_reference_on_wide_designs(
        steps in arb_wide_steps(),
        state_words in proptest::collection::vec(any::<u64>(), 10),
        runs in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..6),
    ) {
        let n = build_wide(&steps);
        let inputs: Vec<InputValues> = expand(&runs)
            .iter()
            .map(|&v| inputs_from(&n, &[v, v.rotate_left(17), !v]))
            .collect();
        assert_matches_reference(&n, &states_from(&n, &state_words), &inputs);
    }
}
