//! Property tests for the netlist IR:
//!
//! * btor2 serialisation round-trips: a random design written to btor2 and
//!   re-parsed is cycle-equivalent to the original;
//! * miter soundness: with equal initial states and shared inputs, the two
//!   copies of a miter never diverge;
//! * COI completeness: every state whose value can influence a target's
//!   next value in one step is in the reported 1-step cone (Contract 1's
//!   `O_slice` requirement), validated by fault injection;
//! * the compiled evaluator behind `eval_all`/`step` equals the `Bv`
//!   reference interpreter on every node, over every operator and widths
//!   up to 64 bits.

mod support;

use hh_netlist::btor2::{parse_btor2, to_btor2};
use hh_netlist::coi::Coi;
use hh_netlist::eval::{eval_all, step, StateValues};
use hh_netlist::miter::Miter;
use hh_netlist::{Bv, Netlist};
use proptest::prelude::*;
use support::*;

/// Applies token-level mutations to btor2 text: each `(line, token,
/// value, dup)` overwrites one token of one line with a small number, and
/// optionally appends a copy of the mutated line (a repeated id, name or
/// `next`). Keeps the line structure, so most mutants reach the builder.
fn mutate_btor2(text: &str, edits: &[(u16, u8, u8, bool)]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &(line, tok, value, dup) in edits {
        let i = line as usize % lines.len();
        let mut toks: Vec<String> = lines[i].split_whitespace().map(str::to_string).collect();
        let t = tok as usize % toks.len();
        toks[t] = (value % 40).to_string();
        lines[i] = toks.join(" ");
        if dup {
            lines.push(lines[i].clone());
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Untrusted btor2 never panics the reader: mutants of a valid design
    /// (wrong widths, repeated names and `next` lines, bad references)
    /// come back as `Ok` or as a `Btor2Error`.
    #[test]
    fn mutated_btor2_never_panics(
        recipes in arb_recipes(),
        edits in proptest::collection::vec(
            (any::<u16>(), any::<u8>(), any::<u8>(), any::<bool>()), 1..4),
    ) {
        let text = mutate_btor2(&to_btor2(&build(&recipes)), &edits);
        let _ = parse_btor2(&text);
    }

    /// btor2 round-trip preserves cycle behaviour.
    #[test]
    fn btor2_roundtrip_is_cycle_equivalent(
        recipes in arb_recipes(),
        inputs in proptest::collection::vec(0u64..64, 1..8),
    ) {
        let a = build(&recipes);
        let text = to_btor2(&a);
        let b = parse_btor2(&text).expect("own output parses");
        prop_assert_eq!(a.num_states(), b.num_states());

        let mut sa = StateValues::initial(&a);
        let mut sb = StateValues::initial(&b);
        let iva = drive(&a, &inputs);
        let ivb = drive(&b, &inputs);
        for (ia, ib) in iva.iter().zip(&ivb) {
            sa = step(&a, &sa, ia);
            sb = step(&b, &sb, ib);
        }
        for sid in a.state_ids() {
            let name = a.state_name(sid).to_string();
            let other = b.find_state(&name).expect("state preserved");
            prop_assert_eq!(sa.get(sid), sb.get(other), "state {} diverged", name);
        }
    }

    /// Miter copies with equal initial state and shared inputs stay equal.
    #[test]
    fn miter_copies_stay_equal_from_equal_states(
        recipes in arb_recipes(),
        inputs in proptest::collection::vec(0u64..64, 1..8),
    ) {
        let base = build(&recipes);
        let m = Miter::build(&base);
        let mut s = StateValues::initial(m.netlist());
        let ivs = drive(m.netlist(), &inputs);
        for iv in &ivs {
            s = step(m.netlist(), &s, iv);
            for b in m.base_state_ids() {
                prop_assert_eq!(s.get(m.left(b)), s.get(m.right(b)));
            }
        }
    }

    /// Fault-injection check of `O_slice` completeness: if flipping a source
    /// state's value changes some target state's next value (under any tried
    /// input), the source must be in the target's reported 1-step COI.
    #[test]
    fn coi_is_complete_under_fault_injection(
        recipes in arb_recipes(),
        base_vals in proptest::collection::vec(0u64..64, NREGS),
        input in 0u64..64,
        flip in 0usize..NREGS,
        flip_bit in 0u32..W,
    ) {
        let n = build(&recipes);
        let coi = Coi::new(&n);
        let mut s = StateValues::initial(&n);
        for (i, &v) in base_vals.iter().enumerate() {
            s.set(n.find_state(&format!("r{i}")).unwrap(), Bv::new(W, v));
        }
        let iv = drive(&n, &[input]).pop().unwrap();
        let next_a = step(&n, &s, &iv);

        // Flip one bit of one source register.
        let src = n.find_state(&format!("r{flip}")).unwrap();
        let mut s2 = s.clone();
        let flipped = Bv::new(W, s.get(src).bits() ^ (1 << flip_bit));
        s2.set(src, flipped);
        let next_b = step(&n, &s2, &iv);

        for t in n.state_ids() {
            if next_a.get(t) != next_b.get(t) {
                prop_assert!(
                    coi.states_of(t).contains(&src),
                    "state {} influenced {} but is not in its COI",
                    n.state_name(src),
                    n.state_name(t)
                );
            }
        }
    }

    /// The compiled evaluator agrees with the `Bv` reference on every node
    /// and on the successor state, for random designs, states and inputs.
    #[test]
    fn compiled_evaluator_matches_bv_reference(
        steps in arb_wide_steps(),
        state_words in proptest::collection::vec(any::<u64>(), 10),
        input_words in proptest::collection::vec(any::<u64>(), 5),
    ) {
        let n = build_wide(&steps);
        let s = states_from(&n, &state_words);
        let iv = inputs_from(&n, &input_words);
        prop_assert_eq!(eval_all(&n, &s, &iv), oracle_eval_all(&n, &s, &iv));
        prop_assert_eq!(step(&n, &s, &iv), oracle_step(&n, &s, &iv));
    }
}

/// The operator corners the random designs reach only sometimes, pinned
/// once: shifts by exactly and beyond the width, `Ashr` sign fill, `Slt` and
/// `Sext` at 1 and 64 bits, 64-bit arithmetic and 64-bit `Concat`s.
#[test]
fn evaluator_corners_match_bv_reference() {
    let mut n = Netlist::new("corners");
    let a64 = n.input("a64", 64);
    let b64 = n.input("b64", 64);
    let a32 = n.input("a32", 32);
    let b1 = n.input("b1", 1);
    let a63 = n.input("a63", 63);
    let amounts = [0, 1, 31, 32, 33, 63, 64, 65, 200, u64::MAX];
    for &amt in &amounts {
        for (a, w) in [(a64, 64), (a32, 32), (a63, 63)] {
            for aw in [8, 64] {
                let k = n.c(aw, amt);
                let shl = n.shl(a, k);
                let lshr = n.lshr(a, k);
                let ashr = n.ashr(a, k);
                n.add_output(format!("shl{w}_{aw}_{amt}"), shl);
                n.add_output(format!("lshr{w}_{aw}_{amt}"), lshr);
                n.add_output(format!("ashr{w}_{aw}_{amt}"), ashr);
            }
        }
    }
    let nodes = [
        n.slt(a64, b64),
        n.slt(b1, b1),
        n.ult(a64, b64),
        n.sext(b1, 64),
        n.sext(a32, 64),
        n.sext(a63, 64),
        n.uext(b1, 64),
        n.mul(a64, b64),
        n.add(a64, b64),
        n.sub(a32, a32),
        n.neg(a64),
        n.not(a63),
        n.redand(a64),
        n.redxor(a63),
        n.concat(a32, a32),
        n.concat(a63, b1),
        n.concat(b1, a63),
    ];
    for (k, &node) in nodes.iter().enumerate() {
        n.add_output(format!("o{k}"), node);
    }
    let patterns = [
        0u64,
        1,
        u64::MAX,
        1 << 63,
        (1 << 63) - 1,
        0x8000_0000,
        0xdead_beef_0bad_f00d,
    ];
    let s = StateValues::initial(&n);
    for &x in &patterns {
        for &y in &patterns {
            let iv = inputs_from(&n, &[x, y, x, y, x]);
            assert_eq!(
                eval_all(&n, &s, &iv),
                oracle_eval_all(&n, &s, &iv),
                "{x:#x} {y:#x}"
            );
        }
    }
}
