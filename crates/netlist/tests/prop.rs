//! Property tests for the netlist IR:
//!
//! * btor2 serialisation round-trips: a random design written to btor2 and
//!   re-parsed is cycle-equivalent to the original;
//! * miter soundness: with equal initial states and shared inputs, the two
//!   copies of a miter never diverge;
//! * COI completeness: every state whose value can influence a target's
//!   next value in one step is in the reported 1-step cone (Contract 1's
//!   `O_slice` requirement), validated by fault injection.

use hh_netlist::btor2::{parse_btor2, to_btor2};
use hh_netlist::coi::Coi;
use hh_netlist::eval::{step, InputValues, StateValues};
use hh_netlist::miter::Miter;
use hh_netlist::{Bv, Netlist};
use proptest::prelude::*;

const W: u32 = 6;
const NREGS: usize = 4;

#[derive(Debug, Clone)]
struct Recipe {
    op: u8,
    a: u8,
    b: u8,
    use_input: bool,
}

fn arb_recipes() -> impl Strategy<Value = Vec<Recipe>> {
    proptest::collection::vec(
        (0u8..9, any::<u8>(), any::<u8>(), any::<bool>()).prop_map(|(op, a, b, use_input)| {
            Recipe {
                op,
                a,
                b,
                use_input,
            }
        }),
        NREGS,
    )
}

fn build(recipes: &[Recipe]) -> Netlist {
    let mut n = Netlist::new("prop");
    let regs: Vec<_> = (0..NREGS)
        .map(|i| n.state(format!("r{i}"), W, Bv::new(W, i as u64 + 1)))
        .collect();
    let input = n.input("in", W);
    for (i, rec) in recipes.iter().enumerate() {
        let a = n.state_node(regs[rec.a as usize % NREGS]);
        let b = if rec.use_input {
            input
        } else {
            n.state_node(regs[rec.b as usize % NREGS])
        };
        let next = match rec.op {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            3 => n.add(a, b),
            4 => n.sub(a, b),
            5 => n.mul(a, b),
            6 => {
                let c = n.ult(a, b);
                let t = n.not(a);
                n.ite(c, t, b)
            }
            7 => {
                let amt = n.c(W, (rec.b % 5) as u64);
                n.shl(a, amt)
            }
            _ => a,
        };
        n.set_next(regs[i], next);
    }
    n.add_output("o", n.state_node(regs[0]));
    n
}

fn drive(n: &Netlist, vals: &[u64]) -> Vec<InputValues> {
    vals.iter()
        .map(|&v| {
            let mut iv = InputValues::zeros(n);
            iv.set_by_name(n, "in", Bv::new(W, v));
            iv
        })
        .collect()
}

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
}
