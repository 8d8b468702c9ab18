//! Shared by the netlist and simulator property tests: random-netlist
//! generators and the `Bv`-level reference evaluator.
//!
//! The reference evaluator interprets a netlist node by node with the [`Bv`]
//! operations, the semantic specification that the compiled
//! [`hh_netlist::eval::Evaluator`] must reproduce bit for bit.

#![allow(dead_code)] // each including test file uses a different subset

use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::{Bv, Netlist, NodeId, NodeOp};
use proptest::prelude::*;
use std::collections::BTreeMap;

pub const W: u32 = 6;
pub const NREGS: usize = 4;

#[derive(Debug, Clone)]
pub struct Recipe {
    op: u8,
    a: u8,
    b: u8,
    use_input: bool,
}

pub fn arb_recipes() -> impl Strategy<Value = Vec<Recipe>> {
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

/// A `NREGS`-register, `W`-bit design whose next functions follow
/// `recipes`; one input `in` and one output `o` (register 0).
pub fn build(recipes: &[Recipe]) -> Netlist {
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

/// One input vector per value, driving the `in` input.
pub fn drive(n: &Netlist, vals: &[u64]) -> Vec<InputValues> {
    vals.iter()
        .map(|&v| {
            let mut iv = InputValues::zeros(n);
            iv.set_by_name(n, "in", Bv::new(W, v));
            iv
        })
        .collect()
}

/// The state and input widths of [`build_wide`] designs.
pub const WIDE_WIDTHS: [u32; 5] = [1, 5, 32, 63, 64];

/// One construction step of [`build_wide`]: `(op, width pick, operand
/// pick, operand pick, payload)`.
pub type WideStep = (u8, u16, u16, u16, u64);

pub fn arb_wide_steps() -> impl Strategy<Value = Vec<WideStep>> {
    proptest::collection::vec(
        (
            0u8..24,
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u64>(),
        ),
        8..48,
    )
}

/// A random design over every operator and several widths up to 64 bits:
/// two states and one input per width of [`WIDE_WIDTHS`], then one node per
/// step. Shift amounts come from any width and include constants at and
/// beyond the shifted width; `Concat` pairs reach 64 bits; `Sext`/`Uext`
/// widen to any larger width. Each state's next function is the newest
/// node of its width, and every node built is an output.
pub fn build_wide(steps: &[WideStep]) -> Netlist {
    let mut n = Netlist::new("wide");
    let mut pool: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    let mut states = Vec::new();
    for (k, &w) in WIDE_WIDTHS.iter().enumerate() {
        for j in 0..2u32 {
            let init = 0x9e37_79b9_7f4a_7c15u64.rotate_left(7 * j + 13 * k as u32);
            let s = n.state(format!("s{w}_{j}"), w, Bv::new(w, init));
            states.push(s);
            pool.entry(w).or_default().push(n.state_node(s));
        }
        let i = n.input(format!("i{w}"), w);
        pool.entry(w).or_default().push(i);
    }
    for &(op, wp, x, y, payload) in steps {
        let widths: Vec<u32> = pool.keys().copied().collect();
        let w = widths[wp as usize % widths.len()];
        let of = |pool: &BTreeMap<u32, Vec<NodeId>>, w: u32, pick: u16| {
            let nodes = &pool[&w];
            nodes[pick as usize % nodes.len()]
        };
        let a = of(&pool, w, x);
        let b = of(&pool, w, y);
        let amount = |n: &mut Netlist, pool: &BTreeMap<u32, Vec<NodeId>>| {
            if payload & 1 == 1 {
                // A constant amount around the width: below, at and beyond.
                let aw = widths[(payload >> 1) as usize % widths.len()];
                n.c(aw, (payload >> 8) % (2 * u64::from(w) + 2))
            } else {
                let aw = widths[(payload >> 1) as usize % widths.len()];
                of(pool, aw, y)
            }
        };
        let node = match op {
            0 => n.not(a),
            1 => n.neg(a),
            2 => n.redor(a),
            3 => n.redand(a),
            4 => n.redxor(a),
            5 => n.and(a, b),
            6 => n.or(a, b),
            7 => n.xor(a, b),
            8 => n.add(a, b),
            9 => n.sub(a, b),
            10 => n.mul(a, b),
            11 => n.eq(a, b),
            12 => n.ult(a, b),
            13 => n.slt(a, b),
            14 => {
                let amt = amount(&mut n, &pool);
                n.shl(a, amt)
            }
            15 => {
                let amt = amount(&mut n, &pool);
                n.lshr(a, amt)
            }
            16 => {
                let amt = amount(&mut n, &pool);
                n.ashr(a, amt)
            }
            17 => {
                let c = of(&pool, 1, y);
                n.ite(c, a, b)
            }
            18 => {
                let lows: Vec<u32> = widths.iter().copied().filter(|&l| w + l <= 64).collect();
                match lows.get(payload as usize % lows.len().max(1)) {
                    Some(&l) => {
                        let lo = of(&pool, l, y);
                        n.concat(a, lo)
                    }
                    None => a,
                }
            }
            19 => {
                let lo = (payload % u64::from(w)) as u32;
                let hi = lo + ((payload >> 8) % u64::from(w - lo)) as u32;
                n.slice(a, hi, lo)
            }
            20 => {
                let to = w + (payload % u64::from(65 - w)) as u32;
                n.uext(a, to)
            }
            21 => {
                let to = w + (payload % u64::from(65 - w)) as u32;
                n.sext(a, to)
            }
            _ => n.c(w, payload),
        };
        let nw = n.width(node);
        pool.entry(nw).or_default().push(node);
    }
    for s in states {
        let w = n.state_width(s);
        let next = *pool[&w].last().expect("every width has a node");
        n.set_next(s, next);
    }
    let built: Vec<NodeId> = pool.values().flatten().copied().collect();
    for (k, node) in built.into_iter().enumerate() {
        n.add_output(format!("o{k}"), node);
    }
    n
}

/// A state assignment for `n` from raw words (each truncated to its width).
pub fn states_from(n: &Netlist, words: &[u64]) -> StateValues {
    StateValues::from_vec(
        n.state_ids()
            .zip(words.iter().cycle())
            .map(|(s, &v)| Bv::new(n.state_width(s), v))
            .collect(),
    )
}

/// An input assignment for `n` from raw words (each truncated to its width).
pub fn inputs_from(n: &Netlist, words: &[u64]) -> InputValues {
    let mut iv = InputValues::zeros(n);
    for (i, (id, &v)) in n.input_ids().zip(words.iter().cycle()).enumerate() {
        iv.set(i, Bv::new(n.input_width(id), v));
    }
    iv
}

/// Reference evaluation: every node of `netlist`, interpreted with the `Bv`
/// operations in node order.
pub fn oracle_eval_all(netlist: &Netlist, states: &StateValues, inputs: &InputValues) -> Vec<Bv> {
    let mut values: Vec<Bv> = Vec::with_capacity(netlist.num_nodes());
    for id in netlist.node_ids() {
        let node = netlist.node(id);
        let v = |id: NodeId| values[id.index()];
        let result = match node.op {
            NodeOp::Input(i) => inputs.get(i.index()),
            NodeOp::State(s) => states.get(s),
            NodeOp::Const(c) => c,
            NodeOp::Not(a) => v(a).not(),
            NodeOp::Neg(a) => v(a).wrapping_neg(),
            NodeOp::RedOr(a) => v(a).redor(),
            NodeOp::RedAnd(a) => v(a).redand(),
            NodeOp::RedXor(a) => v(a).redxor(),
            NodeOp::And(a, b) => v(a).and(v(b)),
            NodeOp::Or(a, b) => v(a).or(v(b)),
            NodeOp::Xor(a, b) => v(a).xor(v(b)),
            NodeOp::Add(a, b) => v(a).wrapping_add(v(b)),
            NodeOp::Sub(a, b) => v(a).wrapping_sub(v(b)),
            NodeOp::Mul(a, b) => v(a).wrapping_mul(v(b)),
            NodeOp::Eq(a, b) => v(a).eq_bit(v(b)),
            NodeOp::Ult(a, b) => v(a).ult(v(b)),
            NodeOp::Slt(a, b) => v(a).slt(v(b)),
            NodeOp::Shl(a, b) => v(a).shl(v(b)),
            NodeOp::Lshr(a, b) => v(a).lshr(v(b)),
            NodeOp::Ashr(a, b) => v(a).ashr(v(b)),
            NodeOp::Ite(c, t, e) => {
                if v(c).is_true() {
                    v(t)
                } else {
                    v(e)
                }
            }
            NodeOp::Concat(a, b) => v(a).concat(v(b)),
            NodeOp::Slice(a, hi, lo) => v(a).slice(hi, lo),
            NodeOp::Uext(a) => v(a).uext(node.width),
            NodeOp::Sext(a) => v(a).sext(node.width),
        };
        assert_eq!(result.width(), node.width, "oracle width bug");
        values.push(result);
    }
    values
}

/// Reference transition: the successor state by [`oracle_eval_all`].
pub fn oracle_step(netlist: &Netlist, states: &StateValues, inputs: &InputValues) -> StateValues {
    let values = oracle_eval_all(netlist, states, inputs);
    StateValues::from_vec(
        netlist
            .state_ids()
            .map(|s| values[netlist.next_of(s).index()])
            .collect(),
    )
}
