//! Concrete evaluation of a netlist: combinational evaluation and the 1-cycle
//! transition function `T`.
//!
//! [`Evaluator::new`] compiles a netlist once into a flat op tape over `u64`
//! words: operand indices, masks and shift amounts are resolved at compile
//! time, constants are preloaded into the value buffer, and state and input
//! nodes are loaded from flat rows (one word per element, in id order).
//! Nodes are created operands-first, so the node vector is a topological
//! order and one forward pass over the tape evaluates the whole design — no
//! recursion and no allocation per cycle. [`eval_all`] and [`step`] run on
//! the same evaluator; the [`Bv`] operations are its semantic specification.

use crate::bv::{mask, Bv};
use crate::netlist::{Netlist, NodeId, NodeOp, StateId};

/// A total assignment of values to the state elements of a netlist.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateValues(Vec<Bv>);

impl StateValues {
    /// The initial state `s0` of the netlist.
    pub fn initial(netlist: &Netlist) -> StateValues {
        StateValues(netlist.state_ids().map(|s| netlist.init_of(s)).collect())
    }

    /// Builds from a raw vector (one value per state, in state order).
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the state count (checked
    /// by the evaluator when used).
    pub fn from_vec(values: Vec<Bv>) -> StateValues {
        StateValues(values)
    }

    /// Value of a state element.
    pub fn get(&self, sid: StateId) -> Bv {
        self.0[sid.index()]
    }

    /// Overwrites the value of a state element.
    ///
    /// # Panics
    ///
    /// Panics if the width of `value` differs from the stored value's width.
    pub fn set(&mut self, sid: StateId, value: Bv) {
        assert_eq!(
            self.0[sid.index()].width(),
            value.width(),
            "state value width mismatch"
        );
        self.0[sid.index()] = value;
    }

    /// Number of state elements covered.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the assignment covers no states.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The values' bits in state order: a flat state row.
    pub fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|v| v.bits())
    }

    /// Builds from a flat row of `netlist`'s state values (in state order).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the state count.
    pub fn from_row(netlist: &Netlist, row: &[u64]) -> StateValues {
        assert_eq!(row.len(), netlist.num_states(), "state count mismatch");
        StateValues(
            netlist
                .state_ids()
                .zip(row)
                .map(|(s, &bits)| Bv::new(netlist.state_width(s), bits))
                .collect(),
        )
    }

    /// Iterates over `(StateId, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StateId, Bv)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &v)| (StateId::from_index(i), v))
    }
}

/// A total assignment of values to the primary inputs for one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputValues(Vec<Bv>);

impl InputValues {
    /// All-zero inputs of the right widths.
    pub fn zeros(netlist: &Netlist) -> InputValues {
        InputValues(
            netlist
                .input_ids()
                .map(|i| Bv::zero(netlist.input_width(i)))
                .collect(),
        )
    }

    /// Sets an input by name.
    ///
    /// # Panics
    ///
    /// Panics if the input does not exist or widths mismatch.
    pub fn set_by_name(&mut self, netlist: &Netlist, name: &str, value: Bv) {
        let idx = netlist
            .input_ids()
            .position(|i| netlist.input_name(i) == name)
            .unwrap_or_else(|| panic!("no input named {name}"));
        self.set(idx, value);
    }

    /// Sets input `i` (its position in [`Netlist::input_ids`]).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or widths mismatch.
    pub fn set(&mut self, i: usize, value: Bv) {
        assert_eq!(self.0[i].width(), value.width(), "input width mismatch");
        self.0[i] = value;
    }

    /// Value of input `i`.
    pub fn get(&self, i: usize) -> Bv {
        self.0[i]
    }

    /// The values' bits in input order: a flat input row.
    pub fn bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().map(|v| v.bits())
    }
}

/// One tape instruction: `values[dst] = op(values[..])`.
#[derive(Debug, Clone, Copy)]
struct Instr {
    dst: u32,
    op: Op,
}

/// A word-level operator with its operand slots and width-derived constants
/// precomputed. Operand values are always kept truncated to their width.
#[derive(Debug, Clone, Copy)]
enum Op {
    Not(u32, u64),
    Neg(u32, u64),
    RedOr(u32),
    RedAnd(u32, u64),
    RedXor(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Add(u32, u32, u64),
    Sub(u32, u32, u64),
    Mul(u32, u32, u64),
    Eq(u32, u32),
    Ult(u32, u32),
    /// Operands shifted left by `64 - width` compare as signed words.
    Slt(u32, u32, u32),
    /// `(a, amount, width, mask)`.
    Shl(u32, u32, u32, u64),
    /// `(a, amount, width)`.
    Lshr(u32, u32, u32),
    /// `(a, amount, 64 - width, mask)`: the operand sign-extended to 64
    /// bits, so any amount of 63 or more fills with the sign.
    Ashr(u32, u32, u32, u64),
    Ite(u32, u32, u32),
    /// `(hi, lo, width of lo)`.
    Concat(u32, u32, u32),
    /// `(a, lo, mask of the slice width)`.
    Slice(u32, u32, u64),
    Copy(u32),
    /// `(a, 64 - operand width, mask of the result width)`.
    Sext(u32, u32, u64),
}

/// A netlist compiled for concrete evaluation: a flat op tape over `u64`
/// words plus one reusable value buffer.
///
/// State and input values travel as flat rows: `row[i]` holds the bits of
/// state (or input) `i`, truncated to its width.
///
/// ```
/// use hh_netlist::{Netlist, Bv, eval::Evaluator};
///
/// let mut n = Netlist::new("counter");
/// let c = n.state("c", 4, Bv::zero(4));
/// let cur = n.state_node(c);
/// let one = n.c(4, 1);
/// let nxt = n.add(cur, one);
/// n.set_next(c, nxt);
///
/// let mut eval = Evaluator::new(&n);
/// let mut next = [0u64];
/// eval.step_into(&[15], &[], &mut next);
/// assert_eq!(next, [0]); // wraps at the state width
/// ```
#[derive(Debug, Clone)]
pub struct Evaluator {
    tape: Vec<Instr>,
    /// Node slot of each state, in state order.
    state_slots: Vec<u32>,
    /// Node slot of each input, in input order.
    input_slots: Vec<u32>,
    /// Next-state node slot of each state; `None` if some state has none.
    next_slots: Option<Vec<u32>>,
    /// Width of every node.
    widths: Vec<u32>,
    /// The value buffer, indexed by node; constants are preloaded.
    values: Vec<u64>,
}

impl Evaluator {
    /// Compiles `netlist`.
    pub fn new(netlist: &Netlist) -> Evaluator {
        let n = netlist.num_nodes();
        let mut tape = Vec::with_capacity(n);
        let mut state_slots = vec![0u32; netlist.num_states()];
        let mut input_slots = vec![0u32; netlist.num_inputs()];
        let mut widths = Vec::with_capacity(n);
        let mut values = vec![0u64; n];
        for (idx, id) in netlist.node_ids().enumerate() {
            let node = netlist.node(id);
            let w = node.width;
            let m = mask(w);
            let width_of = |id: NodeId| netlist.node(id).width;
            let op = match node.op {
                NodeOp::Input(i) => {
                    input_slots[i.index()] = idx as u32;
                    None
                }
                NodeOp::State(s) => {
                    state_slots[s.index()] = idx as u32;
                    None
                }
                NodeOp::Const(c) => {
                    values[idx] = c.bits();
                    None
                }
                NodeOp::Not(a) => Some(Op::Not(a.0, m)),
                NodeOp::Neg(a) => Some(Op::Neg(a.0, m)),
                NodeOp::RedOr(a) => Some(Op::RedOr(a.0)),
                NodeOp::RedAnd(a) => Some(Op::RedAnd(a.0, mask(width_of(a)))),
                NodeOp::RedXor(a) => Some(Op::RedXor(a.0)),
                NodeOp::And(a, b) => Some(Op::And(a.0, b.0)),
                NodeOp::Or(a, b) => Some(Op::Or(a.0, b.0)),
                NodeOp::Xor(a, b) => Some(Op::Xor(a.0, b.0)),
                NodeOp::Add(a, b) => Some(Op::Add(a.0, b.0, m)),
                NodeOp::Sub(a, b) => Some(Op::Sub(a.0, b.0, m)),
                NodeOp::Mul(a, b) => Some(Op::Mul(a.0, b.0, m)),
                NodeOp::Eq(a, b) => Some(Op::Eq(a.0, b.0)),
                NodeOp::Ult(a, b) => Some(Op::Ult(a.0, b.0)),
                NodeOp::Slt(a, b) => Some(Op::Slt(a.0, b.0, 64 - width_of(a))),
                NodeOp::Shl(a, b) => Some(Op::Shl(a.0, b.0, w, m)),
                NodeOp::Lshr(a, b) => Some(Op::Lshr(a.0, b.0, w)),
                NodeOp::Ashr(a, b) => Some(Op::Ashr(a.0, b.0, 64 - w, m)),
                NodeOp::Ite(c, t, e) => Some(Op::Ite(c.0, t.0, e.0)),
                NodeOp::Concat(a, b) => Some(Op::Concat(a.0, b.0, width_of(b))),
                NodeOp::Slice(a, _, lo) => Some(Op::Slice(a.0, lo, m)),
                NodeOp::Uext(a) => Some(Op::Copy(a.0)),
                NodeOp::Sext(a) => Some(Op::Sext(a.0, 64 - width_of(a), m)),
            };
            if let Some(op) = op {
                tape.push(Instr {
                    dst: idx as u32,
                    op,
                });
            }
            widths.push(w);
        }
        let next_slots = netlist
            .state_ids()
            .map(|s| netlist.try_next_of(s).map(|id| id.0))
            .collect();
        Evaluator {
            tape,
            state_slots,
            input_slots,
            next_slots,
            widths,
            values,
        }
    }

    /// Evaluates every node under the `state` and `inputs` rows and returns
    /// the value buffer, indexed by [`NodeId::index`].
    ///
    /// # Panics
    ///
    /// Panics if a row length does not match the netlist.
    pub fn eval(&mut self, state: &[u64], inputs: &[u64]) -> &[u64] {
        assert_eq!(state.len(), self.state_slots.len(), "state count mismatch");
        assert_eq!(inputs.len(), self.input_slots.len(), "input count mismatch");
        let v = &mut self.values;
        for (&slot, &bits) in self.state_slots.iter().zip(state) {
            v[slot as usize] = bits;
        }
        for (&slot, &bits) in self.input_slots.iter().zip(inputs) {
            v[slot as usize] = bits;
        }
        for instr in &self.tape {
            let r = |i: u32| v[i as usize];
            let result = match instr.op {
                Op::Not(a, m) => !r(a) & m,
                Op::Neg(a, m) => r(a).wrapping_neg() & m,
                Op::RedOr(a) => (r(a) != 0) as u64,
                Op::RedAnd(a, ones) => (r(a) == ones) as u64,
                Op::RedXor(a) => (r(a).count_ones() & 1) as u64,
                Op::And(a, b) => r(a) & r(b),
                Op::Or(a, b) => r(a) | r(b),
                Op::Xor(a, b) => r(a) ^ r(b),
                Op::Add(a, b, m) => r(a).wrapping_add(r(b)) & m,
                Op::Sub(a, b, m) => r(a).wrapping_sub(r(b)) & m,
                Op::Mul(a, b, m) => r(a).wrapping_mul(r(b)) & m,
                Op::Eq(a, b) => (r(a) == r(b)) as u64,
                Op::Ult(a, b) => (r(a) < r(b)) as u64,
                Op::Slt(a, b, up) => (((r(a) << up) as i64) < ((r(b) << up) as i64)) as u64,
                Op::Shl(a, b, w, m) => {
                    let sh = r(b);
                    if sh >= u64::from(w) {
                        0
                    } else {
                        (r(a) << sh) & m
                    }
                }
                Op::Lshr(a, b, w) => {
                    let sh = r(b);
                    if sh >= u64::from(w) {
                        0
                    } else {
                        r(a) >> sh
                    }
                }
                Op::Ashr(a, b, up, m) => ((((r(a) << up) as i64) >> up >> r(b).min(63)) as u64) & m,
                Op::Ite(c, t, e) => {
                    if r(c) != 0 {
                        r(t)
                    } else {
                        r(e)
                    }
                }
                Op::Concat(hi, lo, lo_w) => (r(hi) << lo_w) | r(lo),
                Op::Slice(a, lo, m) => (r(a) >> lo) & m,
                Op::Copy(a) => r(a),
                Op::Sext(a, up, m) => ((((r(a) << up) as i64) >> up) as u64) & m,
            };
            v[instr.dst as usize] = result;
        }
        &self.values
    }

    /// Applies the transition relation once: writes the successor of the
    /// `state` row under the `inputs` row into `next`.
    ///
    /// # Panics
    ///
    /// Panics if a row length does not match the netlist, or if some state
    /// lacks a next function.
    pub fn step_into(&mut self, state: &[u64], inputs: &[u64], next: &mut [u64]) {
        assert_eq!(next.len(), self.state_slots.len(), "state count mismatch");
        self.eval(state, inputs);
        let slots = self
            .next_slots
            .as_ref()
            .expect("every state needs a next function to step");
        for (out, &slot) in next.iter_mut().zip(slots) {
            *out = self.values[slot as usize];
        }
    }

    /// The value buffer of the last [`Evaluator::eval`] as [`Bv`]s.
    fn values_bv(&self) -> Vec<Bv> {
        self.values
            .iter()
            .zip(&self.widths)
            .map(|(&bits, &w)| Bv::new(w, bits))
            .collect()
    }
}

/// Evaluates every node of `netlist` under the given state and input values.
///
/// The result is indexed by [`NodeId::index`].
///
/// # Panics
///
/// Panics if the value vectors do not match the netlist's state/input counts.
pub fn eval_all(netlist: &Netlist, states: &StateValues, inputs: &InputValues) -> Vec<Bv> {
    let mut eval = Evaluator::new(netlist);
    let state: Vec<u64> = states.bits().collect();
    let inputs: Vec<u64> = inputs.bits().collect();
    eval.eval(&state, &inputs);
    eval.values_bv()
}

/// Evaluates a single node (by evaluating the full design; use
/// [`eval_all`] when several nodes are needed).
pub fn eval_node(
    netlist: &Netlist,
    node: NodeId,
    states: &StateValues,
    inputs: &InputValues,
) -> Bv {
    eval_all(netlist, states, inputs)[node.index()]
}

/// Applies the transition relation once: computes the successor state of
/// `states` under `inputs`.
///
/// # Panics
///
/// Panics if any state lacks a next function.
pub fn step(netlist: &Netlist, states: &StateValues, inputs: &InputValues) -> StateValues {
    netlist.assert_complete();
    let state: Vec<u64> = states.bits().collect();
    let inputs: Vec<u64> = inputs.bits().collect();
    let mut next = vec![0u64; netlist.num_states()];
    Evaluator::new(netlist).step_into(&state, &inputs, &mut next);
    StateValues::from_row(netlist, &next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bv::Bv;

    fn counter() -> (Netlist, StateId) {
        let mut n = Netlist::new("counter");
        let cnt = n.state("cnt", 4, Bv::zero(4));
        let en = n.input("en", 1);
        let cur = n.state_node(cnt);
        let one = n.c(4, 1);
        let inc = n.add(cur, one);
        let next = n.ite(en, inc, cur);
        n.set_next(cnt, next);
        (n, cnt)
    }

    #[test]
    fn counter_steps() {
        let (n, cnt) = counter();
        let mut s = StateValues::initial(&n);
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "en", Bv::bit(true));
        for i in 1..=20u64 {
            s = step(&n, &s, &inputs);
            assert_eq!(s.get(cnt).bits(), i % 16);
        }
    }

    #[test]
    fn counter_holds_when_disabled() {
        let (n, cnt) = counter();
        let mut s = StateValues::initial(&n);
        let inputs = InputValues::zeros(&n);
        s = step(&n, &s, &inputs);
        assert_eq!(s.get(cnt).bits(), 0);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut n = Netlist::new("t");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let sum = n.add(a, b);
        let prod = n.mul(a, b);
        let lt = n.ult(a, b);
        let sel = n.ite(lt, sum, prod);
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "a", Bv::new(8, 3));
        inputs.set_by_name(&n, "b", Bv::new(8, 5));
        let s = StateValues::initial(&n);
        let vals = eval_all(&n, &s, &inputs);
        assert_eq!(vals[sum.index()], Bv::new(8, 8));
        assert_eq!(vals[prod.index()], Bv::new(8, 15));
        assert!(vals[lt.index()].is_true());
        assert_eq!(vals[sel.index()], Bv::new(8, 8));
    }

    #[test]
    fn state_values_set_get() {
        let (n, cnt) = counter();
        let mut s = StateValues::initial(&n);
        s.set(cnt, Bv::new(4, 9));
        assert_eq!(s.get(cnt), Bv::new(4, 9));
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no input named")]
    fn unknown_input_panics() {
        let (n, _) = counter();
        let mut inputs = InputValues::zeros(&n);
        inputs.set_by_name(&n, "nonexistent", Bv::bit(true));
    }
}
