//! # hh-sim — cycle-accurate simulation and paired-trace generation
//!
//! Positive examples in VeloCT (paper §5.2) come from *concrete* executions:
//! a pair of traces that run the same instruction sequence but differ in
//! secret operand values. This crate provides the simulation machinery:
//!
//! * [`simulate`] — run a netlist for N cycles from a given initial state,
//! * [`Trace`] — the resulting state/input history, stored as flat rows,
//! * [`output_waveform`] — observe a signal over time (the attacker's view),
//! * [`product_states`] — zip a left and right trace into product states of a
//!   miter, which is the raw material for positive examples (Def. 4.8).
//!
//! Simulation pays only for cycles that change. The transition function `T`
//! is pure, so when cycle `c` starts from the same state as cycle `c - 1`
//! under the same inputs, `state(c + 1) = state(c)` without evaluation. The
//! ε-padded programs of example generation (§5.2) spend most of their cycles
//! in such fixed points; the `sim.steps` / `sim.skipped` trace counters
//! report the split once per [`simulate`] call.
//!
//! ```
//! use hh_netlist::{Netlist, Bv};
//! use hh_netlist::eval::{InputValues, StateValues};
//! use hh_sim::simulate;
//!
//! let mut n = Netlist::new("counter");
//! let c = n.state("c", 8, Bv::zero(8));
//! let cur = n.state_node(c);
//! let one = n.c(8, 1);
//! let nxt = n.add(cur, one);
//! n.set_next(c, nxt);
//!
//! let inputs = vec![InputValues::zeros(&n); 5];
//! let trace = hh_sim::simulate(&n, StateValues::initial(&n), &inputs);
//! assert_eq!(trace.value(5, c), Bv::new(8, 5));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use hh_netlist::eval::{Evaluator, InputValues, StateValues};
use hh_netlist::miter::{Miter, Side};
use hh_netlist::{Bv, Netlist, NodeId, StateId};

/// A finite execution stored as flat rows of `u64` words (one word per
/// element, truncated to its width). State row `i` is the state *entering*
/// cycle `i` (row 0 is the initial state); input row `i` holds the inputs
/// applied during cycle `i`. There is one more state row than input rows.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Width of each state element.
    widths: Vec<u32>,
    /// State rows, `cycles + 1` of them, back to back.
    states: Vec<u64>,
    /// Input rows, `cycles` of them, back to back.
    inputs: Vec<u64>,
    /// Number of primary inputs (the input row length).
    num_inputs: usize,
    /// Number of simulated cycles.
    cycles: usize,
}

impl Trace {
    /// Number of simulated cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The state row entering cycle `c` (`0..=cycles`).
    pub fn row(&self, c: usize) -> &[u64] {
        let n = self.widths.len();
        &self.states[c * n..(c + 1) * n]
    }

    /// The input row of cycle `c` (`0..cycles`).
    fn input_row(&self, c: usize) -> &[u64] {
        let n = self.num_inputs;
        &self.inputs[c * n..(c + 1) * n]
    }

    /// The value of state element `sid` entering cycle `c`.
    pub fn value(&self, c: usize, sid: StateId) -> Bv {
        Bv::new(self.widths[sid.index()], self.row(c)[sid.index()])
    }

    /// The whole state entering cycle `c`.
    pub fn state(&self, c: usize) -> StateValues {
        StateValues::from_vec(
            self.row(c)
                .iter()
                .zip(&self.widths)
                .map(|(&bits, &w)| Bv::new(w, bits))
                .collect(),
        )
    }

    /// Whether cycle `c` starts from the state and inputs of cycle `c - 1`,
    /// so that it computes exactly what that cycle computed.
    fn repeats(&self, c: usize) -> bool {
        c > 0 && self.input_row(c) == self.input_row(c - 1) && self.row(c) == self.row(c - 1)
    }
}

/// Runs `netlist` from `initial` applying `inputs` cycle by cycle.
///
/// A cycle that repeats its predecessor's state and inputs copies the
/// successor row instead of evaluating; the result is identical.
///
/// # Panics
///
/// Panics if `initial` does not cover the netlist's states, or if a cycle
/// must be evaluated and some state lacks a next function.
pub fn simulate(netlist: &Netlist, initial: StateValues, inputs: &[InputValues]) -> Trace {
    let n = netlist.num_states();
    assert_eq!(initial.len(), n, "state count mismatch");
    let mut trace = Trace {
        widths: netlist
            .state_ids()
            .map(|s| netlist.state_width(s))
            .collect(),
        states: Vec::with_capacity((inputs.len() + 1) * n),
        inputs: inputs.iter().flat_map(InputValues::bits).collect(),
        num_inputs: netlist.num_inputs(),
        cycles: inputs.len(),
    };
    trace.states.extend(initial.bits());
    let mut eval = Evaluator::new(netlist);
    let mut next = vec![0u64; n];
    let mut skipped = 0usize;
    for c in 0..inputs.len() {
        if trace.repeats(c) {
            trace.states.extend_from_within(c * n..(c + 1) * n);
            skipped += 1;
        } else {
            eval.step_into(trace.row(c), trace.input_row(c), &mut next);
            trace.states.extend_from_slice(&next);
        }
    }
    hh_trace::counter!("sim", "sim.steps", inputs.len() - skipped);
    hh_trace::counter!("sim", "sim.skipped", skipped);
    trace
}

/// The value of `node` during each cycle of `trace` (evaluated with that
/// cycle's pre-state and inputs) — the attacker-visible waveform when `node`
/// is an observable output. Repeated cycles reuse the previous value.
pub fn output_waveform(netlist: &Netlist, trace: &Trace, node: NodeId) -> Vec<Bv> {
    let width = netlist.width(node);
    let mut eval = Evaluator::new(netlist);
    let mut wave: Vec<Bv> = Vec::with_capacity(trace.cycles());
    for c in 0..trace.cycles() {
        let v = match wave.last() {
            Some(&prev) if trace.repeats(c) => prev,
            _ => Bv::new(
                width,
                eval.eval(trace.row(c), trace.input_row(c))[node.index()],
            ),
        };
        wave.push(v);
    }
    wave
}

/// The value of a *state element* at every point of the trace (length =
/// cycles + 1).
pub fn state_waveform(trace: &Trace, sid: StateId) -> Vec<Bv> {
    (0..=trace.cycles()).map(|c| trace.value(c, sid)).collect()
}

/// The product state of `miter` that assigns the base-design state rows
/// `left` to the `l$` states and `right` to the `r$` states.
pub fn product_state(miter: &Miter, left: &[u64], right: &[u64]) -> StateValues {
    let netlist = miter.netlist();
    let paired = 2 * miter.num_base_states();
    StateValues::from_vec(
        netlist
            .state_ids()
            .map(|p| {
                if p.index() >= paired {
                    return netlist.init_of(p);
                }
                let (base, side) = miter.origin(p);
                let row = match side {
                    Side::Left => left,
                    Side::Right => right,
                };
                Bv::new(netlist.state_width(p), row[base.index()])
            })
            .collect(),
    )
}

/// Zips two equal-length traces of the *base* design into product states of
/// the miter: cycle `i`'s product state assigns the left trace's values to
/// the `l$` states and the right trace's to the `r$` states.
///
/// # Panics
///
/// Panics if trace lengths differ (paper Def. 4.5 pads the shorter trace;
/// our generator always produces equal-length pairs by construction).
pub fn product_states(miter: &Miter, left: &Trace, right: &Trace) -> Vec<StateValues> {
    assert_eq!(
        left.cycles(),
        right.cycles(),
        "paired traces must have equal length"
    );
    (0..=left.cycles())
        .map(|c| product_state(miter, left.row(c), right.row(c)))
        .collect()
}

/// Convenience: simulate the pair `(left_init, right_init)` on the *same*
/// input sequence and return the product states (the raw positive-example
/// stream before masking/filtering).
pub fn simulate_pair(
    netlist: &Netlist,
    miter: &Miter,
    left_init: StateValues,
    right_init: StateValues,
    inputs: &[InputValues],
) -> (Trace, Trace, Vec<StateValues>) {
    let lt = simulate(netlist, left_init, inputs);
    let rt = simulate(netlist, right_init, inputs);
    let ps = product_states(miter, &lt, &rt);
    (lt, rt, ps)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// acc' = acc + in; out = acc.
    fn accumulator() -> Netlist {
        let mut n = Netlist::new("acc");
        let acc = n.state("acc", 8, Bv::zero(8));
        let i = n.input("i", 8);
        let cur = n.state_node(acc);
        let nxt = n.add(cur, i);
        n.set_next(acc, nxt);
        n.add_output("o", cur);
        n
    }

    fn drive(n: &Netlist, vals: &[u64]) -> Vec<InputValues> {
        vals.iter()
            .map(|&v| {
                let mut iv = InputValues::zeros(n);
                iv.set_by_name(n, "i", Bv::new(8, v));
                iv
            })
            .collect()
    }

    #[test]
    fn simulate_accumulates() {
        let n = accumulator();
        let acc = n.find_state("acc").unwrap();
        let inputs = drive(&n, &[1, 2, 3, 4]);
        let t = simulate(&n, StateValues::initial(&n), &inputs);
        assert_eq!(t.cycles(), 4);
        let wave = state_waveform(&t, acc);
        let got: Vec<u64> = wave.iter().map(|v| v.bits()).collect();
        assert_eq!(got, vec![0, 1, 3, 6, 10]);
    }

    #[test]
    fn output_waveform_sees_combinational_value() {
        let n = accumulator();
        let out = n.find_output("o").unwrap();
        let inputs = drive(&n, &[5, 5]);
        let t = simulate(&n, StateValues::initial(&n), &inputs);
        let wave = output_waveform(&n, &t, out);
        assert_eq!(
            wave.iter().map(|v| v.bits()).collect::<Vec<_>>(),
            vec![0, 5]
        );
    }

    #[test]
    fn product_states_assemble_both_sides() {
        let n = accumulator();
        let m = Miter::build(&n);
        let acc = n.find_state("acc").unwrap();
        let inputs = drive(&n, &[1, 1]);
        let mut li = StateValues::initial(&n);
        li.set(acc, Bv::new(8, 10));
        let mut ri = StateValues::initial(&n);
        ri.set(acc, Bv::new(8, 20));
        let (_, _, ps) = simulate_pair(&n, &m, li, ri, &inputs);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].get(m.left(acc)).bits(), 10);
        assert_eq!(ps[0].get(m.right(acc)).bits(), 20);
        assert_eq!(ps[2].get(m.left(acc)).bits(), 12);
        assert_eq!(ps[2].get(m.right(acc)).bits(), 22);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_traces_panic() {
        let n = accumulator();
        let m = Miter::build(&n);
        let t1 = simulate(&n, StateValues::initial(&n), &drive(&n, &[1]));
        let t2 = simulate(&n, StateValues::initial(&n), &drive(&n, &[1, 2]));
        product_states(&m, &t1, &t2);
    }
}
