//! `simulate` reports its evaluated and skipped cycles as the `sim.steps`
//! and `sim.skipped` trace counters. Tracing is process-global, so this
//! file holds a single test.

use hh_netlist::eval::{InputValues, StateValues};
use hh_netlist::{Bv, Netlist};
use hh_sim::simulate;
use hh_trace::TraceConfig;

#[test]
fn steps_and_skips_are_counted_once_per_run() {
    // A free-running counter never repeats a cycle.
    let mut counter = Netlist::new("counter");
    let c = counter.state("c", 4, Bv::zero(4));
    let cur = counter.state_node(c);
    let one = counter.c(4, 1);
    let nxt = counter.add(cur, one);
    counter.set_next(c, nxt);
    // A register that loads its input reaches a fixed point one cycle
    // after the input settles.
    let mut latch = Netlist::new("latch");
    let input = latch.input("in", 8);
    let r = latch.state("r", 8, Bv::new(8, 1));
    latch.set_next(r, input);

    hh_trace::init(TraceConfig::on());
    simulate(
        &counter,
        StateValues::initial(&counter),
        &vec![InputValues::zeros(&counter); 20],
    );
    let totals = hh_trace::drain().counter_totals();
    assert_eq!(totals.get("sim.steps"), Some(&20));
    assert_eq!(
        totals.get("sim.skipped"),
        None,
        "zero deltas are not recorded"
    );

    hh_trace::init(TraceConfig::on());
    // Cycle 0 loads 0, cycle 1 sees a new state, cycles 2..10 repeat.
    simulate(
        &latch,
        StateValues::initial(&latch),
        &vec![InputValues::zeros(&latch); 10],
    );
    let trace = hh_trace::drain();
    let totals = trace.counter_totals();
    assert_eq!(totals.get("sim.steps"), Some(&2));
    assert_eq!(totals.get("sim.skipped"), Some(&8));
    let records = trace
        .events
        .iter()
        .filter(|e| e.name.starts_with("sim."))
        .count();
    assert_eq!(records, 2, "one record per counter per run");
    hh_trace::init(TraceConfig::Off);
}
