//! Transaction flight recorder tour: run the paper's Appendix A scenario
//! under Fabric++ with tracing enabled, then dump the recorded lifecycle
//! through each exporter (JSONL, Chrome trace-event, Prometheus text).
//!
//! ```text
//! cargo run --example trace_dump
//! ```
//!
//! Pipe the Chrome document into a file and load it at
//! <https://ui.perfetto.dev> to see the per-block timeline.

use std::sync::Arc;

use fabricpp_suite::chaos::{ChaosNet, ChaosOptions, FaultPlan, ProposeOutcome};
use fabricpp_suite::common::{Key, PhaseSummary, PipelineConfig, Value};
use fabricpp_suite::fabric::chaincode_fn;
use fabricpp_suite::trace::{chrome, jsonl, prom, TraceSink};

fn transfer_chaincode() -> Arc<dyn fabricpp_suite::peer::chaincode::Chaincode> {
    chaincode_fn("transfer", |ctx, args| {
        let amount = i64::from_le_bytes(args.try_into().map_err(|_| "bad args")?);
        let bal_a = ctx
            .get_i64(&Key::from("BalA"))
            .map_err(|e| e.to_string())?
            .ok_or("no BalA")?;
        let bal_b = ctx
            .get_i64(&Key::from("BalB"))
            .map_err(|e| e.to_string())?
            .ok_or("no BalB")?;
        ctx.put_i64(Key::from("BalA"), bal_a - amount);
        ctx.put_i64(Key::from("BalB"), bal_b + amount);
        Ok(())
    })
}

fn main() {
    // A bounded ring: ample for this run, drop-oldest beyond that.
    let sink = TraceSink::bounded(4096);
    let genesis = vec![
        (Key::from("BalA"), Value::from_i64(100)),
        (Key::from("BalB"), Value::from_i64(50)),
    ];
    let mut net = ChaosNet::with_options(
        &PipelineConfig::fabric_pp(),
        2,
        2,
        vec![transfer_chaincode()],
        &genesis,
        FaultPlan::quiescent(0),
        ChaosOptions { sink: sink.clone(), ..ChaosOptions::default() },
    )
    .expect("network");

    // Two conflicting transfers simulated against the same snapshot: both
    // read and write {BalA, BalB}, a two-cycle the reorderer cannot
    // serialize — Fabric++ early-aborts one at ORDER time instead of
    // shipping it to every peer only to fail validation.
    let t7 = match net.propose(1, "transfer", 30i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    let t9 = match net.propose(3, "transfer", 50i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    let (t7_id, t9_id) = (t7.id, t9.id);
    net.submit(t7);
    net.submit(t9);
    net.cut_block().expect("commit").expect("block");

    // A second, conflict-free block so the trace shows a clean commit too.
    let t10 = match net.propose(2, "transfer", 5i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    let t10_id = t10.id;
    net.submit(t10);
    net.cut_block().expect("commit").expect("block");

    let stats = net.stats();
    let store = net.reporting_peer().store().counters().snapshot();
    let report = sink.report();

    println!("== flight recorder ==");
    println!(
        "{} events retained ({} emitted, {} dropped, capacity {})\n",
        report.len(),
        report.emitted,
        report.dropped,
        report.capacity
    );

    println!("== per-transaction lifecycles ==");
    for (name, id) in [("T7", t7_id), ("T9", t9_id), ("T10", t10_id)] {
        println!("{name} ({id}):");
        for ev in report.lifecycle(id) {
            println!("  {}", jsonl::event_to_line(ev));
        }
    }

    println!("\n== JSONL dump (machine-readable, one event per line) ==");
    print!("{}", jsonl::to_string(&report.events));

    println!("\n== Chrome trace-event document (load at ui.perfetto.dev) ==");
    let doc = chrome::to_string(&report.events);
    for line in doc.lines().take(6) {
        println!("{line}");
    }
    println!("... ({} bytes total)", doc.len());

    println!("\n== Prometheus text exposition ==");
    print!("{}", prom::render(&stats, &store, &PhaseSummary::default(), &sink));
}
