//! The paper's Section 2 motivating example: a wheel graph has diameter 2,
//! but its rim — a single part — has induced diameter Θ(n). Part-wise
//! aggregation inside the part alone needs Θ(n) rounds; with a shortcut
//! through the hub it needs O(1)·D.
//!
//! Both sides run the same echo over the same topology: a
//! `ShortcutSession` builds the real shortcut, and the strawman is the
//! explicit-artifact call `AggregateOp::run_on` over the empty shortcut.
//!
//! Run with: `cargo run --release --example wheel_aggregation`

use low_congestion_shortcuts::congest::SimConfig;
use low_congestion_shortcuts::facade::AggregateOp;
use low_congestion_shortcuts::prelude::*;

fn main() {
    println!(
        "{:>6} {:>16} {:>18} {:>8}",
        "n", "rounds (none)", "rounds (shortcut)", "speedup"
    );
    for exp in 5..=10 {
        let n = 1 << exp;
        let g = gen::wheel(n);
        let rim: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let values: Vec<u64> = (0..n as u64).collect();

        let mut with = Session::on(&g)
            .partition(vec![rim.clone()])
            .build()
            .expect("partition is valid");
        let rim = Partition::from_parts(&g, vec![rim]).expect("partition is valid");

        let fast = with.aggregate(&values, AggOp::Max);
        // The same cold echo from the rim's minimum member, over no shortcut.
        let max = AggregateOp {
            values: &values,
            op: AggOp::Max,
            leaders: None,
        };
        let slow = max.run_on(&g, &rim, &Shortcut::empty(1), 0, SimConfig::default());
        assert_eq!(fast.result.results[0], Some(n as u64 - 1));
        assert_eq!(slow.results[0], Some(n as u64 - 1));
        println!(
            "{:>6} {:>16} {:>18} {:>7.1}x",
            n,
            slow.metrics.rounds,
            fast.rounds,
            slow.metrics.rounds as f64 / fast.rounds as f64
        );
    }
}
