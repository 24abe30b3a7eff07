//! Lemma 3.2 (Figure 3.2): on the lower-bound topology, any shortcut for the
//! row parts has quality Ω(δ′D′). This example builds one `ShortcutSession`
//! per instance and shows the measured quality lands between the lemma's
//! lower bound and Theorem 1.2's upper bound.
//!
//! Run with: `cargo run --release --example lower_bound_topology`

use low_congestion_shortcuts::prelude::*;

fn main() {
    println!(
        "{:>4} {:>5} {:>7} {:>7} {:>10} {:>12} {:>12}",
        "δ'", "D'", "n", "δ̂", "quality", "lower bound", "upper bound"
    );
    for (dp, dd) in [(5u32, 24u32), (5, 36), (6, 36), (7, 48)] {
        let lb = gen::lower_bound_topology(dp, dd);
        let mut session = Session::on(&lb.graph)
            .tree(TreeSource::Bfs(lb.top_path[0]))
            .partition(lb.rows.clone())
            .build()
            .expect("rows are disjoint connected paths");

        let delta_hat = session.delta_hat();
        let d = session.tree().depth_of_tree();
        let q = session.quality().clone();

        let n = lb.graph.num_nodes() as f64;
        // Theorem 1.2: congestion O(δD log n) — one sweep's bound, at most
        // log₂ n sweeps — plus dilation O(δD).
        let bound = ShortcutConfig::default().envelope(delta_hat, d, 1);
        let upper = f64::from(bound.congestion) * n.log2() + f64::from(bound.dilation);
        println!(
            "{:>4} {:>5} {:>7} {:>7} {:>10} {:>12.1} {:>12.0}",
            dp,
            dd,
            lb.graph.num_nodes(),
            delta_hat,
            q.quality(),
            lb.internal_lower_bound(),
            upper
        );
        assert!(
            f64::from(q.quality()) >= lb.internal_lower_bound(),
            "no shortcut can beat the Lemma 3.2 bound"
        );
    }
    println!("\nmeasured quality >= (δ-1)D/2 on every instance, as Lemma 3.2 demands;");
    println!("and within the O(δD log n) guarantee of Theorem 1.2.");
}
