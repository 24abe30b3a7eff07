//! Cold construction on a file-loaded graph.
//!
//! One op is three raw-engine BFS floods (strict, queued, strict on two
//! lanes), a fresh centralized session + `prepare()`, a fresh sketch
//! session + `prepare()` (Theorem 1.5 on the simulator, packing 8) and its
//! quality report. `lcs_partwise` runs nothing here: a change to the
//! part-wise programs must leave this workload where it was.

use super::{bfs_flood, flood_ok};
use crate::harness::Harness;
use crate::stats::Samples;
use crate::trace::Cost;
use crate::{CORE, GRAPH, SEPARATOR};
use lcs_congest::{splitmix, SimConfig, SimMode};
use lcs_core::dist::{DistConfig, DistMode};
use lcs_core::session::{Backend, SessionConfig};
use lcs_core::{GraphSource, PartitionSource};
use lcs_graph::{gen, io};
use lcs_separator::{nested_dissection, SeparatorConfig};

// Theorem 1.1 envelope constants, as `tests/bounds.rs` and
// `bench_partition` use them.
const C_CONG: f64 = 8.0;
const C_DIL: f64 = 27.0;
const C_BLOCKS: f64 = 9.0;

/// What the last sketch construction reported.
#[derive(Default)]
struct Built {
    delta_hat: u32,
    congestion: u32,
    dilation: u32,
    blocks: u32,
    occupancy: f64,
}

pub fn run(h: &mut Harness) {
    let (side, parts) = if h.cfg.smoke { (32, 10) } else { (256, 655) };
    let seed = h.cfg.seed;
    let path = h
        .cfg
        .out_dir
        .join(format!("construct_cold.{}.lcsg", std::process::id()));
    let source = GraphSource::FlatBinary {
        path: path
            .to_str()
            .expect("the output directory is UTF-8")
            .to_string(),
    };
    let sim = SimConfig {
        message_packing: 8,
        ..SimConfig::default()
    };
    let centralized_config = SessionConfig {
        partition_source: Some(PartitionSource::Voronoi {
            parts,
            seed: splitmix(seed, 0x5eed),
        }),
        graph_source: Some(source.clone()),
        ..SessionConfig::default()
    };
    let sketch_config = SessionConfig {
        sim,
        ..centralized_config.clone()
    };
    let sketch_backend = Backend::Sketch(DistConfig {
        mode: DistMode::Sketch {
            t: 16,
            hash_seed: splitmix(seed, 0x4a54),
            cut_factor: 1.0,
        },
        sim,
    });

    loop {
        let last_setup = h.begin_setup();
        let s = h.tr.begin(GRAPH, "gen");
        let generated = gen::road_like(side, side, seed);
        h.tr.end(s, Cost::default());
        let s = h.tr.begin(GRAPH, "lcsg_save");
        io::save_graph(&path, &generated, None).expect("write the .lcsg file");
        h.tr.end(s, Cost::default());
        let s = h.tr.begin(GRAPH, "lcsg_load");
        let resolved = source.resolve().expect("load the .lcsg file back");
        h.tr.end(s, Cost::default());
        let s = h.tr.begin(SEPARATOR, "dissect");
        let dissection = nested_dissection(&resolved.graph, &SeparatorConfig::default());
        h.tr.end(s, Cost::default());
        h.end_setup();
        let lcsg_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&path);
        if !last_setup {
            continue;
        }
        h.require(
            resolved.graph == generated,
            ".lcsg round trip must be lossless",
        );
        let g = &resolved.graph;
        let n = g.num_nodes() as f64;

        let mut built = Built::default();
        let mut first_sketch_messages = None;
        // Engine phase timings of the recorded strict floods.
        let mut phases = [Samples::default(), Samples::default(), Samples::default()];
        while h.more_ops() {
            let root = h.begin_op("cycle");
            let strict = bfs_flood(h, g, "bfs_strict", SimMode::Strict, 1);
            let queued = bfs_flood(h, g, "bfs_queued", SimMode::Queued, 1);
            let strict_t2 = bfs_flood(h, g, "bfs_strict_t2", SimMode::Strict, 2);

            let s = h.tr.begin(CORE, "session_build");
            let mut central = resolved
                .session()
                .backend(Backend::Centralized)
                .config(centralized_config.clone())
                .build()
                .expect("voronoi cells are connected parts");
            h.tr.end(s, Cost::default());
            let s = h.tr.begin(CORE, "prepare_centralized");
            central.prepare();
            h.tr.end(s, Cost::default());

            let s = h.tr.begin(CORE, "session_build");
            let mut sketch = resolved
                .session()
                .backend(sketch_backend.clone())
                .config(sketch_config.clone())
                .build()
                .expect("voronoi cells are connected parts");
            h.tr.end(s, Cost::default());
            let s = h.tr.begin(CORE, "prepare_sketch");
            sketch.prepare();
            let stats = sketch.construction_stats();
            h.tr.end(s, Cost::new(stats.rounds, stats.messages, stats.bits));
            let s = h.tr.begin(CORE, "quality");
            let q = sketch.quality().clone();
            h.tr.end(s, Cost::default());
            h.end_op(root);

            if h.tr.recording() {
                let t = strict.timings;
                for (samples, ms) in phases
                    .iter_mut()
                    .zip([t.compute_ms, t.stage_ms, t.merge_ms])
                {
                    samples.push(ms);
                }
            }
            // Theorem 1.1: where the served shortcut sits in its envelope.
            let depth = f64::from(sketch.tree().depth_of_tree().max(1));
            let delta_hat = sketch.delta_hat();
            let dh = f64::from(delta_hat.max(1));
            let c_cong = f64::from(q.max_congestion) / (dh * depth * (n.log2() + 1.0));
            let c_dil = f64::from(q.max_dilation_upper) / (dh * depth);
            let c_blocks = f64::from(q.max_blocks) / dh;
            built = Built {
                delta_hat,
                congestion: q.max_congestion,
                dilation: q.max_dilation_upper,
                blocks: q.max_blocks,
                occupancy: (c_cong / C_CONG).max(c_dil / C_DIL),
            };
            let first_messages = *first_sketch_messages.get_or_insert(stats.messages);
            let ok = flood_ok(&strict)
                && flood_ok(&queued)
                && flood_ok(&strict_t2)
                // Lanes must not change what the simulator counts.
                && strict.metrics.counts() == strict_t2.metrics.counts()
                && central.quality().all_connected()
                && q.all_connected()
                && q.tree_restricted
                && c_cong <= C_CONG
                && c_dil <= C_DIL
                && c_blocks <= C_BLOCKS
                && stats.messages == first_messages;
            h.verdict(ok);
        }

        if h.cfg.trace {
            h.set_span_ms("graph.gen_ms", "gen");
            h.set_span_ms("graph.lcsg_save_ms", "lcsg_save");
            h.set_span_ms("graph.lcsg_load_ms", "lcsg_load");
            h.set("graph.lcsg_bytes", lcsg_bytes as f64);
            h.set_span_ms("separator.dissect_ms", "dissect");
            h.set("separator.levels", f64::from(dissection.num_levels()));
            let strict_ms = h.span_median_ms("bfs_strict");
            super::set_engine_metrics(h);
            h.set_span_ms("congest.bfs_queued_ms", "bfs_queued");
            h.set_span_ms("congest.bfs_strict_t2_ms", "bfs_strict_t2");
            let t2_ms = h.span_median_ms("bfs_strict_t2");
            h.set("congest.t2_speedup", strict_ms / t2_ms.max(1e-9));
            let [compute, stage, merge] = phases.map(|s| s.median());
            h.set("congest.compute_ms", compute);
            h.set("congest.stage_ms", stage);
            h.set("congest.merge_ms", merge);
            h.set(
                "congest.unattributed_ms",
                strict_ms - compute - stage - merge,
            );
            h.set_span_ms("core.session_build_ms", "session_build");
            h.set_span_ms("core.prepare_centralized_ms", "prepare_centralized");
            h.set_call_metrics("core.prepare_sketch", "prepare_sketch");
            h.set("core.delta_hat", f64::from(built.delta_hat));
            h.set("core.congestion", f64::from(built.congestion));
            h.set("core.dilation", f64::from(built.dilation));
            h.set("core.blocks", f64::from(built.blocks));
            h.set("core.envelope_occupancy", built.occupancy);
        }
        return;
    }
}
