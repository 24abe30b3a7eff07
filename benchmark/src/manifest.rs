//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `--manifest` renders this module
//! as the `BENCHMARK.json` at the root of the repository, and a test
//! checks the committed file against it.

/// How long one run measures; also the `--seconds` default.
pub const RUN_SECONDS: u64 = 10;

pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "partwise_warm",
        why: "warm aggregate+gossip+unicast cycles on one prepared session: lcs_partwise on \
              lcs_congest does >95% of the op, construction is all in setup_s, no server or algos",
    },
    Workload {
        name: "construct_cold",
        why: "raw engine BFS floods plus cold centralized and sketch constructions on a .lcsg-loaded \
              graph: lcs_core and the engine do the op, lcs_partwise none (bypass for partwise changes)",
    },
    Workload {
        name: "algos_cold",
        why: "fresh session, MST, min-cut: hundreds of short simulator runs and per-phase \
              constructions per op, so per-run set-up cost dominates, not per-message cost",
    },
    Workload {
        name: "churn_answer",
        why: "reassign_parts on 32 movers, re-prepare, aggregate: mutation-to-first-answer latency; \
              work moved into per-partition-epoch rebuilds wins on partwise_warm and loses here",
    },
    Workload {
        name: "serve_mixed",
        why: "two closed-loop keep-alive HTTP clients on one warm session (aggregate/quality/re-create/\
              reassign mix): socket, HTTP, JSON, registry and the per-session mutex are on the clock",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The gated set. `setup_s` is wall time and has the widest bound; the
/// other two repeat closely from run to run (`sim_messages_per_op` is a
/// count, its bound covers the spread across seeds). The wall-clock
/// metrics of the op — `op_p50_ms`, `ops_per_s`, `host_us_per_sim_msg` —
/// and `sim_rounds_per_op` did not repeat within any allowed bound across
/// ten seeds on the build box, so they are reported under `bench.` in
/// `PER_LAYER` without a bound (see README, "Which metrics are gated").
pub const END_TO_END: [EndToEnd; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("sim_messages_per_op", "messages", "lower", 0.2),
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

/// The name's prefix is its layer (`graph.` = `lcs_graph`, …, `bench.` =
/// the benchmark itself). A workload that does not exercise a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: &[PerLayer] = &[
    lower("graph.gen_ms", "ms"),
    lower("graph.voronoi_ms", "ms"),
    lower("graph.lcsg_save_ms", "ms"),
    lower("graph.lcsg_load_ms", "ms"),
    lower("graph.lcsg_bytes", "bytes"),
    lower("graph.bfs_tree_ms", "ms"),
    lower("separator.dissect_ms", "ms"),
    lower("separator.levels", "count"),
    lower("congest.bfs_strict_ms", "ms"),
    lower("congest.bfs_queued_ms", "ms"),
    lower("congest.bfs_strict_t2_ms", "ms"),
    higher("congest.t2_speedup", "ratio"),
    lower("congest.bfs_rounds", "rounds"),
    lower("congest.bfs_messages", "messages"),
    lower("congest.bfs_strict_us_per_msg", "us"),
    lower("congest.compute_ms", "ms"),
    lower("congest.stage_ms", "ms"),
    lower("congest.merge_ms", "ms"),
    lower("congest.unattributed_ms", "ms"),
    lower("core.session_build_ms", "ms"),
    lower("core.prepare_centralized_ms", "ms"),
    lower("core.prepare_sketch_ms", "ms"),
    lower("core.prepare_sketch_rounds", "rounds"),
    lower("core.prepare_sketch_messages", "messages"),
    lower("core.prepare_sketch_us_per_msg", "us"),
    lower("core.delta_hat", "count"),
    lower("core.congestion", "count"),
    lower("core.dilation", "count"),
    lower("core.blocks", "count"),
    lower("core.envelope_occupancy", "ratio"),
    lower("core.reassign_ms", "ms"),
    lower("core.reprepare_ms", "ms"),
    lower("core.recustomized_parts_per_tick", "count"),
    lower("core.op_artifact_patches_per_tick", "count"),
    lower("core.full_builds", "count"),
    lower("partwise.first_aggregate_ms", "ms"),
    lower("partwise.aggregate_ms", "ms"),
    lower("partwise.aggregate_rounds", "rounds"),
    lower("partwise.aggregate_messages", "messages"),
    lower("partwise.aggregate_us_per_msg", "us"),
    lower("partwise.gossip_ms", "ms"),
    lower("partwise.gossip_rounds", "rounds"),
    lower("partwise.gossip_messages", "messages"),
    lower("partwise.gossip_us_per_msg", "us"),
    lower("partwise.unicast_ms", "ms"),
    lower("partwise.unicast_rounds", "rounds"),
    lower("partwise.unicast_messages", "messages"),
    lower("partwise.unicast_us_per_msg", "us"),
    lower("partwise.aggregate_vs_engine", "ratio"),
    lower("partwise.aggregate_after_churn_ms", "ms"),
    lower("partwise.patch_cost_ms", "ms"),
    lower("algos.mst_ms", "ms"),
    lower("algos.mincut_ms", "ms"),
    lower("algos.mst_rounds", "rounds"),
    lower("algos.mst_messages", "messages"),
    lower("algos.mincut_rounds", "rounds"),
    lower("algos.mincut_messages", "messages"),
    lower("algos.mst_phases", "count"),
    lower("algos.mst_us_per_msg", "us"),
    lower("server.start_ms", "ms"),
    lower("server.create_miss_ms", "ms"),
    lower("server.aggregate_p50_ms", "ms"),
    lower("server.quality_p50_ms", "ms"),
    lower("server.create_hit_p50_ms", "ms"),
    lower("server.reassign_p50_ms", "ms"),
    lower("server.mixed_p99_ms", "ms"),
    lower("server.health_p50_us", "us"),
    lower("server.solo_aggregate_p50_ms", "ms"),
    lower("server.contention_ratio", "ratio"),
    lower("server.inproc_aggregate_p50_ms", "ms"),
    lower("server.transport_overhead_ms", "ms"),
    lower("server.json_parse_values_us", "us"),
    lower("server.json_render_values_us", "us"),
    lower("server.request_bytes", "bytes"),
    lower("server.response_bytes", "bytes"),
    higher("server.hit_rate", "ratio"),
    lower("server.worker_panics", "count"),
    lower("server.client_errors", "count"),
    lower("bench.failed_frac", "ratio"),
    lower("bench.op_p50_ms", "ms"),
    higher("bench.ops_per_s", "1/s"),
    lower("bench.host_us_per_sim_msg", "us"),
    lower("bench.sim_rounds_per_op", "rounds"),
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.root_self_frac", "ratio"),
    lower("bench.spans", "count"),
    lower("bench.timed_wall_s", "s"),
    lower("bench.ops", "count"),
];

fn quoted_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted_list(&COMMAND),
        quoted_list(&PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(PER_LAYER.len() <= 128);
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
