//! Ingestion invariants: `.lcsg` round trips are lossless across every
//! generator family, and every way a file can be corrupt maps to its
//! distinct typed [`IoError`] — never a panic, never a silently wrong
//! graph.

use lcs_core::{GeneratorSpec, GraphSource, GraphSourceError, PartitionSource};
use lcs_graph::io::{self, IoError};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{gen, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize, Value};

/// Offset of the first section byte (the header is 40 bytes, see the
/// [`lcs_graph::io`] format table).
const SECTIONS: usize = 40;

/// 64-bit FNV-1a — reimplemented here so the tests can *re-seal* a
/// deliberately corrupted section and prove the structural validation
/// (not just the checksum) catches it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Recomputes the checksum over the section bytes and writes it into the
/// header, so a mutated buffer passes the checksum gate again.
fn reseal(buf: &mut [u8]) {
    let sum = fnv1a(&buf[SECTIONS..]);
    buf[32..40].copy_from_slice(&sum.to_le_bytes());
}

fn encode(g: &Graph, weights: Option<&EdgeWeights>) -> Vec<u8> {
    let mut buf = Vec::new();
    io::write_graph(&mut buf, g, weights).expect("in-memory write");
    buf
}

fn decode_err(buf: &[u8]) -> IoError {
    io::read_graph(&mut &buf[..]).expect_err("corrupt file must not load")
}

/// Every generator family at a small size — the deterministic sweep the
/// property test widens.
fn all_families() -> Vec<GeneratorSpec> {
    vec![
        GeneratorSpec::Path { n: 5 },
        GeneratorSpec::Cycle { n: 6 },
        GeneratorSpec::Complete { n: 5 },
        GeneratorSpec::Wheel { n: 7 },
        GeneratorSpec::Grid { rows: 3, cols: 4 },
        GeneratorSpec::Torus { rows: 3, cols: 5 },
        GeneratorSpec::GridOfCliques {
            rows: 2,
            cols: 2,
            clique: 3,
        },
        GeneratorSpec::RoadLike {
            rows: 4,
            cols: 5,
            seed: 11,
        },
    ]
}

/// Picks one family and sizes it from the draws (the shimmed proptest has
/// no `prop_oneof`, so the family is an index draw).
fn spec_from(family: usize, a: usize, b: usize, seed: u64) -> GeneratorSpec {
    match family {
        0 => GeneratorSpec::Path { n: 1 + a },
        1 => GeneratorSpec::Cycle { n: 3 + a },
        2 => GeneratorSpec::Complete { n: 1 + a },
        3 => GeneratorSpec::Wheel { n: 4 + a },
        4 => GeneratorSpec::Grid {
            rows: 1 + a,
            cols: 1 + b,
        },
        5 => GeneratorSpec::Torus {
            rows: 3 + a,
            cols: 3 + b,
        },
        6 => GeneratorSpec::GridOfCliques {
            rows: 1 + a % 3,
            cols: 1 + b % 3,
            clique: 1 + (a + b) % 4,
        },
        _ => GeneratorSpec::RoadLike {
            rows: 1 + a,
            cols: 1 + b,
            seed,
        },
    }
}

fn arb_spec() -> impl Strategy<Value = GeneratorSpec> {
    (0usize..8, 0usize..6, 0usize..6, 0u64..1_000_000)
        .prop_map(|(f, a, b, s)| spec_from(f, a, b, s))
}

/// One of the three graph-source kinds (an index draw, as in
/// [`spec_from`]).
fn graph_source_from(kind: usize, spec: GeneratorSpec, seed: u64) -> GraphSource {
    match kind {
        0 => GraphSource::Generator(spec),
        1 => GraphSource::EdgeListJson {
            path: format!("graphs/{seed}.json"),
        },
        _ => GraphSource::FlatBinary {
            path: format!("graphs/{seed}.lcsg"),
        },
    }
}

/// One of the four partition-source kinds.
fn partition_source_from(kind: usize, a: usize, b: usize, seed: u64) -> PartitionSource {
    match kind {
        0 => PartitionSource::Rows { rows: a, cols: b },
        1 => PartitionSource::Voronoi { parts: a, seed },
        2 => PartitionSource::Singletons,
        _ => PartitionSource::Separator {
            level: a as u32,
            min_region: b,
        },
    }
}

/// The wire form of one source: `from_value(to_value(x)) == x`, the
/// object leads with its `kind`, and its keys are the row the README's
/// "Source notation" table gives that kind. Returns the rendered fields.
fn check_wire_form<T>(source: &T) -> Vec<(String, Value)>
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let value = source.to_value();
    assert_eq!(T::from_value(&value).as_ref(), Ok(source));
    let Value::Obj(fields) = value else {
        panic!("{source:?} must render as an object");
    };
    let (kind, params) = match fields.as_slice() {
        [(key, Value::Str(kind)), params @ ..] if key == "kind" => (kind, params),
        _ => panic!("{source:?} must lead with its kind"),
    };
    let keys: Vec<String> = params.iter().map(|(key, _)| format!("`{key}`")).collect();
    let keys = if keys.is_empty() {
        "—".to_string()
    } else {
        keys.join(", ")
    };
    let row = format!("| `{kind}` | {keys} |");
    assert!(
        include_str!("../README.md").contains(&row),
        "the README notation table has no row {row}"
    );
    fields
}

/// `fields` without `key`, as a value to deserialize.
fn without(fields: &[(String, Value)], key: &str) -> Value {
    Value::Obj(fields.iter().filter(|(k, _)| k != key).cloned().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every source round-trips through the one `kind` notation, which is
    /// the README table; the two optional parameters default when absent,
    /// and any other absent parameter is an error that names it.
    #[test]
    fn sources_round_trip_through_the_kind_wire_form(
        spec in arb_spec(),
        kinds in (0usize..3, 0usize..4),
        (a, b) in (0usize..1000, 0usize..1000),
        seed in 0u64..1_000_000,
    ) {
        let generator = check_wire_form(&spec);
        let graph = graph_source_from(kinds.0, spec.clone(), seed);
        check_wire_form(&graph);
        if let GraphSource::Generator(_) = graph {
            // A generator source is its spec, not a wrapper around it.
            prop_assert_eq!(graph.to_value(), spec.to_value());
        }
        let partition = partition_source_from(kinds.1, a, b, seed);
        let partition_fields = check_wire_form(&partition);

        for (key, _) in &generator[1..] {
            let read = GeneratorSpec::from_value(&without(&generator, key));
            match (&spec, key.as_str()) {
                (GeneratorSpec::RoadLike { rows, cols, .. }, "seed") => prop_assert_eq!(
                    read,
                    Ok(GeneratorSpec::RoadLike { rows: *rows, cols: *cols, seed: 0 })
                ),
                _ => {
                    let err = read.expect_err("sizes are required").to_string();
                    prop_assert!(err.contains(&format!("`{key}`")), "{}", err);
                }
            }
        }
        for (key, _) in &partition_fields[1..] {
            let read = PartitionSource::from_value(&without(&partition_fields, key));
            match (&partition, key.as_str()) {
                (PartitionSource::Voronoi { parts, .. }, "seed") => prop_assert_eq!(
                    read,
                    Ok(PartitionSource::Voronoi { parts: *parts, seed: 0 })
                ),
                (PartitionSource::Separator { level, .. }, "min_region") => prop_assert_eq!(
                    read,
                    Ok(PartitionSource::Separator { level: *level, min_region: 8 })
                ),
                _ => {
                    let err = read.expect_err("required").to_string();
                    prop_assert!(err.contains(&format!("`{key}`")), "{}", err);
                }
            }
        }
    }

    /// Graph → `.lcsg` → Graph is the identity — same CSR arrays, same
    /// edge ids, same weights — and re-encoding reproduces the identical
    /// bytes, across every generator family.
    #[test]
    fn lcsg_round_trip_is_bit_identical(
        spec in arb_spec(),
        weighted in 0u64..2,
        seed in 0u64..1_000_000,
    ) {
        let g = spec.build().expect("valid spec");
        let w = (weighted == 1)
            .then(|| EdgeWeights::random(&g, 1000, &mut SmallRng::seed_from_u64(seed)));
        let buf = encode(&g, w.as_ref());
        let loaded = io::read_graph(&mut &buf[..]).expect("own output must load");
        // Graph equality covers the full CSR (first_out/head/edge_id) and
        // the reconstructed endpoints; weights compare exactly.
        prop_assert_eq!(&loaded.graph, &g);
        prop_assert_eq!(&loaded.weights, &w);
        prop_assert_eq!(encode(&loaded.graph, loaded.weights.as_ref()), buf);
    }

    /// Any single bit flip in the section bytes is detected — the load
    /// fails with a typed error instead of producing a wrong graph.
    #[test]
    fn section_corruption_never_loads_silently(
        spec in arb_spec(),
        byte_seed in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let g = spec.build().expect("valid spec");
        let mut buf = encode(&g, None);
        // Any graph has at least the two-entry first_out section.
        assert!(buf.len() > SECTIONS);
        let idx = SECTIONS + (byte_seed as usize) % (buf.len() - SECTIONS);
        buf[idx] ^= 1 << bit;
        let err = decode_err(&buf);
        prop_assert!(
            matches!(err, IoError::ChecksumMismatch { .. } | IoError::Inconsistent { .. }),
            "flip at {} gave {}", idx, err
        );
    }
}

/// An unknown `kind` is refused with the list of kinds that exist — the
/// eight families for a generator, those plus the two file kinds for a
/// graph source, the four partition sources — and a file kind without its
/// `path` names the key.
#[test]
fn unknown_kinds_and_missing_paths_are_named() {
    let unknown = Value::object([("kind", Value::Str("hypercube".to_string()))]);
    let families: Vec<&str> = all_families().iter().map(GeneratorSpec::name).collect();
    let listed = |err: String, kinds: &[&str]| {
        assert!(err.contains("`hypercube`"), "{err}");
        for kind in kinds {
            assert!(err.contains(kind), "{err} does not list {kind}");
        }
    };
    let err = GeneratorSpec::from_value(&unknown).unwrap_err();
    listed(err.to_string(), &families);
    assert!(!err.to_string().contains("flat_binary"), "{err}");
    let err = GraphSource::from_value(&unknown).unwrap_err();
    listed(err.to_string(), &families);
    listed(err.to_string(), &["edge_list_json", "flat_binary"]);
    let err = PartitionSource::from_value(&unknown).unwrap_err();
    listed(
        err.to_string(),
        &["rows", "voronoi", "singletons", "separator"],
    );

    for kind in ["edge_list_json", "flat_binary"] {
        let pathless = Value::object([("kind", Value::Str(kind.to_string()))]);
        let err = GraphSource::from_value(&pathless).unwrap_err();
        assert!(err.to_string().contains("`path`"), "{err}");
    }
    let kindless = Value::object([("rows", Value::U64(3)), ("cols", Value::U64(4))]);
    let err = GraphSource::from_value(&kindless).unwrap_err();
    assert!(err.to_string().contains("`kind`"), "{err}");
}

#[test]
fn every_family_round_trips_through_a_file() {
    let dir = std::env::temp_dir();
    for (i, spec) in all_families().into_iter().enumerate() {
        let g = spec.build().expect("valid spec");
        let w = EdgeWeights::random(&g, 100, &mut SmallRng::seed_from_u64(i as u64));
        let path = dir.join(format!("lcs_ingest_rt_{}_{i}.lcsg", std::process::id()));
        io::save_graph(&path, &g, Some(&w)).expect("save");
        // Through the same GraphSource the session builder and server use.
        let resolved = GraphSource::FlatBinary {
            path: path.to_str().expect("utf-8").to_string(),
        }
        .resolve()
        .expect("load");
        assert_eq!(resolved.graph, g, "{}", spec.name());
        assert_eq!(resolved.weights, Some(w), "{}", spec.name());
        let _ = std::fs::remove_file(&path);

        // The legacy `{"n", "edges"}` store decodes to the identical graph.
        let edges: Vec<String> = (g.edges().map(|e| format!("[{},{}]", e.u.0, e.v.0))).collect();
        let json = format!(
            "{{\"n\": {}, \"edges\": [{}]}}",
            g.num_nodes(),
            edges.join(",")
        );
        let path = path.with_extension("json");
        std::fs::write(&path, json).expect("write edge list");
        let resolved = GraphSource::EdgeListJson {
            path: path.to_str().expect("utf-8").to_string(),
        }
        .resolve()
        .expect("load");
        assert_eq!(resolved.graph, g, "{} as JSON", spec.name());
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn truncated_sections_name_the_section() {
    let g = gen::grid(3, 3);
    let w = EdgeWeights::unit(&g);
    let full = encode(&g, Some(&w));
    let n = g.num_nodes();
    let m = g.num_edges();
    // One cut inside each section (and inside the header).
    for (cut, section) in [
        (SECTIONS / 2, "header"),
        (SECTIONS + 2, "first_out"),
        (SECTIONS + 4 * (n + 1) + 2, "head"),
        (SECTIONS + 4 * (n + 1) + 8 * m + 2, "edge_id"),
        (SECTIONS + 4 * (n + 1) + 16 * m + 2, "weights"),
    ] {
        let err = decode_err(&full[..cut]);
        assert_eq!(err.code(), "graph_truncated", "cut at {cut}: {err}");
        match err {
            IoError::Truncated { section: s } => assert_eq!(s, section, "cut at {cut}"),
            other => panic!("cut at {cut}: expected Truncated, got {other}"),
        }
    }
}

#[test]
fn header_corruptions_are_typed() {
    let g = gen::cycle(5);
    let full = encode(&g, None);

    let mut bad_magic = full.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        decode_err(&bad_magic),
        IoError::BadMagic { found } if found == *b"XCSG"
    ));
    assert_eq!(decode_err(&bad_magic).code(), "graph_bad_magic");

    let mut bad_version = full.clone();
    bad_version[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        decode_err(&bad_version),
        IoError::UnsupportedVersion { found: 2 }
    ));
    assert_eq!(decode_err(&bad_version).code(), "graph_unsupported_version");

    let mut bad_flags = full.clone();
    bad_flags[8] |= 0x04;
    assert!(matches!(
        decode_err(&bad_flags),
        IoError::UnknownFlags { .. }
    ));
    assert_eq!(decode_err(&bad_flags).code(), "graph_unknown_flags");

    // An absurd edge count trips the capacity gate before any allocation.
    let mut too_large = full.clone();
    too_large[24..32].copy_from_slice(&u64::from(u32::MAX).to_le_bytes());
    assert!(matches!(decode_err(&too_large), IoError::Capacity(_)));
    assert_eq!(decode_err(&too_large).code(), "graph_too_large");

    let mut bad_sum = full.clone();
    bad_sum[32] ^= 0xff;
    assert!(matches!(
        decode_err(&bad_sum),
        IoError::ChecksumMismatch { .. }
    ));
    assert_eq!(decode_err(&bad_sum).code(), "graph_checksum_mismatch");

    let mut trailing = full;
    trailing.push(0);
    assert!(matches!(decode_err(&trailing), IoError::TrailingBytes));
    assert_eq!(decode_err(&trailing).code(), "graph_trailing_bytes");
}

/// Structural lies that pass the checksum (the test re-seals the header)
/// are still rejected by the validation sweep.
#[test]
fn resealed_structural_corruption_is_inconsistent() {
    // path(3): first_out = [0, 1, 3, 4]. Zeroing entry 2 makes node 1's
    // slot range [1, 0) — non-monotone offsets.
    let g = gen::path(3);
    let mut buf = encode(&g, None);
    buf[SECTIONS + 8..SECTIONS + 12].copy_from_slice(&0u32.to_le_bytes());
    reseal(&mut buf);
    match decode_err(&buf) {
        IoError::Inconsistent { reason } => {
            assert!(reason.contains("monotone"), "{reason}")
        }
        other => panic!("expected Inconsistent, got {other}"),
    }

    // An out-of-range head id in the first slot.
    let mut buf = encode(&g, None);
    let head_at = SECTIONS + 4 * (g.num_nodes() + 1);
    buf[head_at..head_at + 4].copy_from_slice(&99u32.to_le_bytes());
    reseal(&mut buf);
    match decode_err(&buf) {
        IoError::Inconsistent { reason } => {
            assert!(reason.contains("out of range"), "{reason}")
        }
        other => panic!("expected Inconsistent, got {other}"),
    }
    assert_eq!(decode_err(&buf).code(), "graph_inconsistent");
}

/// The typed loader errors surface through [`GraphSource::FlatBinary`]
/// with their codes intact — what the server's 422 mapping relies on.
#[test]
fn graph_source_forwards_loader_codes() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("lcs_ingest_fwd_{}.lcsg", std::process::id()));
    let mut buf = encode(&gen::wheel(5), None);
    buf[32] ^= 0xff; // break the checksum
    std::fs::write(&path, &buf).expect("write corrupt file");
    let err = GraphSource::FlatBinary {
        path: path.to_str().expect("utf-8").to_string(),
    }
    .resolve()
    .expect_err("corrupt file must not resolve");
    assert_eq!(err.code(), "graph_checksum_mismatch");
    assert!(matches!(err, GraphSourceError::Flat { .. }));
    let _ = std::fs::remove_file(&path);
}
