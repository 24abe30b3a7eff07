//! Graph ingestion CLI: generates, converts and inspects `.lcsg` flat
//! binaries (the [`lcs_graph::io`] format every layer of the stack loads
//! through [`lcs_core::GraphSource::FlatBinary`]).
//!
//! Usage:
//!
//! ```text
//! lcs_convert generate --family FAM [params] --out FILE [--weights-seed S]
//! lcs_convert from-json --input FILE.json --out FILE.lcsg [--weights-seed S]
//! lcs_convert road --rows R --cols C [--seed S] --out FILE [--weights-seed S]
//! lcs_convert info FILE.lcsg
//! ```
//!
//! `generate` takes the families of [`lcs_core::GeneratorSpec`] (the
//! generator rows of the README's "Source notation" table), each
//! parameter as the flag of its name: `--family grid_of_cliques --rows 3
//! --cols 3 --r 4`, `--family road_like --rows R --cols C [--seed S]`.
//!
//! `road` is shorthand for `generate --family road_like` — the seeded
//! near-planar generator sized for the n = 1e6–1e7 scale-up benchmarks
//! (`--rows 1000 --cols 1000` gives one million nodes in a ~28 MB file).
//!
//! `from-json` converts the legacy `{"n": ..., "edges": [[u, v], ...]}`
//! edge-list form through the same validation path the server uses
//! ([`GraphSource::EdgeListJson`]), so a file that converts is exactly a
//! file that serves.
//!
//! `--weights-seed S` embeds deterministic random edge weights (1..=n)
//! into the file; sessions built from the file start weighted.
//!
//! Exit status is non-zero on any typed [`lcs_graph::io::IoError`] /
//! [`lcs_core::GraphSourceError`]; the message carries the error code.

use lcs_core::{GeneratorSpec, GraphSource};
use lcs_graph::weights::EdgeWeights;
use lcs_graph::{io, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lcs_convert generate --family FAM [--n N | --rows R --cols C [--r K] \
         [--seed S]] --out FILE [--weights-seed S]\n  lcs_convert from-json --input FILE.json \
         --out FILE.lcsg [--weights-seed S]\n  lcs_convert road --rows R --cols C [--seed S] \
         --out FILE [--weights-seed S]\n  lcs_convert info FILE.lcsg"
    );
    ExitCode::from(2)
}

/// `--name value` lookup over the raw argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match flag(args, name) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse `{raw}`")),
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    parsed(args, name)?.ok_or_else(|| format!("missing required flag {name}"))
}

/// The [`GeneratorSpec`] of `family`, each parameter read from the flag of
/// its name (`rows` from `--rows`).
fn spec_from_flags(family: &str, args: &[String]) -> Result<GeneratorSpec, String> {
    GeneratorSpec::from_params(family, |key| parsed(args, &format!("--{key}")))
}

/// Saves `g` (with optional seeded weights) and prints a one-line summary.
fn save(g: &Graph, args: &[String], what: &str) -> Result<(), String> {
    let out: String = required(args, "--out")?;
    let weights = parsed::<u64>(args, "--weights-seed")?.map(|seed| {
        let max = (g.num_nodes() as u64).max(1);
        EdgeWeights::random(g, max, &mut SmallRng::seed_from_u64(seed))
    });
    io::save_graph(&out, g, weights.as_ref()).map_err(|e| format!("{out}: {e}"))?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {out}: {what}, n = {}, m = {}, weights = {}, {bytes} bytes",
        g.num_nodes(),
        g.num_edges(),
        weights.is_some(),
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some(command @ ("generate" | "road")) => {
            let family = match command {
                "road" => "road_like".to_string(),
                _ => required(&args[1..], "--family")?,
            };
            let spec = spec_from_flags(&family, &args[1..])?;
            let g = spec.build().map_err(|e| e.to_string())?;
            save(&g, &args[1..], spec.name())
        }
        Some("from-json") => {
            let input: String = required(&args[1..], "--input")?;
            let source = GraphSource::EdgeListJson {
                path: input.clone(),
            };
            let resolved = source.resolve().map_err(|e| e.to_string())?;
            save(&resolved.graph, &args[1..], "edge_list_json")
        }
        Some("info") => {
            let path = args.get(1).ok_or("info: missing FILE argument")?;
            let h = io::load_header(path).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "{path}: lcsg v{}, n = {}, m = {}, weights = {}, checksum = {:#018x}",
                h.version, h.n, h.m, h.has_weights, h.checksum
            );
            Ok(())
        }
        _ => Err(String::new()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => usage(),
        Err(msg) => {
            eprintln!("lcs_convert: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flags and JSON are two spellings of one parameter table: every
    /// family reads the same from either, and an unknown family is refused
    /// with the same list of names.
    #[test]
    fn flag_and_json_spellings_agree_on_every_family() {
        let cases = [
            ("path", "--n 6", r#"{"kind":"path","n":6}"#),
            ("cycle", "--n 5", r#"{"kind":"cycle","n":5}"#),
            ("complete", "--n 4", r#"{"kind":"complete","n":4}"#),
            ("wheel", "--n 7", r#"{"kind":"wheel","n":7}"#),
            (
                "grid",
                "--rows 3 --cols 4",
                r#"{"kind":"grid","rows":3,"cols":4}"#,
            ),
            (
                "torus",
                "--rows 3 --cols 5",
                r#"{"kind":"torus","rows":3,"cols":5}"#,
            ),
            (
                "grid_of_cliques",
                "--rows 3 --cols 3 --r 4",
                r#"{"kind":"grid_of_cliques","rows":3,"cols":3,"r":4}"#,
            ),
            (
                "road_like",
                "--rows 6 --cols 7 --seed 42",
                r#"{"kind":"road_like","rows":6,"cols":7,"seed":42}"#,
            ),
            (
                "road_like",
                "--rows 6 --cols 7",
                r#"{"kind":"road_like","rows":6,"cols":7}"#,
            ),
        ];
        for (family, flags, json) in cases {
            let args: Vec<String> = flags.split(' ').map(String::from).collect();
            let from_json: GeneratorSpec = serde_json::from_str(json).expect(json);
            assert_eq!(spec_from_flags(family, &args), Ok(from_json), "{family}");
        }

        let by_flag = spec_from_flags("hypercube", &[]).unwrap_err();
        let by_json = serde_json::from_str::<GeneratorSpec>(r#"{"kind":"hypercube"}"#)
            .unwrap_err()
            .to_string();
        assert!(by_json.contains(&by_flag), "`{by_json}` vs `{by_flag}`");
        for (family, _, _) in cases {
            assert!(by_flag.contains(family), "{by_flag} does not list {family}");
        }
    }
}
