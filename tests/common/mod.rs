//! The CI matrix's two environment knobs, read in one place for the
//! suites that re-run under them (`bounds`, `session`, `sim_conformance`,
//! `end_to_end`; `lcs_algos`'s Boruvka bill replay reads them itself):
//! every result must be identical at any lane count and packing factor.

fn env_usize(name: &str) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Simulator lane count: `LCS_SIM_THREADS` (CI: 2, 4, 8), default 1.
pub fn env_threads() -> usize {
    env_usize("LCS_SIM_THREADS")
}

/// Simulator packing factor: `LCS_SIM_PACKING` (CI: 8), default 1.
pub fn env_packing() -> usize {
    env_usize("LCS_SIM_PACKING")
}
