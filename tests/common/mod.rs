//! The CI matrix's two environment knobs, read in one place for the
//! suites that re-run under them (`bounds`, `session`, `sim_conformance`,
//! `end_to_end`; `lcs_algos`'s Boruvka bill replay reads them itself):
//! every result must be identical at any lane count and packing factor.

use low_congestion_shortcuts::congest::SimConfig;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Simulator lane count: `LCS_SIM_THREADS` (CI: 1, 2, 4, 8), by default
/// `SimConfig::default().threads` (every core, at most one lane per
/// `GRAIN` nodes).
pub fn env_threads() -> usize {
    env_usize("LCS_SIM_THREADS", SimConfig::default().threads)
}

/// Simulator packing factor: `LCS_SIM_PACKING` (CI: 8), default 1.
pub fn env_packing() -> usize {
    env_usize("LCS_SIM_PACKING", 1)
}
