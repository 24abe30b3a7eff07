//! Configuration of the shortcut construction.

use crate::QualityReport;
use serde::{Deserialize, Serialize};

/// Parameters of the Theorem 3.1 construction.
///
/// The default reproduces the paper's congestion threshold `c = 8·δ̂·D`;
/// the block threshold is always the paper's `8·δ̂` (footnote 3 notes the
/// constants were not optimized — the congestion factor is exposed for the
/// E11b ablation). Every construction starts its doubling search at
/// `δ̂ = 1`, and every failed sweep extracts its dense-minor certificate
/// deterministically, so the final `δ̂` comes with proof.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShortcutConfig {
    /// The `8` in `c = 8δD`.
    pub congestion_factor: u32,
}

impl Default for ShortcutConfig {
    fn default() -> Self {
        ShortcutConfig {
            congestion_factor: 8,
        }
    }
}

impl ShortcutConfig {
    /// The congestion threshold `c = congestion_factor · δ̂ · D` for tree
    /// depth `d` (at least 1, so single-level trees still have a positive
    /// threshold).
    pub fn congestion_threshold(&self, delta_hat: u32, tree_depth: u32) -> u32 {
        self.congestion_factor
            .saturating_mul(delta_hat)
            .saturating_mul(tree_depth.max(1))
    }

    /// The block-degree threshold `8 · δ̂`.
    pub fn block_threshold(&self, delta_hat: u32) -> u32 {
        delta_hat.saturating_mul(8)
    }

    /// What Theorem 1.2 promises a shortcut built at `delta_hat` over a
    /// tree of depth `tree_depth` in `sweeps` successful Case (I) sweeps
    /// (Observation 2.7; at most `log₂ k + 1` of them for `k` parts).
    pub fn envelope(&self, delta_hat: u32, tree_depth: u32, sweeps: usize) -> Envelope {
        let blocks = self.block_threshold(delta_hat).saturating_add(1);
        Envelope {
            congestion: self
                .congestion_threshold(delta_hat, tree_depth)
                .saturating_mul(u32::try_from(sweeps).unwrap_or(u32::MAX)),
            dilation: blocks.saturating_mul(tree_depth.saturating_mul(2).saturating_add(1)),
            blocks,
        }
    }
}

/// The bounds of Theorem 1.1 / 1.2 on one construction, from
/// [`ShortcutConfig::envelope`]: with the paper's constants, congestion
/// `8δ̂D · sweeps`, dilation `(8δ̂+1)(2D+1)` and `8δ̂+1` blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Each sweep stays under the congestion threshold, so the union of
    /// `sweeps` of them loads no edge with more parts than this.
    pub congestion: u32,
    /// Observation 2.6: `blocks · (2D + 1)`.
    pub dilation: u32,
    /// A served part has block degree at most the block threshold, hence
    /// one block more than that.
    pub blocks: u32,
}

impl Envelope {
    /// How deep `q` sits in the envelope: the largest of the three
    /// measured / bound ratios, so `<= 1` means inside. A shortcut that is
    /// not tree-restricted, or leaves a part disconnected, is outside.
    pub fn occupancy(&self, q: &QualityReport) -> f64 {
        if !(q.tree_restricted && q.all_connected()) {
            return f64::INFINITY;
        }
        // 0 / 0 is inside: an empty partition is built in zero sweeps.
        let ratio = |measured: u32, bound: u32| match measured {
            0 => 0.0,
            _ => f64::from(measured) / f64::from(bound),
        };
        ratio(q.max_congestion, self.congestion)
            .max(ratio(q.max_dilation_upper, self.dilation))
            .max(ratio(q.max_blocks, self.blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = ShortcutConfig::default();
        assert_eq!(c.congestion_factor, 8);
        assert_eq!(c.congestion_threshold(2, 10), 160);
        assert_eq!(c.block_threshold(2), 16);
    }

    #[test]
    fn envelope_is_built_from_the_thresholds() {
        let c = ShortcutConfig::default();
        // δ̂ = 3, D = 10, two sweeps: 8·3·10·2, (8·3+1)(2·10+1), 8·3+1.
        let e = c.envelope(3, 10, 2);
        assert_eq!((e.congestion, e.dilation, e.blocks), (480, 525, 25));
        let halved = ShortcutConfig {
            congestion_factor: 4,
        };
        assert_eq!(halved.envelope(3, 10, 2).congestion, 240);
        assert_eq!(halved.envelope(3, 10, 2).dilation, e.dilation);
        assert_eq!(halved.envelope(3, 10, 2).blocks, e.blocks);
    }

    #[test]
    fn occupancy_is_the_binding_ratio_and_invalid_reports_are_outside() {
        let e = ShortcutConfig::default().envelope(3, 10, 2);
        let part = crate::PartQuality {
            blocks: 5,
            dilation_lower: 100,
            dilation_upper: 105,
            connected: true,
        };
        let inside = QualityReport {
            per_part: vec![part],
            max_congestion: 120,
            max_blocks: 5,
            max_dilation_lower: 100,
            max_dilation_upper: 105,
            tree_restricted: true,
        };
        assert_eq!(e.occupancy(&inside), 120.0 / 480.0);
        let over = QualityReport {
            max_congestion: 481,
            ..inside.clone()
        };
        assert!(e.occupancy(&over) > 1.0);
        let off_tree = QualityReport {
            tree_restricted: false,
            ..inside.clone()
        };
        assert!(e.occupancy(&off_tree) > 1.0);
        let disconnected = QualityReport {
            per_part: vec![crate::PartQuality {
                connected: false,
                ..part
            }],
            ..inside
        };
        assert!(e.occupancy(&disconnected) > 1.0);
        // Zero parts, zero sweeps: 0 / 0 counts as inside.
        let empty = QualityReport {
            per_part: vec![],
            max_congestion: 0,
            max_blocks: 0,
            max_dilation_lower: 0,
            max_dilation_upper: 0,
            tree_restricted: true,
        };
        let none = ShortcutConfig::default().envelope(1, 0, 0);
        assert_eq!((none.congestion, none.occupancy(&empty)), (0, 0.0));
    }

    #[test]
    fn zero_depth_trees_still_get_positive_threshold() {
        let c = ShortcutConfig::default();
        assert_eq!(c.congestion_threshold(1, 0), 8);
    }
}
