//! Summary statistics about a loaded database instance.

use std::fmt;

/// Counters describing a [`crate::MonetDb`], as printed by the examples and
/// the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Objects (element + cdata nodes).
    pub objects: usize,
    /// Distinct paths in the path summary.
    pub paths: usize,
    /// Non-empty edge relations.
    pub edge_relations: usize,
    /// Total parent/child associations.
    pub edge_associations: usize,
    /// Non-empty string relations.
    pub string_relations: usize,
    /// Total string associations.
    pub string_associations: usize,
    /// Total bytes of string payload.
    pub string_bytes: usize,
    /// Deepest path in the summary.
    pub max_depth: usize,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "objects:             {}", self.objects)?;
        writeln!(f, "paths:               {}", self.paths)?;
        writeln!(f, "edge relations:      {}", self.edge_relations)?;
        writeln!(f, "edge associations:   {}", self.edge_associations)?;
        writeln!(f, "string relations:    {}", self.string_relations)?;
        writeln!(f, "string associations: {}", self.string_associations)?;
        writeln!(f, "string bytes:        {}", self.string_bytes)?;
        write!(f, "max path depth:      {}", self.max_depth)
    }
}

/// Node-depth distribution of a loaded instance. Its one reader is the
/// roll-up's cost model in `ncq_core::planner`.
///
/// Folded on demand ([`crate::MonetDb::depth_stats`]) from the per-path
/// posting counts; all three counters are object-level (element + cdata
/// nodes), not path-level like [`StoreStats::max_depth`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DepthStats {
    /// Objects counted.
    pub nodes: usize,
    /// Deepest object.
    pub max_depth: usize,
    /// Mean object depth.
    pub mean_depth: f64,
    /// Depth below which 90% of the objects sit (inclusive).
    pub p90_depth: usize,
}

impl DepthStats {
    /// Build from a depth histogram: `histogram[d]` = number of objects
    /// at depth `d`.
    pub fn from_histogram(histogram: &[usize]) -> DepthStats {
        let nodes: usize = histogram.iter().sum();
        if nodes == 0 {
            return DepthStats::default();
        }
        let max_depth = histogram.iter().rposition(|&c| c > 0).unwrap_or(0);
        let sum: usize = histogram.iter().enumerate().map(|(d, &c)| d * c).sum();
        let p90_target = nodes - nodes / 10; // ceil(0.9 * nodes) ≤ this ≤ nodes
        let mut seen = 0usize;
        let mut p90_depth = max_depth;
        for (d, &c) in histogram.iter().enumerate() {
            seen += c;
            if seen >= p90_target {
                p90_depth = d;
                break;
            }
        }
        DepthStats {
            nodes,
            max_depth,
            mean_depth: sum as f64 / nodes as f64,
            p90_depth,
        }
    }
}

impl fmt::Display for DepthStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes: {}, depth max/mean/p90: {}/{:.2}/{}",
            self.nodes, self.max_depth, self.mean_depth, self.p90_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_stats_from_histogram() {
        // 1 root, 3 at depth 1, 6 at depth 2.
        let s = DepthStats::from_histogram(&[1, 3, 6]);
        assert_eq!(s.nodes, 10);
        assert_eq!(s.max_depth, 2);
        assert!((s.mean_depth - 1.5).abs() < 1e-12);
        assert_eq!(s.p90_depth, 2);
        assert!(s.to_string().contains("depth max/mean/p90"));
    }

    #[test]
    fn depth_stats_skewed_p90() {
        // 90 shallow objects, 10 in one deep chain.
        let mut h = vec![90usize];
        h.extend(std::iter::repeat_n(1, 10));
        let s = DepthStats::from_histogram(&h);
        assert_eq!(s.max_depth, 10);
        assert_eq!(s.p90_depth, 0);
    }

    #[test]
    fn depth_stats_empty_histogram() {
        assert_eq!(DepthStats::from_histogram(&[]), DepthStats::default());
    }

    #[test]
    fn display_lists_all_counters() {
        let s = StoreStats {
            objects: 19,
            paths: 14,
            edge_relations: 13,
            edge_associations: 18,
            string_relations: 7,
            string_associations: 8,
            string_bytes: 64,
            max_depth: 5,
        };
        let text = s.to_string();
        for needle in ["objects:", "paths:", "string bytes:", "max path depth:"] {
            assert!(text.contains(needle));
        }
        assert!(text.contains("19"));
    }
}
