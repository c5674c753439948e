//! Dependence patterns between consecutive timesteps.
//!
//! A pattern defines, for each point `i` of timestep `t`, which points of
//! timestep `t-1` it consumes (`dependencies`) and, symmetrically, which
//! points of `t+1` consume it (`reverse_dependencies`). The two queries
//! are exact mirrors — a property the tests verify exhaustively — because
//! forward-looking models (TTG, PTG) drive sends from reverse queries
//! while backward-looking models (OpenMP tasks) declare inputs from
//! forward queries.

use crate::Deps;

/// A Task-Bench dependence pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// No dependencies at all (embarrassingly parallel steps).
    Trivial,
    /// Each point depends only on itself at the previous step.
    NoComm,
    /// The paper's pattern: `i` depends on `i-1, i, i+1` (clamped at the
    /// edges) — "the 1D stencil dependency pattern (2+1 dependencies)".
    Stencil1D,
    /// 1D stencil with periodic (wrap-around) boundaries.
    Stencil1DPeriodic,
    /// FFT butterfly: `i` depends on `i` and `i xor 2^(t-1 mod log2(width))`.
    Fft,
    /// Every point depends on every point of the previous step.
    AllToAll,
    /// `i` depends on `i` and `(i + width/count * k) % width` for
    /// `k in 1..count` — Task-Bench's "spread" pattern.
    Spread {
        /// Number of dependencies per point (including self).
        count: usize,
    },
    /// Binary-tree broadcast/reduce: on even steps point `i` feeds
    /// `2i` and `2i+1` (scatter); on odd steps `2i` and `2i+1` feed `i`
    /// (gather) — Task-Bench's "tree" pattern.
    Tree,
    /// Lower-triangular cascade: `i` depends on every `j ≤ i` of the
    /// previous step — Task-Bench's "dom" (domino) pattern.
    Dom,
}

impl Pattern {
    /// Parses the upstream Task-Bench names.
    pub fn parse(name: &str) -> Option<Pattern> {
        Some(match name {
            "trivial" => Pattern::Trivial,
            "no_comm" => Pattern::NoComm,
            "stencil_1d" => Pattern::Stencil1D,
            "stencil_1d_periodic" => Pattern::Stencil1DPeriodic,
            "fft" => Pattern::Fft,
            "all_to_all" => Pattern::AllToAll,
            "spread" => Pattern::Spread { count: 3 },
            "tree" => Pattern::Tree,
            "dom" => Pattern::Dom,
            _ => return None,
        })
    }

    /// The upstream name.
    pub fn name(&self) -> &'static str {
        match self {
            Pattern::Trivial => "trivial",
            Pattern::NoComm => "no_comm",
            Pattern::Stencil1D => "stencil_1d",
            Pattern::Stencil1DPeriodic => "stencil_1d_periodic",
            Pattern::Fft => "fft",
            Pattern::AllToAll => "all_to_all",
            Pattern::Spread { .. } => "spread",
            Pattern::Tree => "tree",
            Pattern::Dom => "dom",
        }
    }

    /// Points of step `t-1` that (t, i) consumes. Empty for `t == 0`.
    pub fn dependencies(&self, t: usize, i: usize, width: usize) -> Deps {
        let mut deps = Deps::new();
        if t == 0 || width == 0 {
            return deps;
        }
        match self {
            Pattern::Trivial => {}
            Pattern::NoComm => deps = Deps::span(i, i),
            Pattern::Stencil1D => deps = Deps::span(i.saturating_sub(1), (i + 1).min(width - 1)),
            Pattern::Stencil1DPeriodic => {
                deps = [(i + width - 1) % width, i, (i + 1) % width]
                    .into_iter()
                    .collect();
                deps.sort_dedup();
            }
            Pattern::Fft => {
                let log = usize::BITS - (width.max(2) - 1).leading_zeros();
                let stride = 1usize << ((t - 1) % log as usize);
                let partner = i ^ stride;
                if partner < width {
                    deps.push(i.min(partner));
                    deps.push(i.max(partner));
                } else {
                    deps.push(i);
                }
            }
            Pattern::AllToAll => deps = Deps::span(0, width - 1),
            Pattern::Spread { count } => {
                let count = (*count).clamp(1, width);
                deps = (0..count)
                    .map(|k| (i + k * width.div_ceil(count)) % width)
                    .collect();
                deps.sort_dedup();
            }
            Pattern::Tree => {
                if t % 2 == 1 {
                    // Scatter step: i receives from its tree parent i/2.
                    deps.push(i / 2);
                } else {
                    // Gather step: i receives from children 2i, 2i+1.
                    deps = [2 * i, 2 * i + 1]
                        .into_iter()
                        .filter(|&j| j < width)
                        .collect();
                    if deps.is_empty() {
                        deps.push(i); // leaf rows carry themselves
                    }
                }
            }
            Pattern::Dom => deps = Deps::span(0, i),
        }
        deps
    }

    /// `dependencies(t, i, width).len()` without building the list, for
    /// the patterns where that is a closed form — what an aggregator's
    /// count callback asks once per task.
    pub fn num_dependencies(&self, t: usize, i: usize, width: usize) -> usize {
        if t == 0 || width == 0 {
            return 0;
        }
        match self {
            Pattern::Trivial => 0,
            Pattern::NoComm => 1,
            Pattern::Stencil1D => 1 + usize::from(i > 0) + usize::from(i + 1 < width),
            Pattern::Stencil1DPeriodic => width.min(3),
            Pattern::AllToAll => width,
            Pattern::Dom => i + 1,
            Pattern::Fft | Pattern::Spread { .. } | Pattern::Tree => {
                self.dependencies(t, i, width).len()
            }
        }
    }

    /// Points of step `t+1` that consume (t, i). Empty when `t+1 ==
    /// steps`. This is the exact mirror of [`Pattern::dependencies`].
    pub fn reverse_dependencies(&self, t: usize, i: usize, width: usize, steps: usize) -> Deps {
        if t + 1 >= steps || width == 0 {
            return Deps::new();
        }
        match self {
            // Their own mirrors.
            Pattern::Trivial
            | Pattern::NoComm
            | Pattern::Stencil1D
            | Pattern::Stencil1DPeriodic => self.dependencies(t + 1, i, width),
            // The xor-partner and all-to-all relations are symmetric as
            // well; a generic inversion keeps every pattern exact.
            _ => (0..width)
                .filter(|&j| self.dependencies(t + 1, j, width).contains(&i))
                .collect(),
        }
    }

    /// Maximum dependency count over a row (used by harnesses to bound
    /// message buffers).
    pub fn max_dependencies(&self, width: usize) -> usize {
        match self {
            Pattern::Trivial => 0,
            Pattern::NoComm => 1,
            Pattern::Stencil1D | Pattern::Stencil1DPeriodic => 3,
            Pattern::Fft => 2,
            Pattern::AllToAll => width,
            Pattern::Spread { count } => (*count).min(width),
            Pattern::Tree => 2,
            Pattern::Dom => width,
        }
    }

    /// All patterns with interesting defaults (for exhaustive tests).
    pub fn all(width_hint: usize) -> Vec<Pattern> {
        vec![
            Pattern::Trivial,
            Pattern::NoComm,
            Pattern::Stencil1D,
            Pattern::Stencil1DPeriodic,
            Pattern::Fft,
            Pattern::AllToAll,
            Pattern::Spread {
                count: 3.min(width_hint.max(1)),
            },
            Pattern::Tree,
            Pattern::Dom,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_edges_clamp() {
        let p = Pattern::Stencil1D;
        assert_eq!(p.dependencies(1, 0, 8), vec![0, 1]);
        assert_eq!(p.dependencies(1, 3, 8), vec![2, 3, 4]);
        assert_eq!(p.dependencies(1, 7, 8), vec![6, 7]);
        assert!(p.dependencies(0, 3, 8).is_empty());
    }

    #[test]
    fn periodic_wraps() {
        let p = Pattern::Stencil1DPeriodic;
        let mut d = p.dependencies(1, 0, 8);
        d.sort_unstable();
        assert_eq!(d, vec![0, 1, 7]);
    }

    #[test]
    fn fft_partners_are_symmetric_pairs() {
        let p = Pattern::Fft;
        for t in 1..6 {
            for i in 0..8 {
                let d = p.dependencies(t, i, 8);
                assert!(d.contains(&i));
                assert!(d.len() <= 2);
            }
        }
    }

    #[test]
    fn forward_and_backward_queries_mirror_exactly() {
        // For every pattern: j ∈ deps(t, i) ⟺ i ∈ rdeps(t-1, j).
        const W: usize = 9;
        const T: usize = 6;
        for p in Pattern::all(W) {
            for t in 1..T {
                for i in 0..W {
                    for j in p.dependencies(t, i, W) {
                        assert!(
                            p.reverse_dependencies(t - 1, j, W, T).contains(&i),
                            "{p:?}: ({t},{i}) deps on j={j} but reverse misses it"
                        );
                    }
                }
                for j in 0..W {
                    for i in p.reverse_dependencies(t - 1, j, W, T) {
                        assert!(
                            p.dependencies(t, i, W).contains(&j),
                            "{p:?}: rdeps({},{j}) -> {i} not mirrored",
                            t - 1
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn last_step_has_no_reverse_deps() {
        for p in Pattern::all(8) {
            assert!(p.reverse_dependencies(4, 3, 8, 5).is_empty(), "{p:?}");
        }
    }

    #[test]
    fn parse_roundtrip() {
        for name in [
            "trivial",
            "no_comm",
            "stencil_1d",
            "stencil_1d_periodic",
            "fft",
            "all_to_all",
            "spread",
            "tree",
            "dom",
        ] {
            assert_eq!(Pattern::parse(name).unwrap().name(), name);
        }
        assert!(Pattern::parse("bogus").is_none());
    }

    #[test]
    fn width_one_degenerate() {
        for p in Pattern::all(1) {
            let d = p.dependencies(1, 0, 1);
            assert!(d.iter().all(|&j| j == 0), "{p:?}: {d:?}");
        }
    }
}
