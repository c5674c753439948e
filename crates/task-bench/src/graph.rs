//! The task-graph descriptor and its ground-truth value function.

use crate::{Deps, Kernel, Pattern};

/// A parameterized task graph: `steps × width` points, a dependence
/// pattern between consecutive steps, and a kernel per task.
#[derive(Debug, Clone, Copy)]
pub struct TaskGraph {
    /// Number of timesteps (the paper runs 1000).
    pub steps: usize,
    /// Points per timestep (the paper uses one per core).
    pub width: usize,
    /// Dependence pattern.
    pub pattern: Pattern,
    /// Work per task.
    pub kernel: Kernel,
}

/// SplitMix64 — the deterministic mixer for ground-truth values.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one input into a task's value: a rotation by origin makes each
/// origin contribute distinctly, the wrapping sum makes order irrelevant.
fn add_input(acc: u64, origin: usize, value: u64) -> u64 {
    acc.wrapping_add(value.rotate_left((origin % 63) as u32))
}

impl TaskGraph {
    /// Creates a graph.
    pub fn new(steps: usize, width: usize, pattern: Pattern, kernel: Kernel) -> Self {
        TaskGraph {
            steps,
            width,
            pattern,
            kernel,
        }
    }

    /// Total number of tasks.
    pub fn total_tasks(&self) -> usize {
        self.steps * self.width
    }

    /// Dependencies of (t, i) — see [`Pattern::dependencies`].
    pub fn dependencies(&self, t: usize, i: usize) -> Deps {
        self.pattern.dependencies(t, i, self.width)
    }

    /// Number of dependencies of (t, i) — see
    /// [`Pattern::num_dependencies`].
    pub fn num_dependencies(&self, t: usize, i: usize) -> usize {
        self.pattern.num_dependencies(t, i, self.width)
    }

    /// Reverse dependencies of (t, i) — see
    /// [`Pattern::reverse_dependencies`].
    pub fn reverse_dependencies(&self, t: usize, i: usize) -> Deps {
        self.pattern
            .reverse_dependencies(t, i, self.width, self.steps)
    }

    /// Combines a task's identity with its (sorted-by-origin) dependency
    /// values into its output value. Order-independent in the inputs, so
    /// aggregator arrival order cannot affect correctness — but each
    /// origin contributes distinctly (rotation by origin), so dropping,
    /// duplicating, or mis-attributing any input changes the result.
    pub fn task_value(&self, t: usize, i: usize, dep_values: &[(usize, u64)]) -> u64 {
        let mut acc = mix((t as u64) << 32 | i as u64);
        for &(origin, v) in dep_values {
            acc = add_input(acc, origin, v);
        }
        acc
    }

    /// [`TaskGraph::task_value`] for an implementation that can look its
    /// inputs up by origin (a row of the previous step, however it is
    /// stored): the dependencies are queried here and no list of inputs
    /// is built.
    pub fn task_value_from(&self, t: usize, i: usize, value_of: impl Fn(usize) -> u64) -> u64 {
        let mut acc = mix((t as u64) << 32 | i as u64);
        for &origin in self.dependencies(t, i).iter() {
            acc = add_input(acc, origin, value_of(origin));
        }
        acc
    }

    /// Hands `body` the inputs a data-flow task received, ordered by
    /// origin (Listing 1's sorted insert: an aggregator delivers in
    /// arrival order). Up to [`Deps::INLINE`] inputs are sorted in a
    /// stack array.
    pub fn with_sorted_inputs<R>(
        inputs: impl ExactSizeIterator<Item = (usize, u64)>,
        body: impl FnOnce(&[(usize, u64)]) -> R,
    ) -> R {
        let n = inputs.len();
        let mut inline = [(0usize, 0u64); Deps::INLINE];
        let mut spilled = Vec::new();
        let sorted: &mut [(usize, u64)] = if n <= Deps::INLINE {
            for (slot, input) in inline.iter_mut().zip(inputs) {
                *slot = input;
            }
            &mut inline[..n]
        } else {
            spilled.extend(inputs);
            &mut spilled
        };
        sorted.sort_unstable_by_key(|&(origin, _)| origin);
        body(sorted)
    }

    /// Serial ground truth: the value of every point at the final step.
    pub fn expected_final_row(&self) -> Vec<u64> {
        let mut prev: Vec<u64> = Vec::new();
        let mut cur: Vec<u64> = Vec::new();
        for t in 0..self.steps {
            cur.clear();
            for i in 0..self.width {
                cur.push(self.task_value_from(t, i, |j| prev[j]));
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev
    }

    /// Collapses a final row into one checksum.
    pub fn checksum(row: &[u64]) -> u64 {
        row.iter()
            .enumerate()
            .fold(0u64, |acc, (i, v)| acc ^ v.rotate_left((i % 61) as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g(pattern: Pattern) -> TaskGraph {
        TaskGraph::new(10, 7, pattern, Kernel::Empty)
    }

    #[test]
    fn ground_truth_is_deterministic() {
        for p in Pattern::all(7) {
            let a = g(p).expected_final_row();
            let b = g(p).expected_final_row();
            assert_eq!(a, b, "{p:?}");
            assert_eq!(a.len(), 7);
        }
    }

    #[test]
    fn value_is_input_order_independent_but_origin_sensitive() {
        let graph = g(Pattern::Stencil1D);
        let v1 = graph.task_value(3, 2, &[(1, 10), (2, 20), (3, 30)]);
        let v2 = graph.task_value(3, 2, &[(3, 30), (1, 10), (2, 20)]);
        assert_eq!(v1, v2, "order must not matter");
        let v3 = graph.task_value(3, 2, &[(1, 20), (2, 10), (3, 30)]);
        assert_ne!(v1, v3, "mis-attributed origins must be detected");
    }

    #[test]
    fn different_patterns_give_different_answers() {
        let a = g(Pattern::Stencil1D).expected_final_row();
        let b = g(Pattern::NoComm).expected_final_row();
        assert_ne!(a, b);
    }

    #[test]
    fn checksum_detects_single_cell_corruption() {
        let row = g(Pattern::Stencil1D).expected_final_row();
        let good = TaskGraph::checksum(&row);
        let mut bad = row.clone();
        bad[3] ^= 1;
        assert_ne!(good, TaskGraph::checksum(&bad));
    }
}
