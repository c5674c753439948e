//! Property tests: every implementation must agree with the serial
//! oracle on *arbitrary* graph shapes, and the patterns/kernels must
//! satisfy their structural invariants for arbitrary parameters.

use proptest::prelude::*;
use ttg_task_bench::{Implementation, Kernel, Pattern, TaskGraph};

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        Just(Pattern::Trivial),
        Just(Pattern::NoComm),
        Just(Pattern::Stencil1D),
        Just(Pattern::Stencil1DPeriodic),
        Just(Pattern::Fft),
        Just(Pattern::AllToAll),
        (1usize..5).prop_map(|count| Pattern::Spread { count }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The concurrent implementations reproduce the serial checksum on
    /// random (steps, width, pattern) combinations.
    #[test]
    fn implementations_match_serial_on_random_graphs(
        steps in 1usize..12,
        width in 1usize..10,
        pattern in pattern_strategy(),
    ) {
        let graph = TaskGraph::new(steps, width, pattern, Kernel::Empty);
        let expected = TaskGraph::checksum(&graph.expected_final_row());
        for imp in [
            Implementation::Ttg { optimized: true },
            Implementation::OmpTask,
            Implementation::Mpi,
            Implementation::Ptg { optimized: true },
        ] {
            let mut runner = imp.build(2);
            let got = runner.run(&graph).checksum;
            prop_assert_eq!(
                got, expected,
                "{} diverged on {}x{} {:?}", runner.name(), steps, width, pattern
            );
        }
    }

    /// Forward/backward dependence queries mirror exactly for arbitrary
    /// widths (beyond the fixed sizes of the unit tests).
    #[test]
    fn dependence_mirror_property(
        width in 1usize..40,
        t in 1usize..8,
        pattern in pattern_strategy(),
    ) {
        let steps = t + 2;
        for i in 0..width {
            for j in pattern.dependencies(t, i, width) {
                prop_assert!(j < width);
                prop_assert!(
                    pattern
                        .reverse_dependencies(t - 1, j, width, steps)
                        .contains(&i)
                );
            }
            for s in pattern.reverse_dependencies(t, i, width, steps) {
                prop_assert!(s < width);
                prop_assert!(pattern.dependencies(t + 1, s, width).contains(&i));
            }
        }
    }

    /// Dependency lists are sorted-unique and bounded by the declared
    /// maximum.
    #[test]
    fn dependency_lists_are_clean(
        width in 1usize..30,
        t in 0usize..6,
        i in 0usize..30,
        pattern in pattern_strategy(),
    ) {
        let i = i % width;
        let deps = pattern.dependencies(t, i, width);
        let mut sorted = deps.clone();
        sorted.sort_dedup();
        prop_assert_eq!(&deps.len(), &sorted.len(), "duplicates in {:?}", deps);
        prop_assert!(deps.len() <= pattern.max_dependencies(width));
        prop_assert_eq!(deps.len(), pattern.num_dependencies(t, i, width));
        if t == 0 {
            prop_assert!(deps.is_empty());
        }
    }

    /// The ground-truth value function is origin-sensitive and
    /// permutation-invariant for arbitrary inputs.
    #[test]
    fn task_value_properties(
        vals in proptest::collection::vec((0usize..16, any::<u64>()), 0..8),
        t in 0usize..100,
        i in 0usize..100,
    ) {
        let g = TaskGraph::new(10, 16, Pattern::Stencil1D, Kernel::Empty);
        let a = g.task_value(t, i, &vals);
        let mut rev = vals.clone();
        rev.reverse();
        prop_assert_eq!(a, g.task_value(t, i, &rev), "order must not matter");
        // Changing any contribution changes the result (w.h.p.).
        if let Some(first) = vals.first() {
            let mut tweaked = vals.clone();
            tweaked[0] = (first.0, first.1.wrapping_add(1));
            prop_assert_ne!(a, g.task_value(t, i, &tweaked));
        }
    }
}
