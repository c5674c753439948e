//! The result of a dependence query: a list of points that lives on the
//! stack while it is short.
//!
//! Every Task-Bench implementation queries a task's predecessors and
//! successors once or twice per task. The paper's patterns have at most
//! three of each, so a [`Deps`] holds up to [`Deps::INLINE`] points in
//! place — no heap allocation per query, in any programming model — and
//! only moves to the heap for the wide patterns (`all_to_all`, `dom`,
//! large `spread`).

use std::ops::{Deref, DerefMut};

/// Points in ascending order. Derefs to a slice; iterates by value or
/// by reference like the `Vec<usize>` it replaces.
#[derive(Debug, Clone)]
pub enum Deps {
    /// `points[..len]` are the list.
    Inline {
        /// Number of points held.
        len: usize,
        /// Storage; the tail beyond `len` is zero.
        points: [usize; Deps::INLINE],
    },
    /// The list outgrew the inline room.
    Spilled(Vec<usize>),
}

impl Deps {
    /// How many points fit without allocating.
    pub const INLINE: usize = 8;

    /// An empty list.
    #[inline]
    pub const fn new() -> Self {
        Deps::Inline {
            len: 0,
            points: [0; Deps::INLINE],
        }
    }

    /// The points `first..=last`: what the contiguous patterns (stencil,
    /// no-comm, dom, all-to-all) return, built without a loop of pushes
    /// when it fits inline.
    #[inline]
    pub fn span(first: usize, last: usize) -> Self {
        let len = last + 1 - first;
        if len > Deps::INLINE {
            return Deps::Spilled((first..=last).collect());
        }
        let mut points = [0; Deps::INLINE];
        for (k, point) in points.iter_mut().enumerate() {
            *point = first + k;
        }
        Deps::Inline { len, points }
    }

    /// Appends `point`.
    #[inline]
    pub fn push(&mut self, point: usize) {
        match self {
            Deps::Inline { len, points } if *len < Deps::INLINE => {
                points[*len] = point;
                *len += 1;
            }
            Deps::Inline { points, .. } => {
                let mut all = Vec::with_capacity(2 * Deps::INLINE);
                all.extend_from_slice(points);
                all.push(point);
                *self = Deps::Spilled(all);
            }
            Deps::Spilled(all) => all.push(point),
        }
    }

    /// Sorts the list and drops repeated points.
    pub fn sort_dedup(&mut self) {
        self.sort_unstable();
        let mut kept = 0;
        for next in 0..self.len() {
            if kept == 0 || self[kept - 1] != self[next] {
                self[kept] = self[next];
                kept += 1;
            }
        }
        match self {
            Deps::Inline { len, .. } => *len = kept,
            Deps::Spilled(all) => all.truncate(kept),
        }
    }
}

impl Default for Deps {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for Deps {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        match self {
            Deps::Inline { len, points } => &points[..*len],
            Deps::Spilled(all) => all,
        }
    }
}

impl DerefMut for Deps {
    #[inline]
    fn deref_mut(&mut self) -> &mut [usize] {
        match self {
            Deps::Inline { len, points } => &mut points[..*len],
            Deps::Spilled(all) => all,
        }
    }
}

impl FromIterator<usize> for Deps {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut deps = Deps::new();
        for point in iter {
            deps.push(point);
        }
        deps
    }
}

impl<U: AsRef<[usize]>> PartialEq<U> for Deps {
    fn eq(&self, other: &U) -> bool {
        **self == *other.as_ref()
    }
}

/// By-value iterator over a [`Deps`].
#[derive(Debug)]
pub struct DepsIter {
    deps: Deps,
    next: usize,
}

impl Iterator for DepsIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        let point = *self.deps.get(self.next)?;
        self.next += 1;
        Some(point)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.deps.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for DepsIter {}

impl IntoIterator for Deps {
    type Item = usize;
    type IntoIter = DepsIter;

    #[inline]
    fn into_iter(self) -> DepsIter {
        DepsIter {
            deps: self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for &'a Deps {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_eight_then_spills_keeping_order() {
        for n in [0usize, 1, 8, 9, 40] {
            let deps: Deps = (0..n).collect();
            assert_eq!(deps, (0..n).collect::<Vec<_>>());
            assert_eq!(matches!(deps, Deps::Inline { .. }), n <= Deps::INLINE);
            let by_value = deps.clone().into_iter();
            assert_eq!(by_value.len(), n);
            assert_eq!(by_value.collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert_eq!((&deps).into_iter().count(), n);
        }
    }

    #[test]
    fn sort_dedup_works_on_both_sides_of_the_spill() {
        let mut small: Deps = [3usize, 1, 3, 2, 1].into_iter().collect();
        small.sort_dedup();
        assert_eq!(small, [1, 2, 3]);
        let mut large: Deps = (0..20).map(|k| 19 - k / 2).collect();
        large.sort_dedup();
        assert_eq!(large, (10..20).collect::<Vec<_>>());
    }
}
