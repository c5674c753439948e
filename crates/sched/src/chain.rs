//! Sorted chains of scheduler nodes.
//!
//! Section IV-C: "the insertion of tasks into the single-linked list
//! requires O(N) steps … We mitigate this by bundling new tasks into
//! sorted lists that are then inserted in one pass. Moreover, new tasks
//! will be inserted *before* old tasks that have the same priority,
//! implicitly prioritizing tasks that may consume data already in the
//! cache."
//!
//! A [`SortedChain`] is a privately owned singly linked list of
//! [`SchedNode`]s in non-increasing priority order. It is the unit the
//! LLP/LL queues attach, detach, and merge.

use crate::{Priority, SchedNode};
use std::ptr::NonNull;

/// A privately owned, priority-sorted (non-increasing) chain of nodes.
///
/// All link manipulation happens through `&mut self` on a chain no other
/// thread can observe, so no atomics are involved until the chain is
/// published to a queue head.
#[derive(Debug)]
pub struct SortedChain {
    head: *mut SchedNode,
    tail: *mut SchedNode,
    len: usize,
}

// SAFETY: the chain owns its nodes exclusively.
unsafe impl Send for SortedChain {}

impl SortedChain {
    /// An empty chain.
    pub fn new() -> Self {
        SortedChain {
            head: std::ptr::null_mut(),
            tail: std::ptr::null_mut(),
            len: 0,
        }
    }

    /// Builds a chain from a raw detached list (e.g. a queue head that
    /// was CASed out).
    ///
    /// # Safety
    ///
    /// Caller must exclusively own the entire list reachable from `head`,
    /// and it must already be sorted in non-increasing priority order.
    pub(crate) unsafe fn from_raw(head: *mut SchedNode) -> Self {
        let mut len = 0;
        let mut tail = std::ptr::null_mut();
        let mut cur = head;
        while !cur.is_null() {
            len += 1;
            tail = cur;
            // SAFETY: we own the list (caller contract).
            cur = unsafe { (*cur).next() };
        }
        SortedChain { head, tail, len }
    }

    /// Number of nodes in the chain.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chain holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Priority of the first (highest-priority) node, if any.
    pub fn head_priority(&self) -> Option<Priority> {
        // SAFETY: we own the nodes.
        (!self.head.is_null()).then(|| unsafe { (*self.head).priority })
    }

    /// Priority of the last (lowest-priority) node, if any.
    pub fn tail_priority(&self) -> Option<Priority> {
        // SAFETY: we own the nodes.
        (!self.tail.is_null()).then(|| unsafe { (*self.tail).priority })
    }

    /// Inserts one node, keeping the chain sorted. New nodes are placed
    /// *before* existing nodes of equal priority (cache-warmth rule).
    pub fn insert(&mut self, node: NonNull<SchedNode>) {
        let n = node.as_ptr();
        // SAFETY: the caller hands over ownership of `node`; all other
        // nodes are ours.
        unsafe {
            let prio = (*n).priority;
            if self.head.is_null() || (*self.head).priority <= prio {
                (*n).set_next(self.head);
                if self.head.is_null() {
                    self.tail = n;
                }
                self.head = n;
            } else {
                // Find the last node with strictly greater priority.
                let mut cur = self.head;
                while !(*cur).next().is_null() && (*(*cur).next()).priority > prio {
                    cur = (*cur).next();
                }
                (*n).set_next((*cur).next());
                (*cur).set_next(n);
                if (*n).next().is_null() {
                    self.tail = n;
                }
            }
        }
        self.len += 1;
    }

    /// Removes and returns the head (highest-priority) node.
    pub fn pop_front(&mut self) -> Option<NonNull<SchedNode>> {
        if self.head.is_null() {
            return None;
        }
        let n = self.head;
        // SAFETY: we own the chain.
        unsafe {
            self.head = (*n).next();
            (*n).set_next(std::ptr::null_mut());
        }
        if self.head.is_null() {
            self.tail = std::ptr::null_mut();
        }
        self.len -= 1;
        NonNull::new(n)
    }

    /// Merges `other` into `self` in one pass (both sorted). Nodes from
    /// `other` are treated as *newer*: at equal priority they come first.
    pub fn merge(&mut self, other: SortedChain) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        // SAFETY: both chains are exclusively owned.
        unsafe {
            let mut dst_head: *mut SchedNode = std::ptr::null_mut();
            let mut dst_tail: *mut SchedNode = std::ptr::null_mut();
            let mut a = other.head; // newer: wins ties
            let mut b = self.head;
            let mut append = |n: *mut SchedNode| {
                if dst_head.is_null() {
                    dst_head = n;
                } else {
                    (*dst_tail).set_next(n);
                }
                dst_tail = n;
            };
            while !a.is_null() && !b.is_null() {
                if (*a).priority >= (*b).priority {
                    let next = (*a).next();
                    append(a);
                    a = next;
                } else {
                    let next = (*b).next();
                    append(b);
                    b = next;
                }
            }
            let rest = if a.is_null() { b } else { a };
            if !rest.is_null() {
                append(rest);
                // Fast-forward tail to the true end.
                while !(*dst_tail).next().is_null() {
                    dst_tail = (*dst_tail).next();
                }
            } else {
                (*dst_tail).set_next(std::ptr::null_mut());
            }
            self.head = dst_head;
            self.tail = dst_tail;
        }
        self.len += other.len;
    }

    /// Disassembles the chain into `(head, tail, len)` for publication to
    /// a queue head. The caller takes over ownership of the raw list.
    pub(crate) fn into_raw(self) -> (*mut SchedNode, *mut SchedNode, usize) {
        (self.head, self.tail, self.len)
    }

    /// Iterates the chain's priorities (diagnostics/tests).
    pub fn priorities(&self) -> Vec<Priority> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: we own the chain.
            unsafe {
                out.push((*cur).priority);
                cur = (*cur).next();
            }
        }
        out
    }
}

impl Default for SortedChain {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(prio: i32) -> NonNull<SchedNode> {
        NonNull::from(Box::leak(Box::new(SchedNode::new(prio))))
    }

    fn free(chain: &mut SortedChain) {
        while let Some(n) = chain.pop_front() {
            // SAFETY: nodes were leaked Boxes in `mk`.
            drop(unsafe { Box::from_raw(n.as_ptr()) });
        }
    }

    #[test]
    fn insert_keeps_sorted_new_before_equal() {
        let mut c = SortedChain::new();
        for p in [5, 1, 3, 3, 9, 1] {
            c.insert(mk(p));
        }
        assert_eq!(c.priorities(), vec![9, 5, 3, 3, 1, 1]);
        assert_eq!(c.len(), 6);
        assert_eq!(c.head_priority(), Some(9));
        assert_eq!(c.tail_priority(), Some(1));
        free(&mut c);
    }

    #[test]
    fn pop_front_returns_descending() {
        let mut c = SortedChain::new();
        for p in [2, 8, 4] {
            c.insert(mk(p));
        }
        let mut got = Vec::new();
        while let Some(n) = c.pop_front() {
            // SAFETY: test nodes.
            got.push(unsafe { n.as_ref().priority });
            // SAFETY: a Box leaked by `mk`, popped once.
            drop(unsafe { Box::from_raw(n.as_ptr()) });
        }
        assert_eq!(got, vec![8, 4, 2]);
        assert!(c.is_empty());
        assert_eq!(c.head_priority(), None);
    }

    #[test]
    fn merge_interleaves_and_prefers_newer_on_ties() {
        let mut old = SortedChain::new();
        for p in [7, 5, 3] {
            old.insert(mk(p));
        }
        let mut newer = SortedChain::new();
        for p in [6, 5, 2] {
            newer.insert(mk(p));
        }
        old.merge(newer);
        assert_eq!(old.priorities(), vec![7, 6, 5, 5, 3, 2]);
        assert_eq!(old.len(), 6);
        // Tail must be the true last node.
        assert_eq!(old.tail_priority(), Some(2));
        free(&mut old);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = SortedChain::new();
        a.merge(SortedChain::new());
        assert!(a.is_empty());
        let mut b = SortedChain::new();
        b.insert(mk(1));
        a.merge(b);
        assert_eq!(a.len(), 1);
        let mut c = SortedChain::new();
        c.insert(mk(2));
        c.merge(SortedChain::new());
        assert_eq!(c.priorities(), vec![2]);
        free(&mut a);
        free(&mut c);
    }

    #[test]
    fn from_raw_reconstructs_len_and_tail() {
        let mut c = SortedChain::new();
        for p in [4, 2, 6] {
            c.insert(mk(p));
        }
        let (head, _, _) = c.into_raw();
        // SAFETY: we own the list we just disassembled.
        let mut c2 = unsafe { SortedChain::from_raw(head) };
        assert_eq!(c2.len(), 3);
        assert_eq!(c2.priorities(), vec![6, 4, 2]);
        assert_eq!(c2.tail_priority(), Some(2));
        free(&mut c2);
    }
}
