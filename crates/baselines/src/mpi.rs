//! MPI-style rank-per-thread message passing.
//!
//! Models the `MPI` series of the paper's figures: an SPMD program where
//! every rank owns its data and exchanges explicit messages. There is no
//! task runtime whatsoever — per-"task" cost is just the user code plus
//! matching sends/receives — which is exactly why pure MPI achieves "the
//! lowest per-task execution time" on a single core (Figure 7a) and why
//! the paper attributes that to "no task handling overhead".
//!
//! Ranks are threads; point-to-point channels play the role of the
//! network. Messages are tagged; receives match (source, tag) with
//! out-of-order buffering, like MPI's envelope matching.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};

/// A tagged message envelope.
#[derive(Debug)]
struct Envelope {
    tag: u64,
    payload: Vec<u8>,
}

/// Per-rank communicator handle.
pub struct Comm {
    rank: usize,
    size: usize,
    /// senders[d] sends to rank d.
    senders: Vec<Sender<(usize, Envelope)>>,
    /// Our inbox (src carried in the message).
    inbox: Receiver<(usize, Envelope)>,
    /// Out-of-order buffer: (src, tag) → queued payloads.
    pending: HashMap<(usize, u64), Vec<Vec<u8>>>,
    barrier: Arc<Barrier>,
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Sends `payload` to `dst` with `tag` (non-blocking, buffered —
    /// like an eager-protocol `MPI_Send`).
    pub fn send(&self, dst: usize, tag: u64, payload: Vec<u8>) {
        self.senders[dst]
            .send((self.rank, Envelope { tag, payload }))
            .expect("destination rank exited before receiving");
    }

    /// Blocking receive matching `(src, tag)`.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<u8> {
        if let Some(q) = self.pending.get_mut(&(src, tag)) {
            if !q.is_empty() {
                return q.remove(0);
            }
        }
        loop {
            let (from, env) = self.inbox.recv().expect("all peers exited while receiving");
            if from == src && env.tag == tag {
                return env.payload;
            }
            self.pending
                .entry((from, env.tag))
                .or_default()
                .push(env.payload);
        }
    }

    /// Sends `msg` to `dst` and receives from `src` with the same tag —
    /// `MPI_Sendrecv`, the halo-exchange workhorse.
    pub fn sendrecv(&mut self, dst: usize, src: usize, tag: u64, msg: Vec<u8>) -> Vec<u8> {
        self.send(dst, tag, msg);
        self.recv(src, tag)
    }

    /// Synchronizes all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Helper: encode a f64 slice (little-endian).
    pub fn pack_f64(data: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() * 8);
        for v in data {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Helper: decode a f64 vector.
    pub fn unpack_f64(bytes: &[u8]) -> Vec<f64> {
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// The "world": runs an SPMD closure on every rank and collects results.
pub struct MpiWorld;

impl MpiWorld {
    /// Runs `body(comm)` on `nranks` rank-threads, returning each rank's
    /// result in rank order.
    ///
    /// # Examples
    ///
    /// ```
    /// use ttg_baselines::MpiWorld;
    ///
    /// // Ring token pass.
    /// let results = MpiWorld::run(3, |mut comm| {
    ///     let me = comm.rank();
    ///     let n = comm.size();
    ///     if me == 0 {
    ///         comm.send(1, 0, vec![1]);
    ///         comm.recv(n - 1, 0)[0]
    ///     } else {
    ///         let v = comm.recv(me - 1, 0)[0];
    ///         comm.send((me + 1) % n, 0, vec![v + 1]);
    ///         v
    ///     }
    /// });
    /// assert_eq!(results, vec![3, 1, 2]);
    /// ```
    pub fn run<R: Send>(nranks: usize, body: impl Fn(Comm) -> R + Send + Sync) -> Vec<R> {
        let nranks = nranks.max(1);
        let mut senders = Vec::with_capacity(nranks);
        let mut inboxes = Vec::with_capacity(nranks);
        for _ in 0..nranks {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        let barrier = Arc::new(Barrier::new(nranks));
        let mut results: Vec<Option<R>> = (0..nranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let body = &body;
            let handles: Vec<_> = inboxes
                .into_iter()
                .enumerate()
                .map(|(rank, inbox)| {
                    let comm = Comm {
                        rank,
                        size: nranks,
                        senders: senders.clone(),
                        inbox,
                        pending: HashMap::new(),
                        barrier: Arc::clone(&barrier),
                    };
                    scope.spawn(move || body(comm))
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank panicked"));
            }
        });
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_token() {
        let results = MpiWorld::run(4, |mut comm| {
            let me = comm.rank();
            let n = comm.size();
            if me == 0 {
                comm.send(1, 0, vec![10]);
                comm.recv(n - 1, 0)[0]
            } else {
                let v = comm.recv(me - 1, 0)[0];
                comm.send((me + 1) % n, 0, vec![v + 1]);
                v
            }
        });
        assert_eq!(results, vec![13, 10, 11, 12]);
    }

    #[test]
    fn tag_matching_buffers_out_of_order() {
        let results = MpiWorld::run(2, |mut comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1.
                comm.send(1, 2, vec![2]);
                comm.send(1, 1, vec![1]);
                0
            } else {
                // Receive in the opposite order.
                let a = comm.recv(0, 1)[0];
                let b = comm.recv(0, 2)[0];
                (a * 10 + b) as i32
            }
        });
        assert_eq!(results[1], 12);
    }

    #[test]
    fn halo_exchange_stencil_step() {
        // Each rank owns 4 cells; one Jacobi-like step with halo exchange
        // must equal the serial result.
        const W: usize = 4;
        const RANKS: usize = 3;
        let serial: Vec<f64> = {
            let all_cells: Vec<f64> = (0..W * RANKS).map(|i| i as f64).collect();
            (0..W * RANKS)
                .map(|i| {
                    let l = if i == 0 { 0.0 } else { all_cells[i - 1] };
                    let r = if i == W * RANKS - 1 {
                        0.0
                    } else {
                        all_cells[i + 1]
                    };
                    l + all_cells[i] + r
                })
                .collect()
        };
        let results = MpiWorld::run(RANKS, |mut comm| {
            let me = comm.rank();
            let mine: Vec<f64> = (me * W..(me + 1) * W).map(|i| i as f64).collect();
            // Exchange halos.
            let left = if me > 0 {
                comm.send(me - 1, 7, Comm::pack_f64(&mine[..1]));
                Some(Comm::unpack_f64(&comm.recv(me - 1, 7))[0])
            } else {
                None
            };
            let right = if me + 1 < comm.size() {
                comm.send(me + 1, 7, Comm::pack_f64(&mine[W - 1..]));
                Some(Comm::unpack_f64(&comm.recv(me + 1, 7))[0])
            } else {
                None
            };
            (0..W)
                .map(|i| {
                    let l = if i == 0 {
                        left.unwrap_or(0.0)
                    } else {
                        mine[i - 1]
                    };
                    let r = if i == W - 1 {
                        right.unwrap_or(0.0)
                    } else {
                        mine[i + 1]
                    };
                    l + mine[i] + r
                })
                .collect::<Vec<f64>>()
        });
        let flat: Vec<f64> = results.into_iter().flatten().collect();
        assert_eq!(flat, serial);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arrived = AtomicUsize::new(0);
        MpiWorld::run(4, |comm| {
            arrived.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            assert_eq!(arrived.load(Ordering::SeqCst), 4, "barrier too early");
        });
    }
}
