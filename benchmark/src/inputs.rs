//! Seed → inputs. The library only ever sees the generated inputs; the
//! same seed always gives the same ones.
//!
//! Sizes are chosen so that one repetition takes 0.15–0.3 s on the
//! 2-core reference host: long enough that timer and wake-up noise is
//! far below the 10 % bound, short enough that a run fits a warm-up and
//! at least nine timed repetitions per process. Work per repetition
//! varies by under 2 % with the seed; every throughput is per operation.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ttg_mra::tree::MraContext;
use ttg_mra::{Gaussian3, MraParams};

/// `Quick` shrinks every workload to a few milliseconds: correctness
/// checks and the result schema only, no numbers worth comparing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

impl Size {
    fn pick(self, full: u64, quick: u64) -> u64 {
        match self {
            Size::Full => full,
            Size::Quick => quick,
        }
    }
}

/// `base` plus up to 1/64 more, drawn from the seed: sizes differ from
/// seed to seed, but too little to move set-up time or peak memory.
fn jitter(rng: &mut StdRng, base: u64) -> u64 {
    base + rng.gen_range(0..(base / 64).max(1))
}

#[derive(Debug, Clone, PartialEq)]
pub struct ChainInput {
    /// Tasks in the serial chain.
    pub length: u64,
    /// The datum moved from task to task; it must arrive unchanged.
    pub start: i64,
}

impl ChainInput {
    pub fn generate(seed: u64, size: Size) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        ChainInput {
            length: jitter(&mut rng, size.pick(1_200_000, 20_000)),
            start: rng.next_u64() as i64,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct StencilInput {
    pub steps: usize,
    pub width: usize,
    pub flops: u64,
}

impl StencilInput {
    pub fn generate(seed: u64, size: Size) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        StencilInput {
            steps: jitter(&mut rng, size.pick(3_200, 60)) as usize,
            width: 64,
            flops: 100,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MraInput {
    /// Normalized Gaussians with centres uniform in the domain.
    pub funcs: Vec<Gaussian3>,
}

/// The fixed numerical setting of the `mra` workload.
pub fn mra_params() -> MraParams {
    MraParams {
        k: 6,
        eps: 1e-5,
        max_level: 8,
        initial_level: 1,
        domain: (-6.0, 6.0),
    }
}

impl MraInput {
    /// Draws Gaussians until their adaptive trees hold `target` boxes,
    /// to within 9. How deep a Gaussian refines depends on where its
    /// centre falls in the dyadic grid — trees of 9 and of 217 boxes
    /// both occur — so a fixed number of functions would make solve
    /// time and memory swing by 15 % from seed to seed, which is input
    /// variance, not the system's. Every drawn function is kept until
    /// the gap is smaller than the largest tree; the gap is then closed
    /// with repeats of the 9-box functions already drawn.
    pub fn generate(seed: u64, size: Size) -> Self {
        const LARGEST_TREE: usize = 256;
        const SMALLEST_TREE: usize = 9;
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = MraContext::new(mra_params());
        let target = size.pick(3_000, 300) as usize;
        let mut funcs = Vec::new();
        let mut fillers = Vec::new();
        let mut boxes = 0;
        while boxes + LARGEST_TREE < target || fillers.is_empty() {
            let f = Gaussian3::random_set(1, -6.0, 6.0, 100.0, &mut rng)[0];
            let (_, projected, _) = ttg_mra::serial::project(&ctx, &f);
            if projected == SMALLEST_TREE {
                fillers.push(f);
            }
            boxes += projected;
            funcs.push(f);
        }
        for i in 0.. {
            if boxes + SMALLEST_TREE > target {
                break;
            }
            funcs.push(fillers[i % fillers.len()]);
            boxes += SMALLEST_TREE;
        }
        MraInput { funcs }
    }
}

/// Stage tasks per graph a `serve` request may ask for; each graph runs
/// twice that many tasks (stage → collect).
pub const SERVE_GRAPH_SIZES: [u64; 3] = [4, 16, 64];

#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Stage tasks in this graph (one of [`SERVE_GRAPH_SIZES`]).
    pub n: u64,
    /// Offset every stage value carries, so a result routed to the
    /// wrong instance is caught.
    pub base: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ServeInput {
    pub requests: Vec<ServeRequest>,
}

impl ServeInput {
    pub fn generate(seed: u64, size: Size) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let graphs = jitter(&mut rng, size.pick(6_000, 100));
        ServeInput {
            requests: (0..graphs)
                .map(|_| ServeRequest {
                    n: SERVE_GRAPH_SIZES[rng.gen_range(0..SERVE_GRAPH_SIZES.len())],
                    base: rng.gen_range(0..1u64 << 40),
                })
                .collect(),
        }
    }

    /// Tasks the requests unfold into (stage + collect per stage task).
    pub fn total_tasks(&self) -> u64 {
        self.requests.iter().map(|r| 2 * r.n).sum()
    }
}

pub const BURST_MIN_BYTES: usize = 8;
pub const BURST_MAX_BYTES: usize = 1024;

#[derive(Debug, Clone, PartialEq)]
pub struct BurstInput {
    /// Payload size of the i-th message each rank sends in an epoch.
    pub sizes: Vec<u16>,
    /// Mixed into every payload byte after the sequence number.
    pub salt: u8,
}

impl BurstInput {
    pub fn generate(seed: u64, size: Size) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Per direction; an epoch is twice this. At 549 B a message on
        // the wire (mean payload 516 B + 33 B header) one direction of
        // an epoch stays under the transport's 4 MiB resend buffer, so
        // a send can never fail with `ResendOverflow` however late the
        // peer's acks are; 11 000 per direction did fail that way.
        let per_rank = jitter(&mut rng, size.pick(7_000, 200));
        BurstInput {
            sizes: (0..per_rank)
                .map(|_| rng.gen_range(BURST_MIN_BYTES..BURST_MAX_BYTES + 1) as u16)
                .collect(),
            salt: rng.next_u64() as u8,
        }
    }

    /// The payload rank `from` sends as its `i`-th message.
    pub fn payload(&self, from: usize, i: usize) -> Vec<u8> {
        let len = usize::from(self.sizes[i]);
        let mut p = vec![burst_fill(self.salt, from, i); len];
        p[..8].copy_from_slice(&(i as u64).to_le_bytes());
        p
    }

    pub fn payload_bytes(&self) -> u64 {
        2 * self.sizes.iter().map(|&s| u64::from(s)).sum::<u64>()
    }
}

/// The byte that fills message `i` from rank `from` after its header.
pub fn burst_fill(salt: u8, from: usize, i: usize) -> u8 {
    salt ^ (i as u8).wrapping_mul(31) ^ (from as u8).wrapping_mul(0x55)
}

pub const BULK_BYTES: usize = 64 * 1024;

#[derive(Debug, Clone, PartialEq)]
pub struct BulkInput {
    /// The 64 KiB message; its first 8 bytes are overwritten with the
    /// remaining hop count, the rest must arrive unchanged every hop.
    pub pattern: Vec<u8>,
    /// There-and-back trips per repetition.
    pub round_trips: u64,
}

impl BulkInput {
    pub fn generate(seed: u64, size: Size) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let round_trips = jitter(&mut rng, size.pick(200, 10));
        let mut pattern = vec![0u8; BULK_BYTES];
        for chunk in pattern.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        BulkInput {
            pattern,
            round_trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_differs() {
        for size in [Size::Full, Size::Quick] {
            assert_eq!(ChainInput::generate(7, size), ChainInput::generate(7, size));
            assert_eq!(
                StencilInput::generate(7, size),
                StencilInput::generate(7, size)
            );
            assert_eq!(MraInput::generate(7, size), MraInput::generate(7, size));
            assert_eq!(ServeInput::generate(7, size), ServeInput::generate(7, size));
            assert_eq!(BurstInput::generate(7, size), BurstInput::generate(7, size));
            assert_eq!(BulkInput::generate(7, size), BulkInput::generate(7, size));
        }
        assert_ne!(
            ChainInput::generate(7, Size::Full),
            ChainInput::generate(8, Size::Full)
        );
        assert_ne!(
            ServeInput::generate(7, Size::Full),
            ServeInput::generate(8, Size::Full)
        );
        assert_ne!(
            BulkInput::generate(7, Size::Full),
            BulkInput::generate(8, Size::Full)
        );
    }

    #[test]
    fn generated_inputs_stay_in_their_stated_ranges() {
        let serve = ServeInput::generate(3, Size::Full);
        assert!(serve
            .requests
            .iter()
            .all(|r| SERVE_GRAPH_SIZES.contains(&r.n)));
        assert!(serve.total_tasks() >= 2 * 4 * serve.requests.len() as u64);
        let burst = BurstInput::generate(3, Size::Full);
        assert!(burst
            .sizes
            .iter()
            .all(|&s| (BURST_MIN_BYTES..=BURST_MAX_BYTES).contains(&usize::from(s))));
        let p = burst.payload(1, 5);
        assert_eq!(p.len(), usize::from(burst.sizes[5]));
        assert_eq!(u64::from_le_bytes(p[..8].try_into().unwrap()), 5);
        assert_eq!(BulkInput::generate(3, Size::Full).pattern.len(), BULK_BYTES);
    }
}
