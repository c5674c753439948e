//! Bit-exact output of the MRA pipeline for fixed seeded Gaussians, at
//! k = 6 (the `mra` benchmark's setting) and k = 10 (the paper's order,
//! ε and exponent). Each case hashes the bit pattern of every
//! coefficient `MraTtg::run` produces (leaves, roots, reconstructed
//! leaves) and every one `serial::run` produces (leaves, root,
//! residuals, reconstructed leaves). The other MRA tests compare within
//! 1e-10 to 1e-12; these pin every bit, so a kernel change that moves a
//! single rounding fails here. The constants were computed with the
//! portable single-mode pass, before any vector pass existed.

use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use ttg_mra::tree::{BoxKey, MraContext, MraParams};
use ttg_mra::{Gaussian3, MraTtg, Tensor3};
use ttg_runtime::{Runtime, RuntimeConfig};

/// FNV-1a, fed 64-bit words a byte at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn key(&mut self, f: u32, key: &BoxKey) {
        self.word(f as u64);
        self.word(key.n as u64);
        for l in key.l {
            self.word(l as u64);
        }
    }

    fn tensor(&mut self, t: &Tensor3) {
        self.word(t.k() as u64);
        for v in t.data() {
            self.word(v.to_bits());
        }
    }

    /// Every entry of `map` in key order, each key before its tensor.
    fn map<K: Ord>(&mut self, map: &HashMap<K, Tensor3>, key: impl Fn(&mut Self, &K)) {
        let mut entries: Vec<_> = map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        self.word(entries.len() as u64);
        for (k, t) in entries {
            key(self, k);
            self.tensor(t);
        }
    }
}

/// (hash of `MraTtg::run` on one worker, hash of `serial::run` per
/// function) for `n` Gaussians drawn from `seed` as `fig12_mra` draws
/// them.
fn hashes(params: MraParams, seed: u64, n: usize, exponent: f64) -> (u64, u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let funcs = Gaussian3::random_set(n, -6.0, 6.0, exponent, &mut rng);
    let ctx = Arc::new(MraContext::new(params));

    let runtime = Arc::new(Runtime::new(RuntimeConfig::optimized(1)));
    let out = MraTtg::new(Arc::clone(&ctx)).run(&runtime, &funcs);
    assert_eq!(out.stats.leaves, out.stats.reconstructed);
    let mut ttg = Fnv::new();
    ttg.map(&out.leaves, |h, (f, k)| h.key(*f, k));
    ttg.map(&out.roots, |h, f| h.word(*f as u64));
    ttg.map(&out.reconstructed, |h, (f, k)| h.key(*f, k));

    let mut serial = Fnv::new();
    for f in &funcs {
        let run = ttg_mra::serial::run(&ctx, f);
        serial.map(&run.leaves, |h, k| h.key(0, k));
        serial.tensor(&run.root);
        let mut residuals: Vec<_> = run.residuals.iter().collect();
        residuals.sort_by_key(|(k, _)| **k);
        for (k, r) in residuals {
            serial.key(0, k);
            r.iter().for_each(|t| serial.tensor(t));
        }
        serial.map(&run.reconstructed, |h, k| h.key(0, k));
    }
    (ttg.0, serial.0)
}

#[test]
fn k6_benchmark_setting_is_bit_exact() {
    let params = MraParams {
        k: 6,
        eps: 1e-5,
        max_level: 8,
        initial_level: 1,
        domain: (-6.0, 6.0),
    };
    let (ttg, serial) = hashes(params, 1, 4, 100.0);
    assert_eq!(
        (ttg, serial),
        (0xd3ba_6d51_88f1_d105, 0xfe95_1a6a_31e9_6c8d),
        "k = 6: got {ttg:#018x}, {serial:#018x}"
    );
}

#[test]
fn k10_paper_setting_is_bit_exact() {
    let params = MraParams {
        k: 10,
        eps: 1e-8,
        max_level: 20,
        initial_level: 2,
        domain: (-6.0, 6.0),
    };
    let (ttg, serial) = hashes(params, 42, 2, 30_000.0);
    assert_eq!(
        (ttg, serial),
        (0x8d4d_4de6_a847_b517, 0x6ca7_ddea_7445_2cdd),
        "k = 10: got {ttg:#018x}, {serial:#018x}"
    );
}
