//! Wire format for active messages and termination control traffic.
//!
//! Every frame is length-prefixed and integrity-checked so a receiver
//! thread can read from a byte stream without knowing handler payload
//! layouts, and a flipped bit anywhere in the body is detected rather
//! than executed:
//!
//! ```text
//! [u32 body_len (LE)] [u32 crc32 (LE)] [u8 kind] [i32 priority (LE)] [u32 handler (LE)] [u64 span (LE)] [u64 seq (LE)] [payload ...]
//! ```
//!
//! `body_len` counts everything after the CRC word; `crc32` is the
//! IEEE/zlib CRC over exactly those `body_len` bytes. Data frames carry
//! a registered handler id plus an opaque payload; control frames reuse
//! the same layout with `handler`/`priority` reinterpreted per kind (see
//! [`FrameKind`]), which keeps the codec to a single code path.
//!
//! `span` is the request-scoped span context of the sending task
//! (`ttg_runtime::obs::spans` packing; 0 = unattributed). It is part
//! of the fixed header *unconditionally* — builds with the `obs` feature off
//! simply send 0 — so mixed-feature deployments stay wire-compatible.
//! Note the header grew from 9 to 17 bytes when the field was added:
//! peers from before the change cannot talk to peers after it (the CRC
//! rejects the mismatch loudly rather than misparsing).
//!
//! `seq` is the per-peer delivery sequence number assigned by the
//! transport to replayable frames (0 = unsequenced, e.g. handshake and
//! heartbeat traffic, or transports without a resend buffer). It drives
//! receiver-side duplicate suppression when unacknowledged frames are
//! replayed after a connection rejoin. Like `span`, adding it grew the
//! header (17 → 25 bytes): old and new peers cannot interoperate, and
//! the CRC makes the mismatch loud.
//!
//! Decoding distinguishes three outcomes ([`Decoded`]): a frame, a
//! clean EOF at a frame boundary, and a *corrupt* frame (bad CRC, bad
//! kind byte, implausible length). Corruption is not an `io::Error`:
//! the caller counts it and decides the link's fate (the TCP transport
//! declares the peer lost — once framing is untrustworthy, skipping a
//! frame would silently unbalance the termination wave).

use std::io::{self, BufRead, Read, Write};

/// Discriminates frame roles on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Active message for a registered handler; scheduled at `priority`.
    Data = 0,
    /// Peer handshake: `handler` = sender's rank; payload byte 0 is 1
    /// when this connection replaces a dropped one (reconnect).
    Hello = 1,
    /// Rank tells the coordinator it entered a termination fence:
    /// `handler` = rank, payload = u64 epoch.
    EnterFence = 2,
    /// Coordinator opens a wave round: `handler` = round number.
    RoundBegin = 3,
    /// Rank contributes counters for a round: `handler` = rank,
    /// payload = u64 round, u64 sent, u64 received.
    Contribute = 4,
    /// Coordinator announces global termination of an epoch:
    /// payload = u64 epoch.
    Terminated = 5,
    /// Orderly connection shutdown after an epoch completes.
    Goodbye = 6,
    /// Payload-free liveness probe sent on idle links; consumed by the
    /// transport, never delivered to the sink.
    Heartbeat = 7,
    /// A rank aborts a wave epoch: `handler` = origin rank, payload =
    /// u64 epoch followed by a UTF-8 diagnostic.
    Abort = 8,
    /// Cumulative delivery acknowledgement: `handler` = sender's rank,
    /// payload = u64 highest sequence number received in order from the
    /// destination. Lets the destination trim its resend buffer; never
    /// delivered to the sink, never itself sequenced.
    Ack = 9,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => FrameKind::Data,
            1 => FrameKind::Hello,
            2 => FrameKind::EnterFence,
            3 => FrameKind::RoundBegin,
            4 => FrameKind::Contribute,
            5 => FrameKind::Terminated,
            6 => FrameKind::Goodbye,
            7 => FrameKind::Heartbeat,
            8 => FrameKind::Abort,
            9 => FrameKind::Ack,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Role of the frame (data vs control).
    pub kind: FrameKind,
    /// Scheduling priority carried to the destination (data frames).
    pub priority: i32,
    /// Registered handler id (data) or kind-specific word (control).
    pub handler: u32,
    /// Request-scoped span context of the sending task (0 =
    /// unattributed; always 0 for control frames).
    pub span: u64,
    /// Per-peer delivery sequence number (0 = unsequenced). Assigned by
    /// the transport when the frame enters a resend buffer; receivers
    /// use it for duplicate suppression after a rejoin replay.
    pub seq: u64,
    /// Opaque handler payload (data) or kind-specific words (control).
    pub payload: Vec<u8>,
}

/// Outcome of reading one frame off a stream.
#[derive(Debug)]
pub enum Decoded {
    /// A well-formed, integrity-checked frame.
    Frame(Frame),
    /// Clean EOF at a frame boundary (peer closed without Goodbye).
    Eof,
    /// The stream delivered bytes that are not a valid frame; `detail`
    /// says what failed (CRC, kind byte, length bounds). The stream
    /// position is undefined afterwards — resynchronization is not
    /// attempted.
    Corrupt {
        /// What the decoder rejected.
        detail: String,
    },
}

/// Fixed bytes after the CRC word: kind + priority + handler + span +
/// seq.
const HEADER_LEN: usize = 1 + 4 + 4 + 8 + 8;

/// Bytes every frame starts with: length word, CRC word, fixed header.
/// No frame on the wire is shorter, so a reader may ask for this many
/// bytes before it has validated anything.
pub(crate) const PREFIX_LEN: usize = 4 + 4 + HEADER_LEN;

/// Refuse frames larger than this (corrupt length words otherwise turn
/// into multi-gigabyte allocations).
pub const MAX_FRAME_LEN: usize = 64 << 20;

// ---- CRC32 (IEEE 802.3 / zlib polynomial), hand-rolled -----------------
// No new dependencies. The reflected algorithm with polynomial
// 0xEDB88320, in three kernels that produce the same register:
// slicing-by-8 over eight 256-entry tables computed at compile time
// (portable; also short inputs and tails), and on x86_64 two carry-less
// multiply folds, 128 bits wide from `clmul::MIN_LEN` bytes and 512 bits
// wide from `clmul::WIDE_MIN_LEN` (see `clmul::Fold::for_len`).

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; entry `i` of
/// `CRC32_TABLES[k]` is the register after byte `i` and then `k` zero
/// bytes, which is what lets eight input bytes be consumed per step.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Streaming update: feed chunks with `state` starting at `!0` and
/// finish with `^ !0` (what [`crc32`] does in one call). Any split of
/// the input into chunks yields the same register.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(fold) = clmul::Fold::for_len(bytes.len()) {
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        return crc32_slice8(fold.run(state, blocks), tail);
    }
    crc32_slice8(state, bytes)
}

/// Portable kernel: eight bytes per step, one lookup in each table.
fn crc32_slice8(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ state;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Carry-less-multiply CRC32 (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009, the
/// bit-reflected variant): the message is a polynomial over GF(2), and
/// folding a stretch of it forward by n bits is two carry-less
/// multiplies by x^n mod P. Two folds share one tail:
///
/// * [`fold`] (`pclmulqdq`, 64 B and up) keeps four 128-bit lanes and
///   folds each by x^512 onto the next 64 bytes;
/// * [`fold_wide`] (`avx512f` + `vpclmulqdq`, 256 B and up) keeps four
///   512-bit accumulators, sixteen lanes, and folds each by x^2048 onto
///   the next 256 bytes; the accumulators then fold into one by x^512,
///   and its four lanes are where [`fold`]'s main loop would have left
///   them.
///
/// From there [`finish`] folds the four lanes into one and a Barrett
/// reduction brings the last 128 bits down to the 32-bit register. A
/// handful of multiplies per 64 (or 256) bytes instead of 64 table
/// lookups. Which fold an input takes is [`Fold::for_len`]'s choice.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::is_x86_feature_detected as detected;
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_ternarylogic_epi64, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_prefetch, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128, _MM_HINT_T0,
    };

    /// Shortest input [`fold`] takes: one 64-byte block to fill the
    /// four lanes.
    pub(super) const MIN_LEN: usize = 64;
    /// Shortest input [`fold_wide`] takes: one 256-byte block to fill
    /// the four accumulators.
    pub(super) const WIDE_MIN_LEN: usize = 256;

    // x^n mod P for the distances the folds move data by, reflected
    // and pre-shifted one bit as the reflected multiply needs.
    const K1: i64 = 0x1_5444_2bd4; // n = 4*128 + 32
    const K2: i64 = 0x1_c6e4_1596; // n = 4*128 - 32
    const K3: i64 = 0x1_7519_97d0; // n = 128 + 32
    const K4: i64 = 0x0_ccaa_009e; // n = 128 - 32
    const K5: i64 = 0x1_63cd_6124; // n = 64
    const K2048_LO: i64 = 0x1_1542_778a; // n = 16*128 + 32
    const K2048_HI: i64 = 0x1_322d_1430; // n = 16*128 - 32
    const POLY: i64 = 0x1_db71_0641; // P itself, reflected
    const MU: i64 = 0x1_f701_1641; // floor(x^64 / P), reflected

    /// The fold an input takes. Only [`Fold::for_len`] makes one, after
    /// detecting the CPU features its kernel needs, so holding one is
    /// the proof that [`Fold::run`] may call that kernel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Fold {
        wide: bool,
    }

    impl Fold {
        /// The fold for an input of `len` bytes on this CPU, or `None`
        /// when slicing-by-8 takes it: [`fold_wide`] from
        /// [`WIDE_MIN_LEN`] bytes with `avx512f` + `vpclmulqdq`,
        /// [`fold`] from [`MIN_LEN`] bytes with `pclmulqdq` + `sse4.1`.
        #[inline]
        pub(super) fn for_len(len: usize) -> Option<Fold> {
            if len < MIN_LEN || !detected!("pclmulqdq") || !detected!("sse4.1") {
                return None;
            }
            let wide = len >= WIDE_MIN_LEN && detected!("avx512f") && detected!("vpclmulqdq");
            Some(Fold { wide })
        }

        /// Advances the CRC register `state` over `bytes`, whose length
        /// must be a multiple of 16 and at least the shortest input its
        /// kernel takes, [`MIN_LEN`] or [`WIDE_MIN_LEN`] (checked).
        #[inline]
        pub(super) fn run(self, state: u32, bytes: &[u8]) -> u32 {
            if self.wide {
                // SAFETY: a wide `Fold` comes only from `for_len`, which
                // detected `avx512f`, `vpclmulqdq`, `pclmulqdq` and
                // `sse4.1`: every feature `fold_wide` enables.
                unsafe { fold_wide(state, bytes) }
            } else {
                // SAFETY: every `Fold` comes from `for_len`, which
                // detected `pclmulqdq` and `sse4.1`: the features `fold`
                // enables.
                unsafe { fold(state, bytes) }
            }
        }
    }

    /// Sixteen message bytes as one lane.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn load(chunk: &[u8]) -> __m128i {
        let lo = i64::from_le_bytes(chunk[..8].try_into().expect("16-byte chunk"));
        let hi = i64::from_le_bytes(chunk[8..16].try_into().expect("16-byte chunk"));
        _mm_set_epi64x(hi, lo)
    }

    /// `lane` moved forward by the distance `keys` encodes, plus `next`.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_into(lane: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(lane, keys, 0x00);
        let hi = _mm_clmulepi64_si128(lane, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Sixty-four message bytes as four lanes.
    #[target_feature(enable = "avx512f")]
    fn load_wide(chunk: &[u8]) -> __m512i {
        let chunk: &[u8; 64] = chunk.try_into().expect("64-byte chunk");
        // SAFETY: `chunk` is 64 readable bytes, exactly one `__m512i`,
        // and the unaligned load has no alignment requirement.
        unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) }
    }

    /// How far ahead of the bytes it folds [`fold_wide`] asks for cache
    /// lines (past the end of the input too: a prefetch never faults).
    /// The fold outruns the hardware prefetcher once its input spills
    /// out of L1: without the hint a 64 KiB input ran at 63 GB/s against
    /// 77 GB/s at 16 KiB, with it at 75 GB/s.
    const PREFETCH_AHEAD: usize = 1024;

    /// Each of `acc`'s four lanes moved forward by the distance `keys`
    /// encodes, plus the matching lane of `next`.
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    fn fold_into_wide(acc: __m512i, next: __m512i, keys: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128(acc, keys, 0x00);
        let hi = _mm512_clmulepi64_epi128(acc, keys, 0x11);
        // 0x96 is the truth table of a ^ b ^ c: one instruction.
        _mm512_ternarylogic_epi64(next, lo, hi, 0x96)
    }

    /// Advances the CRC register `state` over `bytes`, whose length
    /// must be a multiple of 16 and at least [`MIN_LEN`] (checked).
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= MIN_LEN && bytes.len().is_multiple_of(16));
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = bytes.chunks_exact(64);
        let first = blocks.next().expect("at least one block");
        let mut lanes = [
            _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(state as i32)),
            load(&first[16..32]),
            load(&first[32..48]),
            load(&first[48..]),
        ];
        for block in &mut blocks {
            for (lane, chunk) in lanes.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold_into(*lane, load(chunk), k1k2);
            }
        }
        finish(lanes, blocks.remainder())
    }

    /// Advances the CRC register `state` over `bytes`, whose length
    /// must be a multiple of 16 and at least [`WIDE_MIN_LEN`] (checked).
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "pclmulqdq",
        enable = "sse4.1"
    )]
    fn fold_wide(state: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= WIDE_MIN_LEN && bytes.len().is_multiple_of(16));
        let k2048 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2048_HI, K2048_LO));
        let k512 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let mut blocks = bytes.chunks_exact(256);
        let first = blocks.next().expect("at least one block");
        let mut accs = [
            _mm512_xor_si512(
                load_wide(&first[..64]),
                _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
            ),
            load_wide(&first[64..128]),
            load_wide(&first[128..192]),
            load_wide(&first[192..]),
        ];
        for block in &mut blocks {
            for (acc, chunk) in accs.iter_mut().zip(block.chunks_exact(64)) {
                _mm_prefetch(
                    chunk.as_ptr().wrapping_add(PREFETCH_AHEAD).cast(),
                    _MM_HINT_T0,
                );
                *acc = fold_into_wide(*acc, load_wide(chunk), k2048);
            }
        }
        let mut x = fold_into_wide(accs[0], accs[1], k512);
        x = fold_into_wide(x, accs[2], k512);
        x = fold_into_wide(x, accs[3], k512);
        let mut rest = blocks.remainder().chunks_exact(64);
        for chunk in &mut rest {
            x = fold_into_wide(x, load_wide(chunk), k512);
        }
        let lanes = [
            _mm512_extracti32x4_epi32(x, 0),
            _mm512_extracti32x4_epi32(x, 1),
            _mm512_extracti32x4_epi32(x, 2),
            _mm512_extracti32x4_epi32(x, 3),
        ];
        finish(lanes, rest.remainder())
    }

    /// The shared tail: folds the four lanes of the 64 bytes before
    /// `tail` into one, folds in `tail` (fewer than 64 bytes, a
    /// multiple of 16), and reduces to the 32-bit register.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn finish(lanes: [__m128i; 4], tail: &[u8]) -> u32 {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let mut x = fold_into(lanes[0], lanes[1], k3k4);
        x = fold_into(x, lanes[2], k3k4);
        x = fold_into(x, lanes[3], k3k4);
        for chunk in tail.chunks_exact(16) {
            x = fold_into(x, load(chunk), k3k4);
        }

        // 128 -> 96 -> 64 bits.
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 -> 32 bits.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

impl Frame {
    /// Builds a data frame for a registered handler (unattributed; use
    /// [`Frame::data_with_span`] to carry a request span).
    pub fn data(handler: u32, priority: i32, payload: Vec<u8>) -> Self {
        Frame::data_with_span(handler, priority, payload, 0)
    }

    /// Builds a data frame stamped with a request-scoped span context.
    pub fn data_with_span(handler: u32, priority: i32, payload: Vec<u8>, span: u64) -> Self {
        Frame {
            kind: FrameKind::Data,
            priority,
            handler,
            span,
            seq: 0,
            payload,
        }
    }

    /// Builds a control frame with no payload.
    pub fn control(kind: FrameKind, handler: u32) -> Self {
        Frame {
            kind,
            priority: 0,
            handler,
            span: 0,
            seq: 0,
            payload: Vec::new(),
        }
    }

    /// Builds a control frame whose payload is a sequence of u64 words.
    pub fn control_with_words(kind: FrameKind, handler: u32, words: &[u64]) -> Self {
        let mut payload = Vec::with_capacity(words.len() * 8);
        for w in words {
            payload.extend_from_slice(&w.to_le_bytes());
        }
        Frame {
            kind,
            priority: 0,
            handler,
            span: 0,
            seq: 0,
            payload,
        }
    }

    /// Reads the payload back as u64 words (for control frames). A
    /// trailing partial word — impossible for frames we encode, but the
    /// payload is remote-controlled — is ignored rather than panicking.
    pub fn words(&self) -> Vec<u64> {
        self.payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect()
    }

    /// Serialized size including the length prefix and CRC word.
    pub fn encoded_len(&self) -> usize {
        4 + 4 + HEADER_LEN + self.payload.len()
    }

    /// Appends the encoded frame to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.encoded_prefix());
        buf.extend_from_slice(&self.payload);
    }

    /// The encoded frame's first [`PREFIX_LEN`] bytes, what precedes the
    /// payload on the wire (its CRC word covers the payload too): the
    /// prefix followed by the payload is [`Frame::encode_into`]'s output.
    pub(crate) fn encoded_prefix(&self) -> [u8; PREFIX_LEN] {
        encode_prefix(
            self.kind,
            self.priority,
            self.handler,
            self.span,
            self.seq,
            &self.payload,
        )
    }

    /// Writes the encoded frame to a stream in one `write_all`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        w.write_all(&buf)
    }

    /// Reads one frame from a stream. `Err` is reserved for genuine I/O
    /// failures (including EOF *inside* a frame — a truncated stream);
    /// malformed bytes come back as [`Decoded::Corrupt`] so the caller
    /// can count them, and a clean EOF at a frame boundary as
    /// [`Decoded::Eof`].
    ///
    /// Never reads past the end of the frame, so it is safe on an
    /// unbuffered socket whose following bytes belong to another reader
    /// (the handshake). The fixed prefix goes to the stack; the payload
    /// is read straight into the one exactly-sized `Vec` the frame
    /// keeps.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Decoded> {
        let mut prefix = [0u8; PREFIX_LEN];
        if !read_exact_or_eof(r, &mut prefix)? {
            return Ok(Decoded::Eof);
        }
        let body_len = u32::from_le_bytes(prefix[0..4].try_into().expect("4 bytes")) as usize;
        if body_len < HEADER_LEN {
            return Ok(Decoded::Corrupt {
                detail: format!("frame body too short: {body_len}"),
            });
        }
        if body_len > MAX_FRAME_LEN {
            return Ok(Decoded::Corrupt {
                detail: format!("frame body too long: {body_len}"),
            });
        }
        let want_crc = u32::from_le_bytes(prefix[4..8].try_into().expect("4 bytes"));
        let header = &prefix[8..];
        let payload_len = body_len - HEADER_LEN;
        let mut payload = Vec::with_capacity(payload_len);
        r.take(payload_len as u64).read_to_end(&mut payload)?;
        if payload.len() != payload_len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame",
            ));
        }
        let got_crc = body_crc(header, &payload);
        if got_crc != want_crc {
            return Ok(Decoded::Corrupt {
                detail: format!("crc mismatch: want {want_crc:#010x}, got {got_crc:#010x}"),
            });
        }
        let Some(kind) = FrameKind::from_u8(header[0]) else {
            return Ok(Decoded::Corrupt {
                detail: format!("unknown frame kind {}", header[0]),
            });
        };
        Ok(Decoded::Frame(Frame {
            kind,
            priority: i32::from_le_bytes(header[1..5].try_into().expect("4 bytes")),
            handler: u32::from_le_bytes(header[5..9].try_into().expect("4 bytes")),
            span: u64::from_le_bytes(header[9..17].try_into().expect("8 bytes")),
            seq: u64::from_le_bytes(header[17..25].try_into().expect("8 bytes")),
            payload,
        }))
    }

    /// True when `buf` starts with everything [`Frame::read_from`] will
    /// ask for, so that a reader holding `buf` decodes the next frame
    /// (or rejects its length word) without touching its socket.
    pub fn buffered(buf: &[u8]) -> bool {
        let Some(len) = buf.first_chunk::<4>() else {
            return false;
        };
        let body_len = u32::from_le_bytes(*len) as usize;
        body_len <= MAX_FRAME_LEN && buf.len() >= (8 + body_len).max(PREFIX_LEN)
    }

    /// [`Frame::read_from`] on a buffered stream, plus the busy time
    /// (ns) spent reading and decoding the frame *after* its first bytes
    /// arrived — i.e. the receiver-side read→decode stage, excluding
    /// the idle block waiting for a frame to start: the buffer is
    /// filled (the only place this can block idle) before the clock
    /// starts. The clock is only consulted when the `obs` feature
    /// is compiled in (the reported time is 0 otherwise), so the off
    /// build pays nothing.
    pub fn read_from_timed<R: BufRead>(r: &mut R) -> io::Result<(Decoded, u64)> {
        loop {
            match r.fill_buf() {
                Ok([]) => return Ok((Decoded::Eof, 0)),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let t0 = ttg_runtime::obs::WireObs::now_ns();
        let decoded = Self::read_from(r)?;
        let busy_ns = ttg_runtime::obs::WireObs::now_ns().saturating_sub(t0);
        Ok((decoded, busy_ns))
    }
}

/// The CRC word of a frame: over its fixed header, then its payload,
/// through one streaming state (the two are never contiguous in memory
/// on either side of the wire).
fn body_crc(header: &[u8], payload: &[u8]) -> u32 {
    crc32_update(crc32_update(0xFFFF_FFFF, header), payload) ^ 0xFFFF_FFFF
}

/// The first [`PREFIX_LEN`] bytes of a frame with these header fields
/// and this payload: the header is laid out once and checksummed from
/// that one array, then the payload through the same streaming state.
fn encode_prefix(
    kind: FrameKind,
    priority: i32,
    handler: u32,
    span: u64,
    seq: u64,
    payload: &[u8],
) -> [u8; PREFIX_LEN] {
    let mut prefix = [0u8; PREFIX_LEN];
    let body_len = (HEADER_LEN + payload.len()) as u32;
    prefix[0..4].copy_from_slice(&body_len.to_le_bytes());
    prefix[8] = kind as u8;
    prefix[9..13].copy_from_slice(&priority.to_le_bytes());
    prefix[13..17].copy_from_slice(&handler.to_le_bytes());
    prefix[17..25].copy_from_slice(&span.to_le_bytes());
    prefix[25..33].copy_from_slice(&seq.to_le_bytes());
    let crc = body_crc(&prefix[8..], payload);
    prefix[4..8].copy_from_slice(&crc.to_le_bytes());
    prefix
}

/// Most payload words an [`EncodedControl`] holds.
const CONTROL_WORDS_MAX: usize = 3;

/// An unsequenced control frame of up to three payload words, encoded
/// on the stack: what the transport's acks and heartbeats are written
/// from, so that liveness traffic costs no heap allocation however
/// often it fires. Byte-identical to [`Frame::control_with_words`] +
/// [`Frame::encode_into`].
pub(crate) struct EncodedControl {
    bytes: [u8; PREFIX_LEN + 8 * CONTROL_WORDS_MAX],
    len: usize,
}

impl EncodedControl {
    pub(crate) fn new(kind: FrameKind, handler: u32, words: &[u64]) -> Self {
        assert!(words.len() <= CONTROL_WORDS_MAX, "control frame too long");
        let mut bytes = [0u8; PREFIX_LEN + 8 * CONTROL_WORDS_MAX];
        let len = PREFIX_LEN + 8 * words.len();
        for (slot, w) in bytes[PREFIX_LEN..len].chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
        let prefix = encode_prefix(kind, 0, handler, 0, 0, &bytes[PREFIX_LEN..len]);
        bytes[..PREFIX_LEN].copy_from_slice(&prefix);
        EncodedControl { bytes, len }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Like `read_exact`, but a clean EOF before the first byte returns
/// `Ok(false)` instead of an error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read_one(buf: &[u8]) -> io::Result<Decoded> {
        Frame::read_from(&mut Cursor::new(buf))
    }

    fn expect_frame(d: Decoded) -> Frame {
        match d {
            Decoded::Frame(f) => f,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    /// The byte-at-a-time loop every faster kernel must agree with.
    fn crc32_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = CRC32_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    type Kernel = fn(u32, &[u8]) -> u32;

    /// The fold dispatch picks for `min_len` bytes, called directly:
    /// over the input's 16-byte blocks when they reach `min_len`,
    /// slicing-by-8 for the rest.
    #[cfg(target_arch = "x86_64")]
    fn through(min_len: usize, state: u32, bytes: &[u8]) -> u32 {
        let fold = clmul::Fold::for_len(min_len).expect("listed only where the CPU has it");
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        if blocks.len() < min_len {
            return crc32_slice8(state, bytes);
        }
        crc32_slice8(fold.run(state, blocks), tail)
    }

    /// The dispatched entry, then every kernel this CPU can run, each
    /// called directly. Prints which ran.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&str, Kernel)> =
            vec![("dispatched", crc32_update), ("slice8", crc32_slice8)];
        #[cfg(target_arch = "x86_64")]
        {
            let narrow = clmul::Fold::for_len(clmul::MIN_LEN);
            if narrow.is_some() {
                kernels.push(("clmul128", |s, b| through(clmul::MIN_LEN, s, b)));
            }
            // Without the wide fold's features 256 bytes take the
            // 128-bit fold too.
            if clmul::Fold::for_len(clmul::WIDE_MIN_LEN) != narrow {
                kernels.push(("clmul512", |s, b| through(clmul::WIDE_MIN_LEN, s, b)));
            }
        }
        let names: Vec<&str> = kernels.iter().map(|(name, _)| *name).collect();
        println!("CRC kernels run: {names:?}");
        kernels
    }

    /// xorshift64*: enough randomness for test inputs, no dependency.
    fn next_rand(s: &mut u64) -> u64 {
        *s ^= *s >> 12;
        *s ^= *s << 25;
        *s ^= *s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len).map(|_| (next_rand(&mut s) >> 32) as u8).collect()
    }

    #[test]
    fn crc_kernels_match_the_bytewise_reference_at_every_length_and_alignment() {
        // 0..=1100 covers every remainder modulo 256, 64 and 16 past
        // each fold's shortest input; offsets 0..64 every alignment of
        // a 64-byte load.
        const MAX_LEN: usize = 1100;
        let kernels = kernels();
        let backing = random_bytes(11, 64 + MAX_LEN);
        for offset in 0..64 {
            let input = &backing[offset..offset + MAX_LEN];
            for start in [0xFFFF_FFFF, 0, 0x1234_5678] {
                let mut want = start;
                for len in 0..=MAX_LEN {
                    for (name, kernel) in &kernels {
                        assert_eq!(
                            kernel(start, &input[..len]),
                            want,
                            "{name}: offset {offset}, len {len}, state {start:#x}"
                        );
                    }
                    if len < MAX_LEN {
                        want = crc32_bytewise(want, &input[len..=len]);
                    }
                }
            }
        }
    }

    #[test]
    fn crc_kernels_stream_random_chunk_splits_of_64_kib() {
        let kernels = kernels();
        for seed in 1..=4u64 {
            let input = random_bytes(seed, 64 << 10);
            let want = crc32_bytewise(0xFFFF_FFFF, &input);
            for (name, kernel) in &kernels {
                assert_eq!(kernel(0xFFFF_FFFF, &input), want, "{name}: one chunk");
                let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let (mut state, mut rest) = (0xFFFF_FFFF, input.as_slice());
                while !rest.is_empty() {
                    // Mostly short chunks (both sides of the 64- and
                    // 256-byte fold thresholds), now and then a long one.
                    let r = next_rand(&mut s);
                    let max = if r.is_multiple_of(8) { 20_000 } else { 320 };
                    let n = (((r >> 8) % max) as usize).min(rest.len());
                    state = kernel(state, &rest[..n]);
                    rest = &rest[n..];
                }
                assert_eq!(state, want, "{name}: seed {seed}, random splits");
            }
        }
    }

    /// The rule `crc32_update` dispatches by. On a CPU with the 512-bit
    /// fold's features, an input of 256 bytes or more must take it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn dispatch_takes_the_widest_fold_the_cpu_has() {
        use std::arch::is_x86_feature_detected as detected;
        let narrow = detected!("pclmulqdq") && detected!("sse4.1");
        let wide = narrow && detected!("avx512f") && detected!("vpclmulqdq");
        let narrow_fold = clmul::Fold::for_len(clmul::MIN_LEN);
        // The wide fold is the one 64 bytes do not get.
        let takes_wide = |len| clmul::Fold::for_len(len).map(|f| Some(f) != narrow_fold);
        assert_eq!(takes_wide(0), None);
        assert_eq!(takes_wide(63), None);
        assert_eq!(takes_wide(64), narrow.then_some(false));
        assert_eq!(takes_wide(255), narrow.then_some(false));
        for len in [256, 4096, 64 << 10] {
            let want = if wide {
                Some(true)
            } else {
                narrow.then_some(false)
            };
            assert_eq!(takes_wide(len), want, "len {len}");
        }
        println!("pclmulqdq fold: {narrow}, vpclmulqdq fold: {wide}");
    }

    /// Wire compatibility: these bytes were produced independently
    /// (Python `struct` + `zlib.crc32`) from the layout in the module
    /// docs, and are what every earlier revision of this codec emits
    /// for the same frames.
    const GOLDEN_DATA: [u8; 39] = [
        0x1f, 0x00, 0x00, 0x00, 0x36, 0xca, 0xff, 0x16, 0x00, 0xfd, 0xff, 0xff, 0xff, 0x07, 0x00,
        0x00, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, b'g', b'o', b'l', b'd', b'e', b'n',
    ];
    const GOLDEN_ACK: [u8; 41] = [
        0x21, 0x00, 0x00, 0x00, 0x24, 0xa8, 0x68, 0x49, 0x09, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    ];

    #[test]
    fn golden_bytes_pin_the_wire_format_in_both_directions() {
        let mut data = Frame::data_with_span(7, -3, b"golden".to_vec(), 0x0102_0304_0506_0708);
        data.seq = 9;
        let ack = Frame::control_with_words(FrameKind::Ack, 1, &[42]);
        for (frame, golden) in [(&data, &GOLDEN_DATA[..]), (&ack, &GOLDEN_ACK[..])] {
            let mut buf = Vec::new();
            frame.encode_into(&mut buf);
            assert_eq!(buf, golden, "encoding of {frame:?} changed");
            assert_eq!(&expect_frame(read_one(golden).unwrap()), frame);
        }
        // The stack-encoded control frame is the same bytes.
        let stack = EncodedControl::new(FrameKind::Ack, 1, &[42]);
        assert_eq!(stack.as_bytes(), GOLDEN_ACK);
        let mut heartbeat = Vec::new();
        Frame::control(FrameKind::Heartbeat, 3).encode_into(&mut heartbeat);
        assert_eq!(
            EncodedControl::new(FrameKind::Heartbeat, 3, &[]).as_bytes(),
            heartbeat
        );
    }

    /// A stream that hands out at most `step` bytes per `read` call.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Decodes until clean EOF.
    fn read_all<R: Read>(mut r: R) -> Vec<Frame> {
        let mut frames = Vec::new();
        loop {
            match Frame::read_from(&mut r).unwrap() {
                Decoded::Frame(f) => frames.push(f),
                Decoded::Eof => return frames,
                Decoded::Corrupt { detail } => panic!("corrupt: {detail}"),
            }
        }
    }

    #[test]
    fn split_and_coalesced_reads_decode_like_a_cursor() {
        let mut big = Frame::data(2, 0, random_bytes(5, 64 << 10));
        big.seq = 77;
        let frames = vec![
            Frame::control(FrameKind::Heartbeat, 1),
            Frame::data(1, 5, b"xyz".to_vec()),
            Frame::control_with_words(FrameKind::Contribute, 2, &[9, 100, 99]),
            big,
            Frame::data(3, -1, random_bytes(6, 1000)),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire);
        }
        assert_eq!(read_all(Cursor::new(&wire)), frames);
        // usize::MAX: the whole stream — three small frames and more —
        // comes back from a single `read` call if the caller asks.
        for step in [1, 2, 7, 4096, usize::MAX] {
            let dribble = || Dribble { bytes: &wire, step };
            assert_eq!(read_all(dribble()), frames, "unbuffered, step {step}");
            for capacity in [16, 8 << 10, 128 << 10] {
                let buffered = io::BufReader::with_capacity(capacity, dribble());
                assert_eq!(
                    read_all(buffered),
                    frames,
                    "buffered {capacity}, step {step}"
                );
            }
        }
        // The timed entry decodes the same stream.
        let mut timed = io::BufReader::new(Dribble {
            bytes: &wire,
            step: 7,
        });
        for want in &frames {
            let (got, _) = Frame::read_from_timed(&mut timed).unwrap();
            assert_eq!(&expect_frame(got), want);
        }
        assert!(matches!(
            Frame::read_from_timed(&mut timed).unwrap(),
            (Decoded::Eof, 0)
        ));
    }

    #[test]
    fn a_large_payload_is_allocated_exactly_once() {
        let mut wire = Vec::new();
        Frame::data(0, 0, random_bytes(9, 64 << 10)).encode_into(&mut wire);
        for step in [4096, usize::MAX] {
            let mut buffered =
                io::BufReader::with_capacity(16 << 10, Dribble { bytes: &wire, step });
            let got = expect_frame(Frame::read_from(&mut buffered).unwrap());
            assert_eq!(got.payload.len(), 64 << 10);
            assert_eq!(
                got.payload.capacity(),
                got.payload.len(),
                "payload grew past its exact size (step {step})"
            );
        }
    }

    #[test]
    fn read_from_never_consumes_bytes_past_its_frame() {
        // What lets the handshake read a Hello off a bare socket and
        // leave whatever follows it to the reader thread.
        let mut wire = Vec::new();
        Frame::control(FrameKind::Hello, 3).encode_into(&mut wire);
        let hello_len = wire.len();
        Frame::data(1, 0, b"right behind".to_vec()).encode_into(&mut wire);
        let mut cur = Cursor::new(&wire);
        expect_frame(Frame::read_from(&mut cur).unwrap());
        assert_eq!(cur.position() as usize, hello_len);
    }

    #[test]
    fn roundtrip_data_frame() {
        let f = Frame::data(7, -3, vec![1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        assert_eq!(buf.len(), f.encoded_len());
        let got = expect_frame(read_one(&buf).unwrap());
        assert_eq!(got, f);
        assert_eq!(got.span, 0);
    }

    #[test]
    fn roundtrip_span_stamped_frame() {
        // The span word is CRC-covered and survives the wire intact.
        let f = Frame::data_with_span(7, -3, b"attributed".to_vec(), 0xBEEF_0000_0000_002A);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let got = expect_frame(read_one(&buf).unwrap());
        assert_eq!(got.span, 0xBEEF_0000_0000_002A);
        assert_eq!(got, f);
    }

    #[test]
    fn roundtrip_control_words() {
        let f = Frame::control_with_words(FrameKind::Contribute, 2, &[9, 100, 99]);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let got = expect_frame(read_one(&buf).unwrap());
        assert_eq!(got.kind, FrameKind::Contribute);
        assert_eq!(got.handler, 2);
        assert_eq!(got.words(), vec![9, 100, 99]);
    }

    #[test]
    fn stream_of_frames_with_clean_eof() {
        let mut buf = Vec::new();
        Frame::control(FrameKind::Hello, 3).encode_into(&mut buf);
        Frame::data(1, 5, b"xyz".to_vec()).encode_into(&mut buf);
        let mut cur = Cursor::new(&buf);
        let a = expect_frame(Frame::read_from(&mut cur).unwrap());
        let b = expect_frame(Frame::read_from(&mut cur).unwrap());
        assert_eq!(a.kind, FrameKind::Hello);
        assert_eq!(b.payload, b"xyz");
        assert!(matches!(Frame::read_from(&mut cur).unwrap(), Decoded::Eof));
    }

    #[test]
    fn every_bit_flip_in_the_body_is_detected() {
        // The tentpole integrity property: flip any single bit of the
        // CRC-covered region and decoding must refuse the frame (as
        // Corrupt, never a panic and never a silently wrong frame).
        let f = Frame::data(3, -1, b"integrity".to_vec());
        let mut clean = Vec::new();
        f.encode_into(&mut clean);
        for byte in 4..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                match read_one(&buf) {
                    Ok(Decoded::Corrupt { .. }) => {}
                    Ok(Decoded::Frame(got)) => {
                        panic!("bit flip at byte {byte} bit {bit} went undetected: {got:?}")
                    }
                    // Flips inside the length word (not CRC-covered)
                    // are caught by bounds or surface as a truncated
                    // read — also acceptable, also never a panic.
                    Ok(Decoded::Eof) | Err(_) => {}
                }
            }
        }
    }

    /// Satellite: fuzz-style table of malformed inputs. Every case must
    /// decode to `Corrupt`/`Eof`/`Err` — never panic, never a frame.
    #[test]
    fn malformed_input_table() {
        let mut valid = Vec::new();
        Frame::data(1, 0, vec![0xAB; 16]).encode_into(&mut valid);

        let truncated_mid_body = &valid[..valid.len() - 4];
        let truncated_mid_header = &valid[..6];
        let truncated_mid_len = &valid[..2];
        let zero_len = {
            let mut b = 0u32.to_le_bytes().to_vec(); // body_len = 0 < HEADER_LEN
            b.extend_from_slice(&[0u8; 16]);
            b
        };
        let short_len = {
            let mut b = 5u32.to_le_bytes().to_vec(); // 0 < body_len < HEADER_LEN
            b.extend_from_slice(&[0u8; 16]);
            b
        };
        let oversized = {
            let mut b = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
            b.extend_from_slice(&[0u8; 16]);
            b
        };
        let bad_kind = {
            // Re-encode with kind byte 200 and a *matching* CRC, so only
            // the kind check can reject it.
            let mut body = vec![200u8];
            body.extend_from_slice(&0i32.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            body.extend_from_slice(&0u64.to_le_bytes()); // span
            body.extend_from_slice(&0u64.to_le_bytes()); // seq
            let mut b = (body.len() as u32).to_le_bytes().to_vec();
            b.extend_from_slice(&crc32(&body).to_le_bytes());
            b.extend_from_slice(&body);
            b
        };
        let bad_crc = {
            let mut b = valid.clone();
            b[4] ^= 0xFF; // corrupt the CRC word itself
            b
        };
        let garbage = vec![0xFFu8; 64];

        let cases: Vec<(&str, &[u8])> = vec![
            ("truncated mid-body", truncated_mid_body),
            ("truncated mid-header", truncated_mid_header),
            ("truncated mid-length", truncated_mid_len),
            ("zero-length body", &zero_len),
            ("sub-header body", &short_len),
            ("oversized length", &oversized),
            ("unknown kind, valid crc", &bad_kind),
            ("flipped crc word", &bad_crc),
            ("garbage", &garbage),
            ("empty", &[]),
        ];
        for (name, bytes) in cases {
            match read_one(bytes) {
                Ok(Decoded::Frame(f)) => panic!("case '{name}' decoded to a frame: {f:?}"),
                Ok(Decoded::Eof) => assert_eq!(name, "empty", "only empty input is clean EOF"),
                Ok(Decoded::Corrupt { .. }) | Err(_) => {}
            }
        }
    }

    #[test]
    fn heartbeat_and_abort_kinds_roundtrip() {
        let hb = Frame::control(FrameKind::Heartbeat, 2);
        let mut buf = Vec::new();
        hb.encode_into(&mut buf);
        assert_eq!(
            expect_frame(read_one(&buf).unwrap()).kind,
            FrameKind::Heartbeat
        );

        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.extend_from_slice(b"peer 2 died");
        let ab = Frame {
            kind: FrameKind::Abort,
            priority: 0,
            handler: 1,
            span: 0,
            seq: 0,
            payload,
        };
        let mut buf = Vec::new();
        ab.encode_into(&mut buf);
        let got = expect_frame(read_one(&buf).unwrap());
        assert_eq!(got.kind, FrameKind::Abort);
        assert_eq!(&got.payload[8..], b"peer 2 died");
    }

    #[test]
    fn words_tolerates_partial_trailing_word() {
        let f = Frame {
            kind: FrameKind::Contribute,
            priority: 0,
            handler: 0,
            span: 0,
            seq: 0,
            payload: vec![1, 2, 3], // not a multiple of 8
        };
        assert!(f.words().is_empty());
    }

    #[test]
    fn sequenced_and_ack_frames_roundtrip() {
        // The seq word is CRC-covered and survives the wire intact.
        let mut f = Frame::data(4, 1, b"replayable".to_vec());
        f.seq = 0x1122_3344_5566_7788;
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let got = expect_frame(read_one(&buf).unwrap());
        assert_eq!(got.seq, 0x1122_3344_5566_7788);
        assert_eq!(got, f);

        let ack = Frame::control_with_words(FrameKind::Ack, 1, &[42]);
        let mut buf = Vec::new();
        ack.encode_into(&mut buf);
        let got = expect_frame(read_one(&buf).unwrap());
        assert_eq!(got.kind, FrameKind::Ack);
        assert_eq!(got.seq, 0, "acks are never themselves sequenced");
        assert_eq!(got.words(), vec![42]);
    }
}
