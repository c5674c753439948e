//! The resend ring of one TCP link: encoded frames in sequence order,
//! from the oldest the peer has not acknowledged to the newest appended,
//! held as chunks and ordered by three cursors — *acked ≤ written ≤
//! appended* (DESIGN.md §6.5). A small frame is encoded once, in place,
//! into the tail chunk; a frame of at least [`CHUNK_BYTES`] is a chunk
//! of its own that holds its encoded prefix and the sender's payload
//! buffer, moved in and never copied, and goes out as two `iovec`s. The
//! write role takes the unwritten chunks out to write them without the
//! link's lock and hands them back as written ([`Ring::retire`]) or,
//! after a failed write, as unwritten again ([`Ring::put_back`]); a
//! cumulative ack trims from the front; a rejoin rewinds *written* to
//! *acked* so the ordinary drain replays the rest from the same bytes.
//! No I/O and no locking here: `tcp.rs` owns both.

use crate::frame::{Frame, PREFIX_LEN};
use std::collections::VecDeque;

/// Capacity of a chunk: what one flush of a corked link carries, and
/// the size from which a frame keeps its own payload buffer.
pub(crate) const CHUNK_BYTES: usize = 16 << 10;

/// What a chunk holds.
enum Body {
    /// Whole encoded frames, back to back.
    Frames(Vec<u8>),
    /// One large frame: its encoded prefix, then the payload buffer the
    /// sender handed over (the prefix's CRC word covers it).
    Large {
        prefix: [u8; PREFIX_LEN],
        payload: Vec<u8>,
    },
}

/// One run of whole encoded frames, contiguous in sequence.
pub(crate) struct Chunk {
    body: Body,
    /// Offset of the first unacked byte of `Body::Frames` (always a
    /// frame boundary; nonzero once a cumulative ack lands inside the
    /// chunk). A large chunk is one frame, so it is acked whole.
    head: usize,
    /// Seqs of the frames still in the chunk. `first_seq == 0` marks one
    /// unsequenced frame (a raw injection, a hand-sent control frame):
    /// written in its turn, then dropped — never acked or replayed.
    first_seq: u64,
    last_seq: u64,
    /// Clock reading at the first append (0 with `obs` off): the ack
    /// that trims the chunk yields the ring's residence time, the
    /// link's ack RTT.
    born_ns: u64,
    /// Sum of the frames' append-time clock readings, so the write that
    /// takes the chunk can account their mean wait; 0 = not accounted
    /// (a replay).
    pub stamps_ns: u64,
}

impl Chunk {
    fn new(body: Body, seq: u64, now_ns: u64) -> Chunk {
        Chunk {
            body,
            head: 0,
            first_seq: seq,
            last_seq: seq,
            born_ns: now_ns,
            stamps_ns: 0,
        }
    }

    /// The bytes still owed to the peer, in order: for a large frame
    /// its prefix and its payload, else the live frames and nothing.
    pub fn parts(&self) -> [&[u8]; 2] {
        match &self.body {
            Body::Frames(bytes) => [&bytes[self.head..], &[]],
            Body::Large { prefix, payload } => [prefix, payload],
        }
    }

    /// How many bytes [`Chunk::parts`] holds.
    pub fn len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }

    pub fn frames(&self) -> u64 {
        self.last_seq - self.first_seq + 1
    }

    /// The encoded frames of the chunk, each as the [`Chunk::parts`] it
    /// is written from (frames are length-prefixed; an unsequenced chunk
    /// is one frame whatever its bytes say).
    pub fn frame_parts(&self) -> impl Iterator<Item = [&[u8]; 2]> {
        let (mut rest, mut large) = match self.parts() {
            [bytes, []] => (bytes, None),
            parts => (&[][..], Some(parts)),
        };
        std::iter::from_fn(move || {
            if let Some(parts) = large.take() {
                return Some(parts);
            }
            let len = match rest.first_chunk::<4>() {
                _ if rest.is_empty() => return None,
                Some(body) if self.first_seq != 0 => 8 + u32::from_le_bytes(*body) as usize,
                _ => rest.len(),
            };
            let (frame, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;
            Some([frame, &[]])
        })
    }

    /// Copies `next`'s frames onto the end of this chunk if both hold
    /// encoded frames and they fit in its capacity; true if they did.
    fn absorb(&mut self, next: &Chunk) -> bool {
        let (Body::Frames(bytes), [live, []]) = (&mut self.body, next.parts()) else {
            return false;
        };
        if bytes.capacity() - bytes.len() < live.len() {
            return false;
        }
        bytes.extend_from_slice(live);
        self.last_seq = next.last_seq;
        true
    }
}

#[derive(Default)]
pub(crate) struct Ring {
    /// Highest seq assigned so far (seqs start at 1; 0 = unsequenced).
    pub appended: u64,
    /// Highest seq the peer has cumulatively acknowledged.
    pub acked: u64,
    /// Written, awaiting the peer's ack (`acked` < seqs ≤ *written*).
    unacked: VecDeque<Chunk>,
    /// Appended, not yet written (*written* < seqs ≤ `appended`).
    pending: Vec<Chunk>,
    pub pending_bytes: usize,
    /// Encoded bytes of sequenced frames anywhere in the ring, a batch
    /// the write role has taken out included.
    pub buffered_bytes: u64,
    /// One trimmed chunk's buffer, kept for the next chunk: never more
    /// spare capacity than one [`CHUNK_BYTES`].
    spare: Option<Vec<u8>>,
}

impl Ring {
    /// Assigns `frame` the next seq and puts it in the ring. A frame of
    /// at least [`CHUNK_BYTES`] becomes a chunk of its own that takes
    /// over `frame.payload`; a smaller one is encoded into the last
    /// pending chunk if it fits, else into a fresh one (the spare buffer
    /// if there is one). Returns the chunk for time-stamping.
    pub fn append(&mut self, frame: &mut Frame, now_ns: u64) -> &mut Chunk {
        let len = frame.encoded_len();
        self.appended += 1;
        frame.seq = self.appended;
        self.buffered_bytes += len as u64;
        self.pending_bytes += len;
        if len >= CHUNK_BYTES {
            let prefix = frame.encoded_prefix();
            let payload = std::mem::take(&mut frame.payload);
            let chunk = Chunk::new(Body::Large { prefix, payload }, frame.seq, now_ns);
            self.pending.push(chunk);
            return self.pending.last_mut().expect("just pushed");
        }
        let fits = |c: &Chunk| match &c.body {
            Body::Frames(bytes) => c.first_seq != 0 && bytes.capacity() - bytes.len() >= len,
            Body::Large { .. } => false,
        };
        if !self.pending.last().is_some_and(fits) {
            let bytes = (self.spare.take()).unwrap_or_else(|| Vec::with_capacity(CHUNK_BYTES));
            let chunk = Chunk::new(Body::Frames(bytes), frame.seq, now_ns);
            self.pending.push(chunk);
        }
        let chunk = self.pending.last_mut().expect("just ensured");
        if let Body::Frames(bytes) = &mut chunk.body {
            frame.encode_into(bytes);
        }
        chunk.last_seq = frame.seq;
        chunk
    }

    /// Queues one already-encoded unsequenced frame behind what is
    /// pending.
    pub fn push_unsequenced(&mut self, bytes: Vec<u8>) {
        self.pending_bytes += bytes.len();
        self.pending.push(Chunk::new(Body::Frames(bytes), 0, 0));
    }

    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Hands everything unwritten to the write role. Unwritten bytes
    /// cannot be acked, so owning them outside the lock is sound.
    pub fn take_pending(&mut self) -> Vec<Chunk> {
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending)
    }

    /// A failed write: `batch` is unwritten again, ahead of whatever was
    /// appended since.
    pub fn put_back(&mut self, mut batch: Vec<Chunk>) {
        batch.append(&mut self.pending);
        self.pending_bytes = batch.iter().map(Chunk::len).sum();
        self.pending = batch;
    }

    /// Keeps a no-longer-needed chunk's frame buffer for the next chunk;
    /// a large frame's payload buffer is freed.
    fn recycle(&mut self, body: Body) {
        if let Body::Frames(mut bytes) = body {
            if self.spare.is_none() && bytes.capacity() == CHUNK_BYTES {
                bytes.clear();
                self.spare = Some(bytes);
            }
        }
    }

    /// A written batch joins the written-unacked side (and is trimmed
    /// by an ack that overtook it). A chunk of small frames that fits
    /// behind the last unacked one is copied into it and its buffer
    /// recycled, so a trickle of small writes — a ping-pong — holds one
    /// chunk, not one per message; a large frame is never copied.
    /// Returns what [`Ring::trim`] does.
    pub fn retire(&mut self, batch: &mut Vec<Chunk>) -> (u64, u64) {
        for chunk in batch.drain(..) {
            if chunk.first_seq == 0 || self.unacked.back_mut().is_some_and(|b| b.absorb(&chunk)) {
                self.recycle(chunk.body);
            } else {
                self.unacked.push_back(chunk);
            }
        }
        if self.pending.capacity() == 0 {
            self.pending = std::mem::take(batch);
        }
        self.trim(self.acked)
    }

    /// Drops everything up to seq `acked` from the written side — whole
    /// chunks, and the acked head of the chunk the ack lands in (a chunk
    /// of small frames: a large one is a single frame).
    /// Returns the bytes freed and the first-append clock reading of the
    /// newest chunk touched.
    pub fn trim(&mut self, acked: u64) -> (u64, u64) {
        self.acked = self.acked.max(acked);
        let (mut freed, mut born_ns) = (0, 0);
        while let Some(front) = self.unacked.front_mut() {
            if front.first_seq > acked {
                break;
            }
            born_ns = front.born_ns;
            if front.last_seq > acked {
                let frames = (acked - front.first_seq + 1) as usize;
                let gone: usize = front.frame_parts().take(frames).map(|[f, _]| f.len()).sum();
                front.head += gone;
                front.first_seq = acked + 1;
                freed += gone as u64;
                break;
            }
            freed += front.len() as u64;
            let chunk = self.unacked.pop_front().expect("front exists");
            self.recycle(chunk.body);
        }
        self.buffered_bytes -= freed;
        (freed, born_ns)
    }

    /// Rejoin: what was written but never acked is unwritten again,
    /// ahead of what was appended during the outage. Returns the
    /// sequenced frames now pending — the replay.
    pub fn rewind(&mut self) -> u64 {
        let mut ring: Vec<Chunk> = self.unacked.drain(..).collect();
        ring.append(&mut self.pending);
        ring.iter_mut().for_each(|c| c.stamps_ns = 0);
        let sequenced = ring.iter().filter(|c| c.first_seq != 0);
        let frames = sequenced.map(Chunk::frames).sum();
        self.put_back(ring);
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(frames: u32, payload: usize) -> (Ring, usize) {
        let mut ring = Ring::default();
        let mut len = 0;
        for i in 0..frames {
            let mut f = Frame::data(i, 0, vec![i as u8; payload]);
            len = f.encoded_len();
            ring.append(&mut f, 0);
            assert_eq!(f.seq, u64::from(i) + 1);
        }
        (ring, len)
    }

    /// The bytes of `chunks`, as the write role puts them on the wire.
    fn wire_of(chunks: &[Chunk]) -> Vec<u8> {
        chunks
            .iter()
            .flat_map(Chunk::parts)
            .flatten()
            .copied()
            .collect()
    }

    fn write_all(ring: &mut Ring) -> Vec<u8> {
        let mut batch = ring.take_pending();
        let wire = wire_of(&batch);
        ring.retire(&mut batch);
        wire
    }

    /// `frame` as [`Frame::encode_into`] puts it, under sequence `seq`.
    fn encoded(frame: &Frame, seq: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        Frame {
            seq,
            ..frame.clone()
        }
        .encode_into(&mut bytes);
        bytes
    }

    #[test]
    fn frames_share_chunks_and_a_large_one_gets_its_own() {
        let (mut ring, len) = ring_of(10, 100);
        assert_eq!(ring.pending.len(), 1, "small frames share the tail");
        assert_eq!(ring.pending_bytes, 10 * len);
        let mut big = Frame::data(0, 0, vec![0; 4 * CHUNK_BYTES]);
        let big_len = big.encoded_len();
        ring.append(&mut big, 0);
        assert_eq!(ring.pending.len(), 2);
        assert_eq!(
            ring.pending[1].parts().map(<[u8]>::len),
            [PREFIX_LEN, 4 * CHUNK_BYTES]
        );
        assert_eq!(ring.pending_bytes, 10 * len + big_len);
        let slices: Vec<_> = ring.pending[0]
            .frame_parts()
            .map(|[f, _]| f.len())
            .collect();
        assert_eq!(slices, vec![len; 10]);
        // A small frame after the large one starts a chunk of its own.
        ring.append(&mut Frame::data(1, 0, vec![1; 100]), 0);
        assert_eq!(ring.pending.len(), 3);
        assert_eq!(ring.pending[2].len(), len);
    }

    #[test]
    fn a_large_frame_is_held_in_the_callers_allocation() {
        let mut ring = Ring::default();
        let mut big = Frame::data(3, 1, vec![7; CHUNK_BYTES]);
        let reference = encoded(&big, 1);
        let buffer = big.payload.as_ptr();
        ring.append(&mut big, 0);
        assert!(big.payload.is_empty(), "the payload moved into the ring");
        let [prefix, payload] = ring.pending[0].parts();
        assert_eq!(payload.as_ptr(), buffer, "the same allocation, not a copy");
        assert_eq!([prefix, payload].concat(), reference);
        let frames: Vec<_> = ring.pending[0].frame_parts().collect();
        assert_eq!(frames, [[prefix, payload]], "one frame, written whole");
        // Just under the threshold it is still encoded into a chunk.
        let mut small = Frame::data(3, 1, vec![7; CHUNK_BYTES - PREFIX_LEN - 1]);
        ring.append(&mut small, 0);
        assert_eq!(small.payload.len(), CHUNK_BYTES - PREFIX_LEN - 1);
        assert!(ring.pending[1].parts()[1].is_empty());
    }

    #[test]
    fn a_rewind_replays_large_frames_byte_for_byte() {
        let mut ring = Ring::default();
        let frames: Vec<Frame> = (0..4u8)
            .map(|i| Frame::data(9, 0, vec![i; if i % 2 == 0 { 64 << 10 } else { 50 }]))
            .collect();
        let reference: Vec<u8> = (frames.iter().zip(1..))
            .flat_map(|(f, seq)| encoded(f, seq))
            .collect();
        for f in &frames {
            ring.append(&mut f.clone(), 0);
        }
        assert_eq!(write_all(&mut ring), reference, "first write");
        assert_eq!(ring.rewind(), 4);
        assert_eq!(write_all(&mut ring), reference, "replay");
        ring.trim(1);
        assert_eq!(ring.rewind(), 3);
        let after_first = encoded(&frames[0], 1).len();
        assert_eq!(write_all(&mut ring), reference[after_first..]);
    }

    #[test]
    fn a_trim_never_splits_a_large_chunk() {
        let (mut ring, len) = ring_of(3, 10);
        let mut big = Frame::data(0, 0, vec![5; 2 * CHUNK_BYTES]);
        let big_len = big.encoded_len() as u64;
        ring.append(&mut big, 0);
        ring.append(&mut Frame::data(4, 0, vec![4; 10]), 0);
        write_all(&mut ring);
        assert_eq!(ring.unacked.len(), 3, "small, large, small: never merged");
        assert_eq!(ring.trim(2), (2 * len as u64, 0));
        assert_eq!(ring.unacked[1].frames(), 1);
        assert_eq!(ring.trim(3).0, len as u64, "up to the large frame");
        assert_eq!(ring.unacked[0].len() as u64, big_len, "still whole");
        assert_eq!(ring.trim(4).0, big_len, "acked whole");
        assert_eq!(ring.buffered_bytes, len as u64);
        assert_eq!(ring.trim(5).0, len as u64);
        assert!(ring.unacked.is_empty() && ring.buffered_bytes == 0);
    }

    #[test]
    fn put_back_and_pending_bytes_count_both_parts_of_a_large_frame() {
        let (mut ring, len) = ring_of(2, 10);
        let mut big = Frame::data(0, 0, vec![5; CHUNK_BYTES]);
        let big_len = big.encoded_len();
        ring.append(&mut big, 0);
        let batch = ring.take_pending();
        assert_eq!(ring.pending_bytes, 0);
        ring.append(&mut Frame::data(3, 0, vec![3; 10]), 0);
        ring.put_back(batch);
        assert_eq!(ring.pending_bytes, 3 * len + big_len);
        assert_eq!(ring.buffered_bytes, (3 * len + big_len) as u64);
        let seqs: Vec<_> = ring.pending.iter().map(|c| c.first_seq).collect();
        assert_eq!(seqs, [1, 3, 4]);
        write_all(&mut ring);
        assert_eq!(ring.trim(4).0, (3 * len + big_len) as u64);
    }

    #[test]
    fn an_ack_inside_a_chunk_trims_exactly_its_frames() {
        let (mut ring, len) = ring_of(10, 100);
        write_all(&mut ring);
        assert_eq!(ring.trim(4), (4 * len as u64, 0));
        assert_eq!(ring.buffered_bytes, 6 * len as u64);
        assert_eq!(ring.unacked[0].frames(), 6);
        assert_eq!(ring.trim(4), (0, 0), "acks are cumulative");
        assert_eq!(ring.trim(10).0, 6 * len as u64);
        assert!(ring.unacked.is_empty() && ring.buffered_bytes == 0);
        assert!(ring.spare.is_some(), "the emptied chunk is kept");
    }

    #[test]
    fn small_writes_merge_into_one_unacked_chunk() {
        let mut ring = Ring::default();
        for i in 0..50u32 {
            ring.append(&mut Frame::data(i, 0, vec![1; 8]), 0);
            write_all(&mut ring);
        }
        assert_eq!(ring.unacked.len(), 1, "a ping-pong holds one chunk");
        assert_eq!(ring.unacked[0].frames(), 50);
        assert_eq!(ring.trim(50).0, ring.acked * 41);
    }

    #[test]
    fn an_ack_that_overtakes_the_write_is_applied_at_retire() {
        let (mut ring, len) = ring_of(3, 10);
        let mut batch = ring.take_pending();
        assert_eq!(ring.trim(3), (0, 0), "nothing written yet");
        assert_eq!(ring.retire(&mut batch).0, 3 * len as u64);
        assert_eq!(ring.buffered_bytes, 0);
    }

    #[test]
    fn rewind_replays_the_unacked_tail_in_order_ahead_of_new_frames() {
        let (mut ring, _) = ring_of(6, 20);
        let first = write_all(&mut ring);
        ring.trim(2);
        ring.push_unsequenced(vec![0xEE; 5]);
        ring.append(&mut Frame::data(6, 0, vec![6; 20]), 0);
        assert_eq!(ring.rewind(), 5, "seqs 3..=7; the raw frame is not one");
        let replay = write_all(&mut ring);
        let per = first.len() / 6;
        assert_eq!(
            replay[..4 * per],
            first[2 * per..],
            "seqs 3..=6, as first sent"
        );
        assert_eq!(replay[4 * per..4 * per + 5], [0xEE; 5]);
        assert_eq!(ring.unacked.iter().map(Chunk::frames).sum::<u64>(), 5);
        // A failed write hands its batch back ahead of newer appends.
        ring.append(&mut Frame::data(7, 0, vec![7; 20]), 0);
        let batch = ring.take_pending();
        ring.append(&mut Frame::data(8, 0, vec![8; 20]), 0);
        ring.put_back(batch);
        let seqs: Vec<_> = ring.pending.iter().map(|c| c.first_seq).collect();
        assert_eq!(seqs, [8, 9]);
    }
}
