//! The resend ring of one TCP link: encoded frames in sequence order,
//! from the oldest the peer has not acknowledged to the newest appended,
//! held as chunks of whole frames and ordered by three cursors —
//! *acked ≤ written ≤ appended* (DESIGN.md §6.5). A frame is encoded
//! once, in place, into the tail chunk; the write role takes the
//! unwritten chunks out to write them without the link's lock and hands
//! them back as written ([`Ring::retire`]) or, after a failed write, as
//! unwritten again ([`Ring::put_back`]); a cumulative ack trims from the
//! front; a rejoin rewinds *written* to *acked* so the ordinary drain
//! replays the rest. No I/O and no locking here: `tcp.rs` owns both.

use crate::frame::Frame;
use std::collections::VecDeque;

/// Capacity of a chunk: what one flush of a corked link carries.
pub(crate) const CHUNK_BYTES: usize = 16 << 10;

/// One run of whole encoded frames, contiguous in sequence.
#[derive(Default)]
pub(crate) struct Chunk {
    bytes: Vec<u8>,
    /// Offset of the first unacked byte (always a frame boundary;
    /// nonzero once a cumulative ack lands inside the chunk).
    head: usize,
    /// Seqs of the frames in `bytes[head..]`. `first_seq == 0` marks one
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
    /// The bytes still owed to the peer.
    pub fn live(&self) -> &[u8] {
        &self.bytes[self.head..]
    }

    pub fn frames(&self) -> u64 {
        self.last_seq - self.first_seq + 1
    }

    /// The encoded frames of the chunk, one slice each (frames are
    /// length-prefixed; an unsequenced chunk is one frame whatever its
    /// bytes say).
    pub fn frame_slices(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = self.live();
        std::iter::from_fn(move || {
            let len = match rest.first_chunk::<4>() {
                _ if rest.is_empty() => return None,
                Some(body) if self.first_seq != 0 => 8 + u32::from_le_bytes(*body) as usize,
                _ => rest.len(),
            };
            let (frame, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;
            Some(frame)
        })
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
    /// Assigns `frame` the next seq and encodes it into the tail chunk:
    /// the last pending one if the frame fits, else a fresh one (the
    /// spare buffer if there is one; a frame larger than a chunk gets
    /// one of exactly its size). Returns the chunk for time-stamping.
    pub fn append(&mut self, frame: &mut Frame, now_ns: u64) -> &mut Chunk {
        let len = frame.encoded_len();
        self.appended += 1;
        frame.seq = self.appended;
        let fits = |c: &Chunk| c.first_seq != 0 && c.bytes.capacity() - c.bytes.len() >= len;
        if !self.pending.last().is_some_and(fits) {
            let spare = self.spare.take().filter(|s| s.capacity() >= len);
            self.pending.push(Chunk {
                bytes: spare.unwrap_or_else(|| Vec::with_capacity(len.max(CHUNK_BYTES))),
                first_seq: frame.seq,
                born_ns: now_ns,
                ..Chunk::default()
            });
        }
        self.buffered_bytes += len as u64;
        self.pending_bytes += len;
        let chunk = self.pending.last_mut().expect("just ensured");
        frame.encode_into(&mut chunk.bytes);
        chunk.last_seq = frame.seq;
        chunk
    }

    /// Queues one already-encoded unsequenced frame behind what is
    /// pending.
    pub fn push_unsequenced(&mut self, bytes: Vec<u8>) {
        self.pending_bytes += bytes.len();
        self.pending.push(Chunk {
            bytes,
            ..Chunk::default()
        });
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
        self.pending_bytes = batch.iter().map(|c| c.live().len()).sum();
        self.pending = batch;
    }

    /// Keeps a no-longer-needed chunk buffer for the next chunk.
    fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.spare.is_none() && bytes.capacity() == CHUNK_BYTES {
            bytes.clear();
            self.spare = Some(bytes);
        }
    }

    /// A written batch joins the written-unacked side (and is trimmed
    /// by an ack that overtook it). A chunk that fits behind the last
    /// unacked one is copied into it and its buffer recycled, so a
    /// trickle of small writes — a ping-pong — holds one chunk, not one
    /// per message. Returns what [`Ring::trim`] does.
    pub fn retire(&mut self, batch: &mut Vec<Chunk>) -> (u64, u64) {
        for chunk in batch.drain(..) {
            match self.unacked.back_mut() {
                _ if chunk.first_seq == 0 => self.recycle(chunk.bytes),
                Some(back) if back.bytes.capacity() - back.bytes.len() >= chunk.live().len() => {
                    back.bytes.extend_from_slice(chunk.live());
                    back.last_seq = chunk.last_seq;
                    self.recycle(chunk.bytes);
                }
                _ => self.unacked.push_back(chunk),
            }
        }
        if self.pending.capacity() == 0 {
            self.pending = std::mem::take(batch);
        }
        self.trim(self.acked)
    }

    /// Drops everything up to seq `acked` from the written side — whole
    /// chunks, and the acked head of the chunk the ack lands in.
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
                let gone: usize = front.frame_slices().take(frames).map(<[u8]>::len).sum();
                front.head += gone;
                front.first_seq = acked + 1;
                freed += gone as u64;
                break;
            }
            freed += front.live().len() as u64;
            let chunk = self.unacked.pop_front().expect("front exists");
            self.recycle(chunk.bytes);
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

    fn write_all(ring: &mut Ring) -> Vec<u8> {
        let mut batch = ring.take_pending();
        let wire = batch.iter().flat_map(|c| c.live().to_vec()).collect();
        ring.retire(&mut batch);
        wire
    }

    #[test]
    fn frames_share_chunks_and_a_large_one_gets_its_own() {
        let (mut ring, len) = ring_of(10, 100);
        assert_eq!(ring.pending.len(), 1, "small frames share the tail");
        assert_eq!(ring.pending_bytes, 10 * len);
        let mut big = Frame::data(0, 0, vec![0; 4 * CHUNK_BYTES]);
        ring.append(&mut big, 0);
        assert_eq!(ring.pending.len(), 2);
        assert_eq!(ring.pending[1].bytes.capacity(), big.encoded_len());
        let slices: Vec<_> = ring.pending[0].frame_slices().map(<[u8]>::len).collect();
        assert_eq!(slices, vec![len; 10]);
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
