//! Bit-packed, delta-encoded posting lists.
//!
//! The like ledger stores, for every page and every user, the list of global
//! record indices of their likes. Those indices are strictly increasing by
//! construction (records only append), which makes the lists ideal for
//! delta encoding: a posting list of `n` entries over a ledger of `N`
//! records costs about `n * log2(N / n) / 8` bytes instead of `4 * n`.
//!
//! ## Block format (version 1)
//!
//! A list is a sequence of full **blocks** of [`BLOCK`] values in a byte
//! buffer, followed by an uncompressed `tail` of fewer than [`BLOCK`] raw
//! values. Each block is
//!
//! ```text
//! [ width: u8 ][ ceil(BLOCK * width / 8) bytes, LSB-first bit stream ]
//! ```
//!
//! where each packed field is `v[i] - v[i-1] - 1` (the gap minus one, with
//! an implicit `v[-1] = -1`), so a run of *consecutive* indices — a page
//! that received every like in a stretch of the ledger — packs at width 0:
//! sixty-four values in one header byte. `width` is the bit width of the
//! largest gap in the block, at most 32.
//!
//! The format is versioned alongside the event-log schema (see DESIGN.md).
//! Nothing persists these buffers today — checkpoints hold everything but
//! the world, which resume rebuilds from the log — but any layout change
//! bumps [`FORMAT_VERSION`] so a serialized form can tell layouts apart.
//!
//! Decoding is allocation-free: [`PostingList::iter`] walks blocks through a
//! fixed 64-slot buffer, so consumers (report aggregation, fanout, the
//! densest-window memo) never materialize an index `Vec`. An iterator's
//! [`position`][PostingIter::position] names the value it yields next by
//! its index and the byte offset and base of the block holding it. Blocks
//! only append, and a value still in the raw tail lands, once its block
//! fills, at the byte offset the packed section had when the position was
//! taken, so a position stays valid as the list grows:
//! [`PostingList::iter_from`] resumes there by decoding one block, not the
//! list before it.
//!
//! Encoding allocates per list, not per value: one
//! [`PostingList::extend_from_increasing`] call grows each buffer at most
//! once. The packed section reserves the exact bytes of every block the
//! call completes (a width pass over the values counts them), with growth
//! still amortized across calls. A tail that must grow gets the capacity
//! push growth would reach, `max(4, n.next_power_of_two())` for its
//! fullest length `n`, so a list built by one bulk call never holds more
//! than the same values pushed one at a time.

use serde::{Deserialize, Serialize};

/// Values per packed block.
pub const BLOCK: usize = 64;

/// Format version of the block layout.
pub const FORMAT_VERSION: u32 = 1;

/// A compressed list of strictly increasing `u32` values.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PostingList {
    /// Encoded full blocks (see module docs for the layout).
    packed: Vec<u8>,
    /// Most recent `len % BLOCK` values, raw.
    tail: Vec<u32>,
    /// Total number of values.
    len: u32,
    /// Last value of the packed section plus one (0 when no packed block
    /// exists yet); the base the next flushed block's first gap is encoded
    /// against. Held as `u64` so a packed block ending at `u32::MAX` keeps a
    /// representable base (`2^32`) — the codec covers the full u32 domain.
    packed_base: u64,
    /// Last value overall plus one (0 when empty); enforces monotonicity.
    /// `u64` for the same reason as `packed_base`: `last_plus` reaches
    /// `2^32` once `u32::MAX` itself is pushed.
    last_plus: u64,
}

impl PostingList {
    /// An empty list.
    pub fn new() -> Self {
        PostingList::default()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no value was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<u32> {
        // lint:allow(cast): last_plus - 1 fits u32 whenever the list is
        // non-empty (values are u32).
        self.last_plus.checked_sub(1).map(|v| v as u32)
    }

    /// Append `v`, which must be strictly greater than every value pushed
    /// so far. The full u32 domain is representable, `u32::MAX` included.
    ///
    /// # Panics
    /// Panics when monotonicity is violated.
    #[inline]
    pub fn push(&mut self, v: u32) {
        // lint:allow(panic-reachable-from-serve): documented panic; the ledger kernels append global record indices, which only grow
        assert!(
            u64::from(v) >= self.last_plus,
            "posting values must be strictly increasing: {v} after {:?}",
            self.last()
        );
        self.tail.push(v);
        self.last_plus = u64::from(v) + 1;
        self.len += 1;
        if self.tail.len() == BLOCK {
            self.flush_tail();
        }
    }

    /// Append every value of an increasing slice (each must exceed
    /// [`last`][Self::last]).
    ///
    /// Bulk path for the batch-ingest kernels: the head of `values` tops up
    /// the raw tail, full [`BLOCK`]s are then encoded straight from the
    /// slice (no per-value dispatch through [`push`][Self::push]), and the
    /// remainder lands in the tail. The encoded bytes are identical to a
    /// push-per-value loop — the block format only depends on the value
    /// sequence — and the call grows each buffer at most once (see the
    /// module docs).
    pub fn extend_from_increasing(&mut self, values: &[u32]) {
        let top_up = match self.tail.len() {
            0 => 0,
            held => values.len().min(BLOCK - held),
        };
        let (head, mut rest) = values.split_at(top_up);
        self.reserve_for(head, rest);
        // Top up a partially filled tail to a block boundary first.
        for &v in head {
            self.push(v);
        }
        debug_assert!(rest.is_empty() || self.tail.is_empty());
        while let Some((block, tail)) = rest.split_first_chunk::<BLOCK>() {
            let &[first, ..] = block;
            // lint:allow(panic-reachable-from-serve): documented panic; the ledger kernels append global record indices, which only grow
            assert!(
                u64::from(first) >= self.last_plus,
                "posting values must be strictly increasing: {first} after {last:?}",
                last = self.last()
            );
            self.encode_block(block);
            self.len += BLOCK as u32;
            self.last_plus = self.packed_base;
            rest = tail;
        }
        for &v in rest {
            self.push(v);
        }
    }

    /// Size both buffers, by the rule in the module docs, for an
    /// [`extend_from_increasing`] call that tops the tail up with `head`
    /// and then appends `rest`.
    ///
    /// [`extend_from_increasing`]: Self::extend_from_increasing
    fn reserve_for(&mut self, head: &[u32], rest: &[u32]) {
        let blocks = rest.chunks_exact(BLOCK);
        let remainder = blocks.remainder().len();
        let held = self.tail.len() + head.len();
        let mut base = self.packed_base;
        let mut bytes = 0;
        if held == BLOCK {
            // The top-up completes the tail's block.
            let (n, next) = block_bytes(base, self.tail.iter().chain(head));
            bytes += n;
            base = next;
        }
        for block in blocks {
            let (n, next) = block_bytes(base, block);
            bytes += n;
            base = next;
        }
        self.packed.reserve(bytes);
        let fullest = held.max(remainder);
        if fullest > 0 {
            let want = fullest.next_power_of_two().max(4);
            if self.tail.capacity() < want {
                self.tail.reserve_exact(want - self.tail.len());
            }
        }
    }

    /// Encode the (full) tail as one block.
    fn flush_tail(&mut self) {
        debug_assert_eq!(self.tail.len(), BLOCK);
        let tail = std::mem::take(&mut self.tail);
        self.encode_block(&tail);
        self.tail = tail;
        self.tail.clear();
    }

    /// Append one full block of increasing values (already validated
    /// against `last_plus`) to the packed section.
    fn encode_block(&mut self, values: &[u32]) {
        debug_assert_eq!(values.len(), BLOCK);
        let mut gaps = [0u32; BLOCK];
        let mut base = self.packed_base;
        let mut all = 0u32;
        for (gap, &v) in gaps.iter_mut().zip(values.iter()) {
            debug_assert!(u64::from(v) >= base, "non-monotone block");
            // Gaps fit u32 even at the domain edge: v - base <= u32::MAX
            // because base >= 0 and v <= u32::MAX.
            *gap = (u64::from(v) - base) as u32;
            all |= *gap;
            base = u64::from(v) + 1;
        }
        let width = (32 - all.leading_zeros()) as u8;
        self.packed
            .reserve(1 + (BLOCK * width as usize).div_ceil(8));
        self.packed.push(width);
        let mut acc = 0u64;
        let mut bits = 0u32;
        for &gap in &gaps {
            acc |= u64::from(gap) << bits;
            bits += u32::from(width);
            while bits >= 8 {
                self.packed.push(acc as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
        if bits > 0 {
            self.packed.push(acc as u8);
        }
        self.packed_base = base;
    }

    /// Iterate the values in increasing order, without allocating.
    pub fn iter(&self) -> PostingIter<'_> {
        self.iter_from(PostingPos::default())
    }

    /// Iterate the values from `pos` on: `iter().skip(k)` for the `k` an
    /// iterator over this list had yielded when it gave `pos`, however
    /// much the list grew since. Decodes at most the one block holding
    /// `pos` before the first value.
    pub fn iter_from(&self, pos: PostingPos) -> PostingIter<'_> {
        let mut it = PostingIter {
            packed: &self.packed,
            tail: &self.tail,
            tail_pos: 0,
            buf: [0; BLOCK],
            buf_len: 0,
            buf_pos: 0,
            next_byte: pos.byte as usize,
            block_byte: pos.byte,
            block_base: pos.base,
            base: pos.base,
            index: pos.index,
            len: self.len,
        };
        if pos.index >= self.len {
            // The end: nothing left to decode or read.
            it.index = self.len;
            it.next_byte = self.packed.len();
            it.tail_pos = self.tail.len();
        } else if it.next_byte < self.packed.len() {
            // Inside a packed block; one at a block's start decodes on the
            // first `next`, as a fresh iterator does.
            let skip = pos.index as usize % BLOCK;
            if skip > 0 {
                it.refill();
                it.buf_pos = skip as u8;
            }
        } else {
            it.tail_pos = self.tail.len() - (self.len - pos.index) as usize;
        }
        it
    }

    /// Bytes of heap storage currently held (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.packed.capacity() + self.tail.capacity() * 4
    }
}

/// Packed size of one block of increasing `values` whose first gap is
/// encoded against `base` (a header byte plus `BLOCK * width / 8` payload
/// bytes), and the base the next block is encoded against.
fn block_bytes<'a>(mut base: u64, values: impl IntoIterator<Item = &'a u32>) -> (usize, u64) {
    let mut all = 0u32;
    for &v in values {
        // Wrapping: a value out of order only mis-sizes a reservation here;
        // the encoder's own checks are the ones that refuse it.
        all |= u64::from(v).wrapping_sub(base) as u32;
        base = u64::from(v) + 1;
    }
    let width = (32 - all.leading_zeros()) as usize;
    (1 + (BLOCK * width).div_ceil(8), base)
}

impl<'a> IntoIterator for &'a PostingList {
    type Item = u32;
    type IntoIter = PostingIter<'a>;

    fn into_iter(self) -> PostingIter<'a> {
        self.iter()
    }
}

/// Where a [`PostingIter`] stands in its list: the index of the value it
/// yields next, and the byte offset of the block holding that value with
/// the base its first gap is encoded against. Valid for the list it came
/// from as long as that list lives, however much it grows (see the module
/// docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostingPos {
    index: u32,
    /// Fits `u32` for any list: a block of width `w` holds a gap of at
    /// least `2^(w-1)`, the gaps of `u32` values sum below `2^32`, and
    /// that budget packs into at most `2^26` blocks of width 7 (57 bytes
    /// each, 3.8 GB in all).
    byte: u32,
    base: u64,
}

impl PostingPos {
    /// The index of the value this position names.
    pub fn index(self) -> usize {
        self.index as usize
    }
}

/// Allocation-free iterator over a [`PostingList`], one decoded block at a
/// time.
#[derive(Clone, Debug)]
pub struct PostingIter<'a> {
    /// The list's whole packed section.
    packed: &'a [u8],
    tail: &'a [u32],
    tail_pos: usize,
    buf: [u32; BLOCK],
    buf_len: u8,
    buf_pos: u8,
    /// Byte offset of the next block to decode.
    next_byte: usize,
    /// Byte offset and base of the block in `buf`.
    block_byte: u32,
    block_base: u64,
    /// Last decoded value plus one (`u64`: reaches `2^32` after decoding
    /// `u32::MAX`).
    base: u64,
    /// Index of the next value, and the list's length.
    index: u32,
    len: u32,
}

impl PostingIter<'_> {
    /// The position of the value [`next`][Iterator::next] yields next (or
    /// of the list's end), for [`PostingList::iter_from`].
    pub fn position(&self) -> PostingPos {
        if self.buf_pos < self.buf_len {
            PostingPos {
                index: self.index,
                byte: self.block_byte,
                base: self.block_base,
            }
        } else {
            PostingPos {
                index: self.index,
                // lint:allow(cast): see `PostingPos::byte`.
                byte: self.next_byte as u32,
                base: self.base,
            }
        }
    }

    /// Decode the next packed block into the buffer.
    fn refill(&mut self) {
        // lint:allow(panic-reachable-from-serve): `next_byte` starts a block this list's encoder wrote, a width byte and then its payload
        let width = u32::from(self.packed[self.next_byte]);
        let payload = (BLOCK * width as usize).div_ceil(8);
        let start = self.next_byte + 1;
        // lint:allow(panic-reachable-from-serve): the payload of that same block
        let bytes = &self.packed[start..start + payload];
        let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
        let mut acc = 0u64;
        let mut bits = 0u32;
        let mut byte_i = 0usize;
        let mut base = self.base;
        for slot in self.buf.iter_mut() {
            while bits < width {
                // lint:allow(panic-reachable-from-serve): `BLOCK` fields of `width` bits take exactly `payload` bytes
                acc |= u64::from(bytes[byte_i]) << bits;
                byte_i += 1;
                bits += 8;
            }
            // lint:allow(cast): base + gap reproduces a pushed u32 exactly.
            let v = (base + (acc & mask)) as u32;
            acc >>= width;
            bits -= width;
            *slot = v;
            base = u64::from(v) + 1;
        }
        // lint:allow(cast): see `PostingPos::byte`.
        self.block_byte = self.next_byte as u32;
        self.block_base = self.base;
        self.base = base;
        self.next_byte += 1 + payload;
        self.buf_len = BLOCK as u8;
        self.buf_pos = 0;
    }
}

impl Iterator for PostingIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.buf_pos < self.buf_len {
            let v = self.buf[self.buf_pos as usize];
            self.buf_pos += 1;
            self.index += 1;
            return Some(v);
        }
        if self.next_byte < self.packed.len() {
            self.refill();
            return self.next();
        }
        if self.tail_pos < self.tail.len() {
            let v = self.tail[self.tail_pos];
            self.tail_pos += 1;
            self.index += 1;
            return Some(v);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = (self.len - self.index) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) {
        let mut list = PostingList::new();
        for &v in values {
            list.push(v);
        }
        assert_eq!(list.len(), values.len());
        assert_eq!(list.last(), values.last().copied());
        let decoded: Vec<u32> = list.iter().collect();
        assert_eq!(decoded, values, "round-trip mismatch");
        assert_eq!(list.iter().len(), values.len());
    }

    #[test]
    fn empty_list() {
        let list = PostingList::new();
        assert!(list.is_empty());
        assert_eq!(list.last(), None);
        assert_eq!(list.iter().count(), 0);
    }

    #[test]
    fn consecutive_values_pack_at_width_zero() {
        let values: Vec<u32> = (0..256).collect();
        let mut list = PostingList::new();
        list.extend_from_increasing(&values);
        // Four full blocks, one header byte each, no payload.
        assert_eq!(list.packed.len(), 4);
        assert_eq!(list.iter().collect::<Vec<u32>>(), values);
    }

    #[test]
    fn exact_block_boundaries() {
        for n in [63usize, 64, 65, 127, 128, 129, 640] {
            let values: Vec<u32> = (0..n as u32).map(|i| i * 3 + 1).collect();
            roundtrip(&values);
        }
    }

    #[test]
    fn wide_gaps_roundtrip() {
        roundtrip(&[0, 1, u32::MAX / 2, u32::MAX - 2]);
        let mut wide: Vec<u32> = (0..200).map(|i| i * 21_000_000).collect();
        wide.dedup();
        roundtrip(&wide);
    }

    #[test]
    fn mixed_density_blocks() {
        // Alternating dense runs and jumps across many blocks.
        let mut values = Vec::new();
        let mut v = 5u32;
        for chunk in 0..40 {
            for _ in 0..50 {
                values.push(v);
                v += 1 + (chunk % 3);
            }
            v += 1 << (chunk % 20);
        }
        roundtrip(&values);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_push_panics() {
        let mut list = PostingList::new();
        list.push(5);
        list.push(5);
    }

    #[test]
    fn u32_max_in_tail_roundtrips() {
        // Regression: the codec once excluded u32::MAX so the running
        // "last plus one" base stayed representable in u32. The full domain
        // must round-trip — here MAX sits in the raw tail.
        roundtrip(&[7, u32::MAX - 1, u32::MAX]);
        let mut list = PostingList::new();
        list.push(u32::MAX);
        assert_eq!(list.last(), Some(u32::MAX));
        assert_eq!(list.iter().collect::<Vec<u32>>(), vec![u32::MAX]);
    }

    #[test]
    fn u32_max_inside_packed_block_roundtrips() {
        // MAX as the final value of a *flushed* block: the post-block base
        // is 2^32, which only fits the widened u64 bases. Also exercises a
        // follow-up serde round-trip of the boundary state.
        let values: Vec<u32> = (0..BLOCK as u32).map(|i| u32::MAX - 63 + i).collect();
        assert_eq!(*values.last().unwrap(), u32::MAX);
        roundtrip(&values);
        let mut list = PostingList::new();
        list.extend_from_increasing(&values);
        assert!(list.tail.is_empty(), "block must have flushed");
        let json = serde_json::to_string(&list).expect("serialize");
        let back: PostingList = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.iter().collect::<Vec<u32>>(), values);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_after_u32_max_panics() {
        let mut list = PostingList::new();
        list.push(u32::MAX);
        list.push(u32::MAX); // nothing can follow the domain maximum
    }

    #[test]
    fn bulk_extend_bytes_match_per_value_pushes() {
        // The block-at-a-time encoder must emit the exact bytes a per-value
        // push loop would, for every tail/block phase alignment.
        let values: Vec<u32> = (0..500u32)
            .map(|i| i * 17 + (i % 5))
            .chain([u32::MAX - 1, u32::MAX])
            .collect();
        for split in [0usize, 1, 37, 63, 64, 65, 200, values.len()] {
            let mut bulk = PostingList::new();
            bulk.extend_from_increasing(&values[..split]);
            bulk.extend_from_increasing(&values[split..]);
            let mut pushed = PostingList::new();
            for &v in &values {
                pushed.push(v);
            }
            assert_eq!(bulk, pushed, "split={split}");
        }
    }

    #[test]
    fn bulk_extend_sizes_each_buffer_once() {
        // Gaps of 3 pack at width 2: three blocks of 1 + 16 bytes, then a
        // tail of five, which push growth would hold in 8 slots.
        let values: Vec<u32> = (0..3 * BLOCK as u32 + 5).map(|i| i * 3).collect();
        let mut list = PostingList::new();
        list.extend_from_increasing(&values);
        assert_eq!((list.packed.len(), list.packed.capacity()), (51, 51));
        assert_eq!((list.tail.len(), list.tail.capacity()), (5, 8));
        // A top-up past a block boundary grows the tail as pushes would: to
        // 64, where it flushes.
        let more: Vec<u32> = (0..70).map(|i| 1_000 + i).collect();
        list.extend_from_increasing(&more);
        assert_eq!((list.tail.len(), list.tail.capacity()), (11, BLOCK));
        let all: Vec<u32> = values.iter().chain(&more).copied().collect();
        assert_eq!(list.iter().collect::<Vec<u32>>(), all);
    }

    #[test]
    fn serde_roundtrip_preserves_values() {
        let values: Vec<u32> = (0..300).map(|i| i * 7 + 2).collect();
        let mut list = PostingList::new();
        list.extend_from_increasing(&values);
        let json = serde_json::to_string(&list).expect("serialize");
        let back: PostingList = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, list);
        assert_eq!(back.iter().collect::<Vec<u32>>(), values);
    }
}
