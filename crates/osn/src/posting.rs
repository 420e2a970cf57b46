//! Bit-packed, delta-encoded posting lists.
//!
//! The like ledger stores, for every page and every user, the list of global
//! record indices of their likes. Those indices are strictly increasing by
//! construction (records only append), which makes the lists ideal for
//! delta encoding: a posting list of `n` entries over a ledger of `N`
//! records costs about `n * log2(N / n) / 8` bytes instead of `4 * n`.
//!
//! ## Block format
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
//! largest gap in the block, at most 32. Nothing persists these buffers:
//! checkpoints hold nothing of the world, which resume rebuilds from the
//! log.
//!
//! ## Storage
//!
//! A [`PostingLists`] store keeps many lists in two buffers, one
//! [`ListArena`] for every list's packed blocks and one for every list's
//! raw tail, so the ledger allocates per shard, not per list. A list's
//! bytes and tail are slots in those buffers, and a list that outgrows a
//! slot moves (see [`likelab_sim::arena`]). [`PostingList`] is a store
//! that holds one list. Readers borrow a list as [`Postings`].
//!
//! Decoding is allocation-free: [`Postings::iter`] walks blocks through a
//! fixed 64-slot buffer, so consumers (report aggregation, fanout, the
//! densest-window memo) never materialize an index `Vec`. An iterator's
//! [`position`][PostingIter::position] names the value it yields next by
//! its index and the byte offset, within the list's packed section, and
//! base of the block holding it. Blocks only append, and a value still in
//! the raw tail lands, once its block fills, at the byte offset the packed
//! section had when the position was taken, so a position stays valid as
//! the list grows or its slots move: [`Postings::iter_from`] resumes
//! there by decoding one block, not the list before it.
//!
//! Encoding fits each slot of a list at most once per
//! [`PostingLists::extend_from_increasing`] call. The packed section's
//! slot is fitted to the exact bytes of every block the call completes (a
//! width pass over the values counts them), and the tail's to the most
//! values it holds during the call. A list's first slot in each buffer
//! holds exactly that; a list that outgrows its slot moves to one with
//! the room push growth would reach, `max(4, n.next_power_of_two())` for
//! `n` values, so a list built by one bulk call never holds more than the
//! same values pushed one at a time. [`PostingLists::extend_each`] extends
//! a batch of lists after reserving each buffer once for all of them.
//! [`PostingLists::relayout`] makes room ahead for values still to come,
//! when the store's owner knows how many each list gets and how large
//! they can be: a tail's slot for all of them up to a block, and a packed
//! section's for every block they complete at the most bytes a block of
//! values that large can take (`1 + 8 * w` for values of `w` bits). No
//! extend within that moves a list or grows a buffer.

use likelab_sim::{ArenaStats, ListArena};

/// Values per packed block.
pub const BLOCK: usize = 64;

/// One list's codec state; its packed blocks and raw tail lie in its
/// store's buffers.
#[derive(Clone, Copy, Debug, Default)]
struct Head {
    /// Total number of values.
    len: u32,
    /// The packed section's last value, once the list has a packed block
    /// (`len` is more than its tail holds).
    packed_last: u32,
}

/// Many posting lists in two shared buffers: every list's packed blocks in
/// one, every list's raw tail in the other (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct PostingLists {
    heads: Vec<Head>,
    /// Encoded full blocks, one slot per list.
    packed: ListArena<u8>,
    /// The most recent `len % BLOCK` values of each list, raw.
    tails: ListArena<u32>,
}

impl PostingLists {
    /// `n` empty lists.
    pub fn with_lists(n: usize) -> Self {
        PostingLists {
            heads: vec![Head::default(); n],
            packed: ListArena::with_lists(n),
            tails: ListArena::with_lists(n),
        }
    }

    /// Number of lists.
    pub fn list_count(&self) -> usize {
        self.heads.len()
    }

    /// Grow to at least `n` lists; each new list is empty.
    pub fn ensure_lists(&mut self, n: usize) {
        if n > self.heads.len() {
            self.heads.resize(n, Head::default());
            self.packed.ensure_lists(n);
            self.tails.ensure_lists(n);
        }
    }

    /// The codec state of `list`.
    ///
    /// # Panics
    /// Panics when `list` is not below [`list_count`](Self::list_count).
    fn head(&self, list: usize) -> Head {
        // lint:allow(panic-reachable-from-serve): documented panic; the ledger asks only for lists below its shard width
        self.heads[list]
    }

    /// The base the next packed block of `list` encodes its first gap
    /// against (the packed section's last value plus one, 0 before its
    /// first block), and the list's last value plus one (0 when empty).
    /// Both are `u64` so a list that holds `u32::MAX` keeps a
    /// representable base (`2^32`): the codec covers the full u32 domain.
    fn bases(&self, list: usize) -> (u64, u64) {
        let head = self.head(list);
        let tail = self.tails.get(list);
        let packed_base = if head.len as usize > tail.len() {
            u64::from(head.packed_last) + 1
        } else {
            0
        };
        let last_plus = tail.last().map_or(packed_base, |&v| u64::from(v) + 1);
        (packed_base, last_plus)
    }

    /// Number of values in `list`, read from its head alone.
    ///
    /// # Panics
    /// Panics when `list` is not below [`list_count`](Self::list_count).
    pub fn list_len(&self, list: usize) -> usize {
        self.head(list).len as usize
    }

    /// A borrowed view of `list`.
    ///
    /// # Panics
    /// Panics when `list` is not below [`list_count`](Self::list_count).
    pub fn get(&self, list: usize) -> Postings<'_> {
        let Head { len, packed_last } = self.head(list);
        let tail = self.tails.get(list);
        let last = match tail.last() {
            Some(&v) => Some(v),
            None => (len > 0).then_some(packed_last),
        };
        Postings {
            packed: self.packed.get(list),
            tail,
            len,
            last,
        }
    }

    /// Append `v` to `list`; `v` must be strictly greater than every value
    /// the list holds. The full u32 domain is representable, `u32::MAX`
    /// included.
    ///
    /// # Panics
    /// Panics when monotonicity is violated.
    #[inline]
    pub fn push(&mut self, list: usize, v: u32) {
        self.append_tail(list, &[v]);
    }

    /// Append increasing `values` to the raw tail of `list`, which they
    /// fill at most to a block; a tail that fills is encoded as one.
    ///
    /// # Panics
    /// Panics when monotonicity is violated.
    fn append_tail(&mut self, list: usize, values: &[u32]) {
        let (packed_base, mut last_plus) = self.bases(list);
        for &v in values {
            // lint:allow(panic-reachable-from-serve): documented panic; the ledger kernels append global record indices, which only grow
            assert!(
                u64::from(v) >= last_plus,
                "posting values must be strictly increasing: {v} after {:?}",
                last_plus.checked_sub(1)
            );
            last_plus = u64::from(v) + 1;
        }
        self.tails.extend_from_slice(list, values);
        // lint:allow(panic-reachable-from-serve): `bases` read this index
        let head = &mut self.heads[list];
        head.len += values.len() as u32;
        let tail = self.tails.get(list);
        debug_assert!(tail.len() <= BLOCK);
        if let (BLOCK, Some(&last)) = (tail.len(), tail.last()) {
            encode_block(&mut self.packed, list, packed_base, tail);
            head.packed_last = last;
            self.tails.clear_list(list);
        }
    }

    /// `values` split into the head that tops the raw tail of `list` up to
    /// a block boundary, and the rest.
    fn split_top_up<'v>(&self, list: usize, values: &'v [u32]) -> (&'v [u32], &'v [u32]) {
        let top_up = match self.tails.get(list).len() {
            0 => 0,
            held => values.len().min(BLOCK - held),
        };
        values.split_at(top_up)
    }

    /// Append every value of an increasing slice to `list` (each must
    /// exceed the list's last value).
    ///
    /// Bulk path for the batch-ingest kernels: the head of `values` tops up
    /// the raw tail, full [`BLOCK`]s are then encoded straight from the
    /// slice (no per-value dispatch through [`push`][Self::push]), and the
    /// remainder lands in the tail. The encoded bytes are identical to a
    /// push-per-value loop — the block format only depends on the value
    /// sequence — and the call fits each of the list's slots at most once
    /// (see the module docs).
    pub fn extend_from_increasing(&mut self, list: usize, values: &[u32]) {
        if self.tails.get(list).len() + values.len() < BLOCK {
            // No block completes: the values join the raw tail, whose slot
            // the append fits as `growth` would.
            self.append_tail(list, values);
            return;
        }
        let (head, mut rest) = self.split_top_up(list, values);
        let (packed_len, tail_len) = self.growth(list, head, rest);
        self.packed.fit(list, packed_len);
        self.tails.fit(list, tail_len);
        // Top up a partially filled tail to a block boundary first.
        self.append_tail(list, head);
        debug_assert!(rest.is_empty() || self.tails.get(list).is_empty());
        let (mut base, mut last_plus) = self.bases(list);
        while let Some((block, tail)) = rest.split_first_chunk::<BLOCK>() {
            let &[first, .., last] = block;
            // lint:allow(panic-reachable-from-serve): documented panic; the ledger kernels append global record indices, which only grow
            assert!(
                u64::from(first) >= last_plus,
                "posting values must be strictly increasing: {first} after {:?}",
                last_plus.checked_sub(1)
            );
            encode_block(&mut self.packed, list, base, block);
            // lint:allow(panic-reachable-from-serve): `bases` read this index
            let head = &mut self.heads[list];
            head.len += BLOCK as u32;
            head.packed_last = last;
            base = u64::from(last) + 1;
            last_plus = base;
            rest = tail;
        }
        self.append_tail(list, rest);
    }

    /// Extend each list of a batch, as
    /// [`extend_from_increasing`](Self::extend_from_increasing) does, after
    /// reserving both buffers once for every slot the batch fits. `batch`
    /// names each list at most once, beside its new values, increasing: a
    /// first pass over it sizes the buffers, a second extends the lists.
    pub fn extend_each<'v>(&mut self, batch: impl Iterator<Item = (usize, &'v [u32])> + Clone) {
        let (mut packed, mut tails) = (0, 0);
        for (list, values) in batch.clone() {
            let held = self.tails.get(list).len();
            if held + values.len() < BLOCK {
                tails += self.tails.room_for(list, held + values.len());
                continue;
            }
            let (head, rest) = self.split_top_up(list, values);
            let (packed_len, tail_len) = self.growth(list, head, rest);
            packed += self.packed.room_for(list, packed_len);
            tails += self.tails.room_for(list, tail_len);
        }
        self.packed.reserve(packed);
        self.tails.reserve(tails);
        for (list, values) in batch {
            self.extend_from_increasing(list, values);
        }
    }

    /// Make room for `extra(list)` more values in every list, none of them
    /// above `max`, by one [`ListArena::relayout`] of each buffer: a tail
    /// gets room for all of them up to a block, a packed section for the
    /// blocks they complete at the most bytes a block of values up to
    /// `max` can take. Extends that stay within that then move no list and
    /// grow neither buffer, however they split the values.
    pub fn relayout(&mut self, extra: impl Fn(usize) -> usize, max: u32) {
        let block = 1 + (BLOCK * (32 - max.leading_zeros()) as usize).div_ceil(8);
        let tails = &self.tails;
        self.packed
            .relayout(|list, len| len + (tails.get(list).len() + extra(list)) / BLOCK * block);
        self.tails
            .relayout(|list, len| (len + extra(list)).min(BLOCK));
    }

    /// What an [`extend_from_increasing`] call that tops the tail of
    /// `list` up with `head` and then appends `rest` needs: the packed
    /// section's length after it (a width pass over the blocks the call
    /// completes counts their exact bytes), and the most values the tail
    /// holds during it.
    ///
    /// [`extend_from_increasing`]: Self::extend_from_increasing
    fn growth(&self, list: usize, head: &[u32], rest: &[u32]) -> (usize, usize) {
        let blocks = rest.chunks_exact(BLOCK);
        let remainder = blocks.remainder().len();
        let tail = self.tails.get(list);
        let held = tail.len() + head.len();
        let (mut base, _) = self.bases(list);
        let mut bytes = self.packed.get(list).len();
        if held == BLOCK {
            // The top-up completes the tail's block.
            let (n, next) = block_bytes(base, tail.iter().chain(head));
            bytes += n;
            base = next;
        }
        for block in blocks {
            let (n, next) = block_bytes(base, block);
            bytes += n;
            base = next;
        }
        (bytes, held.max(remainder))
    }

    /// Bytes of buffer the lists hold (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.packed.buffer_capacity() + self.tails.buffer_capacity() * 4
    }

    /// The moves, compactions and growths of both buffers since the last
    /// call.
    pub fn take_stats(&mut self) -> ArenaStats {
        let mut stats = self.packed.take_stats();
        stats += self.tails.take_stats();
        stats
    }

    /// `(length, capacity)` of the packed and the tail buffer.
    #[cfg(test)]
    pub(crate) fn buffer_sizes(&self) -> [(usize, usize); 2] {
        [
            (self.packed.buffer_len(), self.packed.buffer_capacity()),
            (self.tails.buffer_len(), self.tails.buffer_capacity()),
        ]
    }
}

/// Append one full block of increasing values (already validated against
/// the list's last value) to the packed section of `list`, its first gap
/// encoded against `base`.
fn encode_block(packed: &mut ListArena<u8>, list: usize, mut base: u64, values: &[u32]) {
    debug_assert_eq!(values.len(), BLOCK);
    let mut gaps = [0u32; BLOCK];
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
    // A header byte, then `BLOCK` fields of at most 32 bits.
    let mut bytes = [0u8; 1 + 4 * BLOCK];
    let mut n = 0;
    let mut emit = |byte: u8| {
        // lint:allow(panic-reachable-from-serve): `BLOCK` fields of `width` <= 32 bits take at most 4 * BLOCK bytes after the header
        bytes[n] = byte;
        n += 1;
    };
    emit(width);
    let mut acc = 0u64;
    let mut bits = 0u32;
    for &gap in &gaps {
        acc |= u64::from(gap) << bits;
        bits += u32::from(width);
        while bits >= 8 {
            emit(acc as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        emit(acc as u8);
    }
    // lint:allow(panic-reachable-from-serve): n counts the bytes written, at most bytes.len()
    packed.extend_from_slice(list, &bytes[..n]);
}

/// A borrowed view of one posting list in a [`PostingLists`] store.
#[derive(Clone, Copy, Debug)]
pub struct Postings<'a> {
    /// The list's packed section.
    packed: &'a [u8],
    tail: &'a [u32],
    len: u32,
    last: Option<u32>,
}

impl<'a> Postings<'a> {
    /// Number of values.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when the list holds no value.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The most recent value, if any.
    pub fn last(self) -> Option<u32> {
        self.last
    }

    /// Iterate the values in increasing order, without allocating.
    pub fn iter(self) -> PostingIter<'a> {
        self.iter_from(PostingPos::default())
    }

    /// Iterate the values from `pos` on: `iter().skip(k)` for the `k` an
    /// iterator over this list had yielded when it gave `pos`, however
    /// much the list grew or moved since. Decodes at most the one block
    /// holding `pos` before the first value.
    pub fn iter_from(self, pos: PostingPos) -> PostingIter<'a> {
        let mut it = PostingIter {
            packed: self.packed,
            tail: self.tail,
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
}

impl<'a> IntoIterator for Postings<'a> {
    type Item = u32;
    type IntoIter = PostingIter<'a>;

    fn into_iter(self) -> PostingIter<'a> {
        self.iter()
    }
}

/// A compressed list of strictly increasing `u32` values: a
/// [`PostingLists`] store that holds one list.
#[derive(Clone, Debug)]
pub struct PostingList {
    store: PostingLists,
}

impl Default for PostingList {
    fn default() -> Self {
        PostingList::new()
    }
}

/// Two lists are equal when they hold the same values, however their
/// buffers are laid out.
impl PartialEq for PostingList {
    fn eq(&self, other: &PostingList) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for PostingList {}

impl PostingList {
    /// An empty list.
    pub fn new() -> Self {
        PostingList {
            store: PostingLists::with_lists(1),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.store.get(0).len()
    }

    /// True when no value was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<u32> {
        self.store.get(0).last()
    }

    /// Append `v`, which must be strictly greater than every value pushed
    /// so far. The full u32 domain is representable, `u32::MAX` included.
    ///
    /// # Panics
    /// Panics when monotonicity is violated.
    pub fn push(&mut self, v: u32) {
        self.store.push(0, v);
    }

    /// Append every value of an increasing slice (each must exceed
    /// [`last`][Self::last]); see [`PostingLists::extend_from_increasing`].
    pub fn extend_from_increasing(&mut self, values: &[u32]) {
        self.store.extend_from_increasing(0, values);
    }

    /// Iterate the values in increasing order, without allocating.
    pub fn iter(&self) -> PostingIter<'_> {
        self.store.get(0).iter()
    }

    /// Iterate the values from `pos` on; see [`Postings::iter_from`].
    pub fn iter_from(&self, pos: PostingPos) -> PostingIter<'_> {
        self.store.get(0).iter_from(pos)
    }

    /// Bytes of heap storage the list's buffers hold (capacity, not
    /// length).
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
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
        assert_eq!(list.store.packed.get(0).len(), 4);
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
        // is 2^32, which only fits the widened u64 bases.
        let values: Vec<u32> = (0..BLOCK as u32).map(|i| u32::MAX - 63 + i).collect();
        assert_eq!(*values.last().unwrap(), u32::MAX);
        roundtrip(&values);
        let mut list = PostingList::new();
        list.extend_from_increasing(&values);
        assert!(
            list.store.tails.get(0).is_empty(),
            "block must have flushed"
        );
        assert_eq!(list.iter().collect::<Vec<u32>>(), values);
        assert_eq!(list.last(), Some(u32::MAX));
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
            let (b, p) = (&bulk.store, &pushed.store);
            assert_eq!(b.packed.get(0), p.packed.get(0), "split={split}");
            assert_eq!(b.tails.get(0), p.tails.get(0), "split={split}");
        }
    }

    #[test]
    fn bulk_extend_sizes_each_buffer_once() {
        // Gaps of 3 pack at width 2: three blocks of 1 + 16 bytes, then a
        // tail of five. A fresh list's first slots hold exactly that.
        let values: Vec<u32> = (0..3 * BLOCK as u32 + 5).map(|i| i * 3).collect();
        let mut list = PostingList::new();
        list.extend_from_increasing(&values);
        assert_eq!(list.store.buffer_sizes(), [(51, 51), (5, 5)]);
        // A top-up past a block boundary fills the tail to 64, where it
        // flushes a block of width 9 (1 + 72 bytes), and leaves 11 values.
        // Both slots outgrow their first size, so both get push growth:
        // 124 packed bytes in 128, a tail of 64.
        let more: Vec<u32> = (0..70).map(|i| 1_000 + i).collect();
        list.extend_from_increasing(&more);
        assert_eq!(list.store.buffer_sizes(), [(128, 128), (64, 64)]);
        assert_eq!(list.store.packed.get(0).len(), 124);
        assert_eq!(list.store.tails.get(0).len(), 11);
        assert_eq!(
            list.store.take_stats(),
            ArenaStats {
                moves: 0,
                compactions: 0,
                growths: 4
            },
            "one growth per buffer per call"
        );
        let all: Vec<u32> = values.iter().chain(&more).copied().collect();
        assert_eq!(list.iter().collect::<Vec<u32>>(), all);
    }

    #[test]
    fn a_batch_into_an_empty_store_reserves_each_buffer_once() {
        let mut store = PostingLists::with_lists(5);
        let lists: Vec<Vec<u32>> = (0..5u32)
            .map(|l| (0..l * 40).map(|i| i * (l + 1)).collect())
            .collect();
        store.extend_each(lists.iter().map(Vec::as_slice).enumerate());
        for (len, cap) in store.buffer_sizes() {
            assert_eq!(len, cap);
        }
        assert_eq!(store.take_stats().growths, 2, "one reservation per buffer");
        for (l, want) in lists.iter().enumerate() {
            assert_eq!(store.get(l).iter().collect::<Vec<u32>>(), *want);
        }
    }

    #[test]
    fn a_relayout_holds_every_extend_it_was_sized_for() {
        // Lists with a part-full tail, a block, two blocks and a tail, or
        // nothing, are given room for what they get next: a tail's worth, a
        // block and a half, none, or a block and a tail. Each list's new
        // values end at `max`, so its first new block packs a gap almost as
        // wide as `max`: as many bytes as the room allows.
        let max = (1u32 << 20) - 1;
        let start: [u32; 4] = [5, 64, 130, 0];
        let more: [u32; 4] = [40, 96, 0, 70];
        let mut store = PostingLists::with_lists(4);
        let gap = |k: u32| k * 4_000;
        for (list, &n) in start.iter().enumerate() {
            let values: Vec<u32> = (0..n).map(gap).collect();
            store.extend_from_increasing(list, &values);
        }
        store.relayout(|list| more[list] as usize, max);
        store.take_stats();
        for (list, &k) in more.iter().enumerate() {
            let values: Vec<u32> = (max + 1 - k..=max).collect();
            for chunk in values.chunks(7) {
                store.extend_from_increasing(list, chunk);
            }
        }
        assert_eq!(store.take_stats(), ArenaStats::default());
        for (list, (&n, &k)) in start.iter().zip(&more).enumerate() {
            assert_eq!(store.list_len(list), (n + k) as usize);
        }
    }

    #[test]
    fn positions_survive_moves() {
        // Three lists grow in turn, so each outgrows its slots and moves
        // behind the others again and again; a position taken before the
        // moves resumes where it stood.
        let mut store = PostingLists::with_lists(3);
        let mut next = [0u32; 3];
        let mut saved = Vec::new();
        for round in 0..12u32 {
            for (list, v) in next.iter_mut().enumerate() {
                let values: Vec<u32> = (0..round * 7 + 3).map(|i| *v + i * 5).collect();
                *v += (round * 7 + 3) * 5;
                store.extend_from_increasing(list, &values);
                let mut it = store.get(list).iter();
                let k = (round as usize * 11) % (store.get(list).len() + 1);
                for _ in 0..k {
                    it.next();
                }
                saved.push((list, k, it.position()));
            }
        }
        assert!(store.take_stats().moves > 0);
        for (list, k, pos) in saved {
            let view = store.get(list);
            let skipped: Vec<u32> = view.iter().skip(k).collect();
            assert_eq!(view.iter_from(pos).collect::<Vec<u32>>(), skipped);
        }
    }
}
