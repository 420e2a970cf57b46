//! Many growable lists in one buffer.
//!
//! A store that keeps one `Vec` per entity pays one or more heap blocks per
//! entity, and the allocator call behind each. [`ListArena`] keeps every
//! list of a store in one `Vec<T>` instead: a list is a slot
//! `(start, len, cap)` in that buffer, and the slack between a list's
//! length and its slot's capacity is room to grow in place.
//!
//! ## Growth
//!
//! - A list's first slot holds exactly what it is first given. A list that
//!   outgrows its slot moves, into a slot with the room push growth would
//!   reach, `max(4, n.next_power_of_two())` for `n` values, and its old
//!   slot becomes a hole. A list whose slot already ends the buffer grows
//!   where it stands.
//! - A moving list takes a hole before it takes the buffer's end. Holes
//!   wait in size classes, one per power of two, and a move that needs a
//!   slot of `2^k` takes the hole that last joined class `k` (at least
//!   `2^k` and below `2^(k + 1)` elements), whole. Lists that grow at
//!   like rates then fill each other's holes, so the buffer runs out, and
//!   squeezes or grows, less often.
//! - A buffer out of room first squeezes out its holes in place, moving
//!   the live slots down in buffer order, when they hold at least a
//!   sixteenth of it. A squeeze is a pass over the buffer, as a growth's
//!   copy is, so a floor on what it frees keeps squeezes amortized however
//!   small the holes a batch leaves. The arena notes every slot it places
//!   in buffer order, so a squeeze walks the slots and holes in the
//!   buffer and never the lists that hold none: an arena of many lists,
//!   few of them filled, squeezes at the cost of its buffer. The buffer grows
//!   when the holes are fewer or the squeeze frees too little, by the
//!   larger of the need and an eighth of its length, so a full buffer does
//!   not double for one more list.
//! - [`reserve`](ListArena::reserve) makes room for many lists at once:
//!   a batch that adds up [`room_for`](ListArena::room_for) over the lists
//!   it is about to fill, and reserves that, sizes the buffer once. Into an
//!   empty arena that reservation is exact: every first slot holds exactly
//!   its list, so the buffer's capacity ends equal to its length.
//! - The eighth is one rule, [`reserve_eighth`], which other buffers that
//!   grow by many small appends (the like ledger's columns) share.
//! - [`relayout`](ListArena::relayout) makes room for what many lists are
//!   still to be given, when an owner knows it ahead: every slot gets the
//!   capacity asked of it in one pass over the buffer. The holes are
//!   squeezed out, the allocation grows once, to exactly the new total,
//!   and the slots spread out: those that land lower move first, front to
//!   back, then those that land higher, from the back. Each value moves at
//!   most once and no second buffer is allocated. Appends that stay inside
//!   the asked capacities then move no list and grow no buffer.
//!
//! Moves, compactions, growths and relayouts change only where lists lie:
//! every list reads back the values written to it, in order.
//! [`ArenaStats`] counts moves, compactions and growths (a relayout that
//! grows the allocation counts one growth), so an owner can report where
//! its growth happens.

/// Set in the first field of a [`ListArena`]'s `placed` entry for a hole;
/// the other bits then hold the next hole of its size class, as an index
/// into `placed` plus one (0 ends the chain).
const HOLE: u32 = 1 << 31;

/// Size classes of holes: class `k` holds holes of `2^k` up to
/// `2^(k + 1) - 1` elements.
const CLASSES: usize = 32;

/// Where one list lies in its arena's buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Slot {
    start: u32,
    len: u32,
    cap: u32,
}

/// What an arena did to make room, since its stats were last taken.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Lists that outgrew their slot and moved to a hole or the end of
    /// the buffer.
    pub moves: u64,
    /// Times the buffer squeezed out its holes.
    pub compactions: u64,
    /// Times the buffer grew its allocation.
    pub growths: u64,
}

impl std::ops::AddAssign for ArenaStats {
    fn add_assign(&mut self, other: ArenaStats) {
        self.moves += other.moves;
        self.compactions += other.compactions;
        self.growths += other.growths;
    }
}

/// Many growable lists of `T` in one buffer. See the module docs.
///
/// ```
/// use likelab_sim::ListArena;
///
/// let mut lists = ListArena::<u32>::with_lists(3);
/// lists.extend_from_slice(0, &[1, 2, 3]);
/// lists.extend_from_slice(2, &[9]);
/// lists.insert(0, 1, 7);
/// assert_eq!(lists.get(0), [1, 7, 2, 3]);
/// assert_eq!(lists.get(1), []);
/// assert_eq!(lists.get(2), [9]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ListArena<T> {
    /// Every slot's values and slack, holes in between.
    buf: Vec<T>,
    slots: Vec<Slot>,
    /// One entry per slot placed since the last squeeze, in buffer order,
    /// the slots end to end: `(list, start)` of a slot a list holds, or
    /// `(HOLE | next, start)` of one a list moved out of.
    placed: Vec<(u32, u32)>,
    /// Per size class, the hole a move takes next, as an index into
    /// `placed` plus one (0: none).
    free: [u32; CLASSES],
    /// Elements of `buf` in holes.
    holes: usize,
    stats: ArenaStats,
}

/// The capacity a list of `n` values gets when it outgrows a slot of
/// `cap`: exactly `n` for its first slot, push growth after that.
fn grown(cap: usize, n: usize) -> usize {
    if cap == 0 {
        n
    } else {
        n.next_power_of_two().max(4)
    }
}

/// Make room in `buf` for `additional` more elements: when its spare
/// capacity falls short, grow it by the larger of the need and an eighth of
/// its length, not by doubling, so a large buffer that takes a few more
/// elements at a time holds at most an eighth of itself idle. Returns
/// whether it grew. Every [`ListArena`] buffer grows by this rule, and so
/// do the like ledger's columns.
pub fn reserve_eighth<T>(buf: &mut Vec<T>, additional: usize) -> bool {
    if buf.capacity() - buf.len() >= additional {
        return false;
    }
    buf.reserve_exact(additional.max(buf.len() / 8));
    true
}

impl<T: Copy + Default> ListArena<T> {
    /// An arena of `n` empty lists, with no buffer yet.
    pub fn with_lists(n: usize) -> Self {
        let mut arena = ListArena {
            buf: Vec::new(),
            slots: Vec::new(),
            placed: Vec::new(),
            free: [0; CLASSES],
            holes: 0,
            stats: ArenaStats::default(),
        };
        arena.ensure_lists(n);
        arena
    }

    /// Grow to at least `n` lists; each new list is empty.
    ///
    /// # Panics
    /// Panics past `2^31` lists.
    pub fn ensure_lists(&mut self, n: usize) {
        // lint:allow(panic-reachable-from-serve): documented panic; the ledger's shards hold at most 4096 lists, and the graph one per account id
        assert!(n <= HOLE as usize, "a list arena holds at most 2^31 lists");
        if n > self.slots.len() {
            self.slots.resize(n, Slot::default());
        }
    }

    /// The slot of `list`.
    ///
    /// # Panics
    /// Panics past the lists the arena holds.
    fn slot(&self, list: usize) -> Slot {
        // lint:allow(panic-reachable-from-serve): documented panic; the ledger and the graph ask only for lists they sized the arena to
        self.slots[list]
    }

    /// The values of `list`.
    ///
    /// # Panics
    /// Panics past the lists the arena holds.
    pub fn get(&self, list: usize) -> &[T] {
        let Slot { start, len, .. } = self.slot(list);
        let start = start as usize;
        // lint:allow(panic-reachable-from-serve): a slot lies inside the buffer
        &self.buf[start..start + len as usize]
    }

    /// Elements of free buffer that `list` would take to hold `n` values:
    /// 0 when its slot has room, else the slot it would move into. Add it
    /// up over a batch's lists and [`reserve`](Self::reserve) the sum to
    /// size the buffer once for the batch.
    pub fn room_for(&self, list: usize, n: usize) -> usize {
        let cap = self.slot(list).cap as usize;
        if n <= cap {
            0
        } else {
            grown(cap, n)
        }
    }

    /// Make room for `additional` more elements at the end of the buffer:
    /// squeeze out the holes first when they hold a sixteenth of the
    /// buffer, then grow if that is not enough, by [`reserve_eighth`].
    ///
    /// # Panics
    /// Panics when the buffer would pass `u32::MAX` elements.
    pub fn reserve(&mut self, additional: usize) {
        if self.buf.capacity() - self.buf.len() >= additional {
            return;
        }
        if self.holes > 0 && self.holes >= self.buf.len() / 16 {
            self.compact();
        }
        // lint:allow(panic-reachable-from-serve): documented panic; slots address the buffer with u32 offsets, and a ledger shard holds far fewer values than the u32 record indices it stores
        assert!(
            self.buf.len() + additional <= u32::MAX as usize,
            "a list arena holds at most u32::MAX elements"
        );
        if reserve_eighth(&mut self.buf, additional) {
            self.stats.growths += 1;
        }
    }

    /// Give every list the capacity `want(list, len)` asks for, where that
    /// is more than its slot holds, in one pass over the buffer (see the
    /// module docs): the holes are squeezed out, the allocation grows once
    /// to exactly the slots' new total, and the slots spread out in place.
    /// A list that holds no slot yet gets one after the others. When no
    /// list asks for more, the buffer stays as it is.
    ///
    /// # Panics
    /// Panics when the buffer would pass `u32::MAX` elements.
    pub fn relayout(&mut self, mut want: impl FnMut(usize, usize) -> usize) {
        let (mut raised, mut first_slots) = (false, 0);
        for (list, slot) in self.slots.iter_mut().enumerate() {
            let cap = want(list, slot.len as usize);
            if cap > slot.cap as usize {
                // lint:allow(panic-reachable-from-serve): documented panic; a ledger shard's lists hold far fewer values than the u32 record indices they store
                assert!(
                    cap <= u32::MAX as usize,
                    "a list arena holds at most u32::MAX elements"
                );
                if slot.cap == 0 {
                    // No slot yet: the start marks it for `placed` below.
                    slot.start = u32::MAX;
                    first_slots += 1;
                }
                slot.cap = cap as u32;
                raised = true;
            }
        }
        if !raised {
            return;
        }
        let new_total: usize = self.slots.iter().map(|slot| slot.cap as usize).sum();
        // lint:allow(panic-reachable-from-serve): documented panic; as above
        assert!(
            new_total <= u32::MAX as usize,
            "a list arena holds at most u32::MAX elements"
        );
        self.placed.reserve_exact(first_slots);
        for (list, slot) in self.slots.iter().enumerate() {
            if slot.start == u32::MAX {
                // Empty, so nothing moves from its `u32::MAX` start.
                self.placed.push((list as u32, u32::MAX));
            }
        }
        // Every slot's new start, in buffer order. A slot whose new start
        // is below its old one moves down now, front to back: what lies
        // below it has moved already or ends below its new start.
        let mut at = 0u32;
        for &(list, old) in &self.placed {
            if list & HOLE != 0 {
                continue;
            }
            // lint:allow(panic-reachable-from-serve): `placed` names only lists below slots.len()
            let slot = &mut self.slots[list as usize];
            if slot.len > 0 && at < old {
                let from = old as usize;
                self.buf
                    .copy_within(from..from + slot.len as usize, at as usize);
            }
            slot.start = at;
            at += slot.cap;
        }
        if new_total > self.buf.capacity() {
            self.buf.reserve_exact(new_total - self.buf.len());
            self.stats.growths += 1;
        }
        // A value still to move up lies below its slot's new end, so below
        // `new_total`.
        self.buf.resize(new_total, T::default());
        // The slots whose new start is above their old one move up, back to
        // front: what lies above them has moved already.
        for &(list, old) in self.placed.iter().rev() {
            if list & HOLE != 0 {
                continue;
            }
            // lint:allow(panic-reachable-from-serve): as above
            let slot = self.slots[list as usize];
            if slot.len > 0 && slot.start > old {
                let from = old as usize;
                self.buf
                    .copy_within(from..from + slot.len as usize, slot.start as usize);
            }
        }
        let slots = &self.slots;
        self.placed.retain_mut(|(list, start)| {
            let live = *list & HOLE == 0;
            if live {
                // lint:allow(panic-reachable-from-serve): as above
                *start = slots[*list as usize].start;
            }
            live
        });
        self.free = [0; CLASSES];
        self.holes = 0;
    }

    /// Squeeze the holes out of the buffer, moving every live slot down
    /// in buffer order. Slots keep their capacity.
    fn compact(&mut self) {
        let mut at = 0u32;
        let mut kept = 0;
        for i in 0..self.placed.len() {
            // lint:allow(panic-reachable-from-serve): i < placed.len()
            let (list, start) = self.placed[i];
            if list & HOLE != 0 {
                continue;
            }
            // lint:allow(panic-reachable-from-serve): `fit` notes only lists below slots.len()
            let slot = &mut self.slots[list as usize];
            debug_assert_eq!(slot.start, start, "a live entry names its list's slot");
            let len = slot.len as usize;
            self.buf
                .copy_within(start as usize..start as usize + len, at as usize);
            slot.start = at;
            // lint:allow(panic-reachable-from-serve): kept <= i
            self.placed[kept] = (list, at);
            kept += 1;
            at += slot.cap;
        }
        self.placed.truncate(kept);
        self.buf.truncate(at as usize);
        self.free = [0; CLASSES];
        self.holes = 0;
        self.stats.compactions += 1;
    }

    /// Take the hole a slot of `want` elements moves into, if its size
    /// class holds one: its `placed` index, start and size.
    fn take_hole(&mut self, want: usize) -> Option<(usize, usize, usize)> {
        // The class whose every hole holds `want`.
        let class = (want - 1).checked_ilog2().map_or(0, |b| b as usize + 1);
        let i = self.free.get(class)?.checked_sub(1)? as usize;
        // lint:allow(panic-reachable-from-serve): a class chain holds indices into `placed`
        let (link, start) = self.placed[i];
        // lint:allow(panic-reachable-from-serve): `class` indexed `free` above
        self.free[class] = link & !HOLE;
        let end = self
            .placed
            .get(i + 1)
            .map_or(self.buf.len(), |&(_, s)| s as usize);
        let size = end - start as usize;
        self.holes -= size;
        Some((i, start as usize, size))
    }

    /// Turn the slot at `start`, `cap` elements long, into a hole of its
    /// size class.
    fn free_slot(&mut self, start: u32, cap: u32) {
        let i = self.placed.partition_point(|&(_, s)| s < start);
        let class = cap.ilog2() as usize;
        // lint:allow(panic-reachable-from-serve): every slot a list holds has its entry, and cap.ilog2() < 32
        self.placed[i].0 = HOLE | self.free[class];
        // lint:allow(panic-reachable-from-serve): as above
        self.free[class] = i as u32 + 1;
        self.holes += cap as usize;
    }

    /// Give `list` a slot that holds `n` values, moving it (see the module
    /// docs) when its slot is too small. Its values stay as they are.
    pub fn fit(&mut self, list: usize, n: usize) {
        let slot = self.slot(list);
        if n <= slot.cap as usize {
            return;
        }
        let cap = grown(slot.cap as usize, n);
        if slot.cap > 0 && (slot.start + slot.cap) as usize == self.buf.len() {
            self.reserve(cap - slot.cap as usize);
            // A compaction moves slots down but keeps their order, so the
            // slot that ended the buffer still does.
            let start = self.slot(list).start as usize;
            self.buf.resize(start + cap, T::default());
            // lint:allow(panic-reachable-from-serve): `slot` above read this index
            self.slots[list].cap = cap as u32;
            return;
        }
        let (start, cap) = match self.take_hole(cap) {
            Some((i, start, size)) => {
                // lint:allow(panic-reachable-from-serve): `take_hole` found this index
                self.placed[i].0 = list as u32;
                (start, size)
            }
            None => {
                self.reserve(cap);
                let start = self.buf.len();
                // `placed` grows as the buffer does, by an eighth (and four
                // entries, so a short one does not grow one at a time):
                // doubling would hold as much again idle.
                if self.placed.len() == self.placed.capacity() {
                    self.placed.reserve_exact(self.placed.len() / 8 + 4);
                }
                // lint:allow(panic-reachable-from-serve): documented panic of `reserve`: the buffer stays below u32::MAX elements, so `placed` does too
                self.placed.push((list as u32, start as u32));
                self.buf.resize(start + cap, T::default());
                (start, cap)
            }
        };
        // A squeeze in `reserve` may have moved the old slot.
        let old = self.slot(list);
        let from = old.start as usize;
        self.buf.copy_within(from..from + old.len as usize, start);
        if old.cap > 0 {
            self.free_slot(old.start, old.cap);
            self.stats.moves += 1;
        }
        // lint:allow(panic-reachable-from-serve): `slot` above read this index
        self.slots[list] = Slot {
            start: start as u32,
            len: old.len,
            cap: cap as u32,
        };
    }

    /// Append `values` to `list`.
    pub fn extend_from_slice(&mut self, list: usize, values: &[T]) {
        let len = self.slot(list).len as usize;
        self.fit(list, len + values.len());
        let start = self.slot(list).start as usize + len;
        // lint:allow(panic-reachable-from-serve): `fit` gave the slot room for len + values.len()
        self.buf[start..start + values.len()].copy_from_slice(values);
        // lint:allow(panic-reachable-from-serve): `slot` above read this index
        self.slots[list].len += values.len() as u32;
    }

    /// Insert `value` at `index` of `list`, shifting the values after it.
    ///
    /// # Panics
    /// Panics when `index` is past the list's length.
    pub fn insert(&mut self, list: usize, index: usize, value: T) {
        let len = self.slot(list).len as usize;
        // lint:allow(panic-reachable-from-serve): documented panic; the ledger and the graph insert at a binary search's position, at most the length
        assert!(index <= len, "insert at {index} past a list of {len}");
        self.fit(list, len + 1);
        let at = self.slot(list).start as usize + index;
        self.buf.copy_within(at..at + (len - index), at + 1);
        // lint:allow(panic-reachable-from-serve): `fit` gave the slot room for len + 1
        self.buf[at] = value;
        // lint:allow(panic-reachable-from-serve): `slot` above read this index
        self.slots[list].len += 1;
    }

    /// Make `values` the whole of `list`. A list that must move for them
    /// copies none of its old values.
    pub fn replace(&mut self, list: usize, values: &[T]) {
        self.clear_list(list);
        self.extend_from_slice(list, values);
    }

    /// Empty `list`, keeping its slot.
    pub fn clear_list(&mut self, list: usize) {
        // lint:allow(panic-reachable-from-serve): documented panic of `get`'s kind: a list the arena holds
        self.slots[list].len = 0;
    }

    /// Empty every list and give up every slot, keeping the buffer's
    /// allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.slots.fill(Slot::default());
        self.placed.clear();
        self.free = [0; CLASSES];
        self.holes = 0;
    }

    /// Elements the buffer holds: every slot's values and slack, and the
    /// holes between slots.
    pub fn buffer_len(&self) -> usize {
        self.buf.len()
    }

    /// Elements the buffer has allocated.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The moves, compactions and growths since the last call.
    pub fn take_stats(&mut self) -> ArenaStats {
        std::mem::take(&mut self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn first_slots_are_exact_and_moves_get_push_growth() {
        let mut lists = ListArena::<u32>::with_lists(2);
        lists.reserve(lists.room_for(0, 3) + lists.room_for(1, 5));
        lists.extend_from_slice(0, &[1, 2, 3]);
        lists.extend_from_slice(1, &[4, 5, 6, 7, 8]);
        assert_eq!((lists.buffer_len(), lists.buffer_capacity()), (8, 8));
        // List 0 outgrows its slot: it moves behind list 1, into 4 slots,
        // and the buffer grows by the need, not by doubling.
        lists.extend_from_slice(0, &[9]);
        assert_eq!(lists.get(0), [1, 2, 3, 9]);
        assert_eq!(
            lists.slot(0),
            Slot {
                start: 8,
                len: 4,
                cap: 4
            }
        );
        assert_eq!(lists.buffer_capacity(), 12);
        // List 0 now ends the buffer, so it grows where it stands, once
        // the buffer has squeezed out the hole it left and grown by the
        // rest of the need.
        lists.extend_from_slice(0, &[10]);
        assert_eq!(lists.get(0), [1, 2, 3, 9, 10]);
        assert_eq!(
            lists.slot(0),
            Slot {
                start: 5,
                len: 5,
                cap: 8
            }
        );
        assert_eq!(lists.buffer_capacity(), 13);
        assert_eq!(
            lists.take_stats(),
            ArenaStats {
                moves: 1,
                compactions: 1,
                growths: 3
            }
        );
    }

    #[test]
    fn a_full_buffer_squeezes_its_holes_before_growing() {
        let mut lists = ListArena::<u32>::with_lists(3);
        lists.extend_from_slice(0, &[1; 4]);
        lists.extend_from_slice(1, &[2; 4]);
        lists.extend_from_slice(2, &[3; 8]);
        lists.extend_from_slice(0, &[1]); // moves: a hole of 4 at the front
        lists.take_stats();
        let before = lists.buffer_capacity();
        lists.clear_list(2);
        lists.replace(1, &[5, 6, 7, 8, 9]); // needs 8, finds the hole's 4
        assert_eq!(lists.take_stats().compactions, 1);
        assert_eq!(lists.get(0), [1, 1, 1, 1, 1]);
        assert_eq!(lists.get(1), [5, 6, 7, 8, 9]);
        assert_eq!(lists.get(2), []);
        assert!(lists.buffer_capacity() >= before);
    }

    #[test]
    fn a_move_takes_a_hole_of_its_class_before_the_end() {
        let mut lists = ListArena::<u32>::with_lists(3);
        // Slots 0..4, 4..10 and 10..11.
        lists.extend_from_slice(0, &[1; 4]);
        lists.extend_from_slice(1, &[2; 6]);
        lists.extend_from_slice(2, &[3; 1]);
        // List 1 moves to the end and leaves a hole of 6 (class 2: 4..7).
        lists.extend_from_slice(1, &[2]);
        assert_eq!(lists.slot(1).start, 11);
        lists.take_stats();
        let (len, capacity) = (lists.buffer_len(), lists.buffer_capacity());
        // List 2 needs a slot of 4: it takes that hole, whole, and leaves
        // its own slot of 1 as a hole.
        lists.extend_from_slice(2, &[4, 5]);
        assert_eq!(
            lists.slot(2),
            Slot {
                start: 4,
                len: 3,
                cap: 6
            }
        );
        assert_eq!(
            (lists.buffer_len(), lists.buffer_capacity()),
            (len, capacity)
        );
        assert_eq!(lists.holes, 1);
        assert_eq!(
            lists.take_stats(),
            ArenaStats {
                moves: 1,
                compactions: 0,
                growths: 0
            }
        );
        assert_eq!(lists.get(0), [1; 4]);
        assert_eq!(lists.get(1), [2; 7]);
        assert_eq!(lists.get(2), [3, 4, 5]);
        // A squeeze drops the hole of 1 and keeps buffer order.
        lists.compact();
        assert_eq!(lists.buffer_len(), len - 1);
        assert_eq!((lists.slot(1).start, lists.slot(2).start), (10, 4));
        assert_eq!(lists.get(1), [2; 7]);
        assert_eq!(lists.get(2), [3, 4, 5]);
    }

    #[test]
    fn growth_is_an_eighth_of_the_buffer_at_least() {
        let mut lists = ListArena::<u8>::with_lists(2);
        lists.extend_from_slice(0, &[0; 800]);
        assert_eq!(lists.buffer_capacity(), 800);
        lists.extend_from_slice(1, &[1]);
        assert_eq!(lists.buffer_capacity(), 900, "800 + 800 / 8");
    }

    #[test]
    fn a_relayout_spreads_the_slots_in_one_pass() {
        let mut lists = ListArena::<u32>::with_lists(4);
        // Slots 0..2, 2..4 and 4..7; list 0 then moves behind them and
        // leaves a hole of 2 at the front. List 3 holds no slot.
        lists.extend_from_slice(0, &[1, 2]);
        lists.extend_from_slice(1, &[3, 4]);
        lists.extend_from_slice(2, &[5, 6, 7]);
        lists.extend_from_slice(0, &[8]);
        assert_eq!((lists.slot(0).start, lists.holes), (7, 2));
        lists.take_stats();
        // List 1 moves down into the hole, list 2 stays, list 0 moves up
        // and list 3 gets its first slot at the end: 2 + 3 + 6 + 5.
        let more = [3, 0, 0, 5];
        lists.relayout(|l, len| len + more[l]);
        let starts: Vec<u32> = (0..4).map(|l| lists.slot(l).start).collect();
        assert_eq!(starts, [5, 0, 2, 11]);
        assert_eq!((lists.buffer_len(), lists.buffer_capacity()), (16, 16));
        assert_eq!(lists.holes, 0);
        assert_eq!(
            lists.take_stats(),
            ArenaStats {
                moves: 0,
                compactions: 0,
                growths: 1
            }
        );
        assert_eq!(lists.get(0), [1, 2, 8]);
        assert_eq!(lists.get(1), [3, 4]);
        assert_eq!(lists.get(2), [5, 6, 7]);
        assert_eq!(lists.get(3), []);
        // The asked room takes the appends in place.
        lists.extend_from_slice(0, &[9, 10]);
        lists.extend_from_slice(3, &[11, 12, 13, 14, 15]);
        assert_eq!(lists.take_stats(), ArenaStats::default());
        assert_eq!(lists.get(0), [1, 2, 8, 9, 10]);
        assert_eq!(lists.get(3), [11, 12, 13, 14, 15]);
        // A list that asks for no more than it holds leaves the buffer be.
        lists.relayout(|_, len| len);
        assert_eq!((lists.buffer_len(), lists.buffer_capacity()), (16, 16));
        // The slots stay in buffer order: the next move goes to the end.
        lists.extend_from_slice(2, &[16]);
        assert_eq!(lists.slot(2).start, 16);
        assert_eq!(lists.get(2), [5, 6, 7, 16]);
    }

    #[test]
    fn reserve_eighth_grows_by_an_eighth_or_the_need() {
        let mut buf = vec![0u8; 800];
        assert_eq!(buf.capacity(), 800);
        assert!(!reserve_eighth(&mut buf, 0));
        assert!(reserve_eighth(&mut buf, 1));
        assert_eq!(buf.capacity(), 900);
        assert!(!reserve_eighth(&mut buf, 100));
        assert!(reserve_eighth(&mut buf, 101));
        assert_eq!(buf.capacity(), 901);
    }

    #[test]
    fn clear_keeps_the_allocation() {
        let mut lists = ListArena::<u32>::with_lists(4);
        for list in 0..4 {
            lists.extend_from_slice(list, &[list as u32; 5]);
        }
        let capacity = lists.buffer_capacity();
        lists.clear();
        assert_eq!(lists.buffer_len(), 0);
        assert_eq!(lists.buffer_capacity(), capacity);
        assert!((0..4).all(|list| lists.get(list).is_empty()));
        lists.extend_from_slice(3, &[7]);
        assert_eq!(lists.get(3), [7]);
    }

    /// Random extends, inserts, replaces and clears over many lists, through
    /// moves, compactions, growths and relayouts, against a `Vec<Vec<T>>`.
    #[test]
    fn matches_a_vec_of_vecs() {
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = 2 + rng.below(40) as usize;
            let mut lists = ListArena::<u32>::with_lists(n);
            let mut reference: Vec<Vec<u32>> = vec![Vec::new(); n];
            let mut stats = ArenaStats::default();
            let mut relayouts = 0;
            for step in 0..600u32 {
                if rng.chance(0.02) {
                    let more = n + rng.below(4) as usize;
                    lists.ensure_lists(more);
                    reference.resize(more.max(reference.len()), Vec::new());
                }
                let list = rng.below(reference.len() as u64) as usize;
                let values: Vec<u32> = (0..rng.below(12)).map(|i| step * 16 + i as u32).collect();
                let want = &mut reference[list];
                match rng.below(10) {
                    0..=3 => {
                        lists.extend_from_slice(list, &values);
                        want.extend_from_slice(&values);
                    }
                    4..=5 => {
                        let at = rng.below(want.len() as u64 + 1) as usize;
                        lists.insert(list, at, step);
                        want.insert(at, step);
                    }
                    6 => {
                        lists.replace(list, &values);
                        *want = values;
                    }
                    7 => {
                        // A batch: size the buffer once for several lists.
                        let mut batch: Vec<usize> = (0..4)
                            .map(|_| rng.below(reference.len() as u64) as usize)
                            .collect();
                        batch.sort_unstable();
                        batch.dedup();
                        let room = batch
                            .iter()
                            .map(|&l| lists.room_for(l, lists.get(l).len() + 3))
                            .sum();
                        lists.reserve(room);
                        let growths = lists.stats.growths;
                        for &l in &batch {
                            lists.extend_from_slice(l, &[step; 3]);
                            reference[l].extend_from_slice(&[step; 3]);
                        }
                        assert_eq!(lists.stats.growths, growths, "the reservation held");
                    }
                    8 => {
                        lists.clear_list(list);
                        want.clear();
                    }
                    _ => {
                        // Room asked ahead for some lists, then given in
                        // two appends each: nothing moves or grows.
                        let extra: Vec<u32> = (0..reference.len())
                            .map(|_| {
                                if rng.chance(0.4) {
                                    rng.below(14) as u32
                                } else {
                                    0
                                }
                            })
                            .collect();
                        lists.relayout(|l, len| len + extra[l] as usize);
                        stats += lists.take_stats();
                        let capacity = lists.buffer_capacity();
                        for (l, &k) in extra.iter().enumerate() {
                            let values: Vec<u32> = (0..k).map(|i| step * 16 + i).collect();
                            let (a, b) = values.split_at(values.len() / 2);
                            lists.extend_from_slice(l, a);
                            lists.extend_from_slice(l, b);
                            reference[l].extend_from_slice(&values);
                        }
                        assert_eq!(lists.take_stats(), ArenaStats::default(), "seed {seed}");
                        assert_eq!(lists.buffer_capacity(), capacity);
                        relayouts += 1;
                    }
                }
                if rng.chance(0.01) {
                    lists.clear();
                    reference.iter_mut().for_each(Vec::clear);
                }
                stats += lists.take_stats();
                assert_eq!(lists.slots.len(), reference.len());
                for (l, want) in reference.iter().enumerate() {
                    assert_eq!(
                        lists.get(l),
                        want.as_slice(),
                        "seed {seed}, step {step}, list {l}"
                    );
                }
                assert!(lists.buffer_len() <= lists.buffer_capacity());
            }
            assert!(
                stats.moves > 0 && stats.growths > 0 && relayouts > 0,
                "seed {seed}: {stats:?}"
            );
        }
    }

    #[test]
    fn moves_and_compactions_happen_in_the_reference_run() {
        // Many small lists growing in turn leave holes that a later full
        // buffer squeezes out.
        let mut lists = ListArena::<u32>::with_lists(64);
        let mut stats = ArenaStats::default();
        for round in 0..20u32 {
            for list in 0..64 {
                lists.extend_from_slice(list, &[round]);
            }
            stats += lists.take_stats();
        }
        assert!(stats.compactions > 0, "{stats:?}");
        for list in 0..64 {
            assert_eq!(lists.get(list), (0..20).collect::<Vec<u32>>());
        }
    }
}
