//! The like ledger: every like with its timestamp, indexed from both sides.
//!
//! The ledger is the platform's authoritative record. The temporal analysis
//! (Figure 2) and the burst detector both consume chronological per-page
//! streams; the page-like analysis (Figure 4) consumes per-user counts.
//!
//! ## Layout
//!
//! At million-account scale the ledger holds tens of millions of records, so
//! storage is struct-of-arrays (`users`/`pages`/`times` columns in global
//! insertion order) and both indexes are bit-packed posting lists ([`PostingLists`]) of
//! global record indices — strictly increasing by construction, so they
//! delta-encode to a fraction of a raw `Vec<u32>` and decode through
//! allocation-free iterators. The per-page index is **sharded by page-id
//! range**: each shard owns [`SHARD_PAGES`] consecutive pages and its own
//! local posting lists. Ingestion ([`LikeLedger::ingest_columns`] and its
//! owning twin, the only write paths) takes each batch as [`LikeColumns`] —
//! the SoA twin of a row-tuple slice — dedups per user, memcpys the
//! accepted column regions onto the ledger (an empty ledger given a batch
//! it accepts whole takes its columns over instead), and groups accepted
//! records per shard; the per-user and per-shard stages run through
//! [`likelab_sim::parallel`], and report aggregation can walk shards
//! independently. Nothing materializes a global intermediate `Vec` per
//! page, and single-column accessors ([`page_users`](LikeLedger::page_users),
//! [`user_times`](LikeLedger::user_times), …) let scan-heavy consumers read
//! just the fields they fold.
//!
//! The per-user index is sharded too, by account id: each shard owns
//! [`SHARD_USERS`] consecutive accounts' posting lists and page sets.
//! Membership (has `user` already liked `page`?) is answered by a per-user
//! sorted page list. Every like arrives in a batch, so each list is rebuilt
//! by one sorted merge per batch that names its user — the heavy likers the
//! paper describes (median 600–1000 page likes) never pay a memmove per
//! like.
//!
//! Ingest allocates per shard, not per list. A shard keeps all its lists
//! in a few shared buffers ([`likelab_sim::ListArena`]: packed blocks, raw
//! tails and, on the user side, page sets), and a batch sizes each buffer
//! it touches once, before any list moves; the population batch into an
//! empty ledger costs one exact reservation per buffer. A list that
//! outgrows its slot moves, with push-growth room, into a hole another
//! list left or to the end of its buffer (see [`likelab_sim::arena`]).
//! The columns and the shard buffers grow by one rule,
//! [`likelab_sim::reserve_eighth`]: by the larger of the need and an
//! eighth of their length, never by doubling.
//!
//! A caller that knows which likes are coming can say so first:
//! [`LikeLedger::reserve`] gives the columns exactly their room and every
//! shard buffer that holds a list they name one in-place relayout, after
//! which ingesting them, in batches of any size, moves no list and grows
//! no buffer. A study's event loop reserves its plan's unfired likes this
//! way; replay and serve fold a log with no plan to read ahead, and grow
//! batch by batch. The sparse kernel's working arrays belong
//! to the ledger and are cleared, not freed, between batches; the dense
//! kernel's batch-sized arrays are freed when its call returns, so the
//! population batch leaves no scratch behind. Each ingest and each
//! reservation adds what the buffers did to make room to the
//! `ledger.list.moves`, `ledger.buffer.compactions` and
//! `ledger.buffer.growths` counters, and to
//! [`LikeLedger::buffer_stats`].
//!
//! Every accessor hands out [`LikeRecord`]s **by value** (assembled from the
//! columns on demand), so iteration reads the same as it did when records
//! were stored as an array of structs.

use crate::posting::{PostingLists, Postings};
use likelab_graph::{PageId, UserId};
use likelab_sim::parallel::{parallel_owned, split_spans, Exec};
use likelab_sim::SimTime;
use likelab_sim::{reserve_eighth, ArenaStats, ListArena};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};

/// One like event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LikeRecord {
    /// Who liked.
    pub user: UserId,
    /// What they liked.
    pub page: PageId,
    /// When.
    pub at: SimTime,
}

/// A column batch of likes: the struct-of-arrays twin of
/// `&[(UserId, PageId, SimTime)]`, one entry per batch position.
///
/// Every like enters the ledger as one of these: synthesis, farm
/// camouflage and the event loop build them directly, so batches flow into
/// the ledger's columns without a row-tuple detour — the accepted region of
/// each column memcpys straight onto the ledger, and an empty ledger takes
/// over a batch it is given whole. The world journals a batch
/// as it is, so it serializes as three integer arrays. The three columns
/// always have equal lengths; a batch read from a log is checked for that
/// ([`OsnWorld::check_event`](crate::OsnWorld::check_event)) before it is
/// applied.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LikeColumns {
    /// Who liked, per batch position.
    pub users: Vec<UserId>,
    /// What they liked, per batch position.
    pub pages: Vec<PageId>,
    /// When, per batch position.
    pub times: Vec<SimTime>,
}

impl LikeColumns {
    /// Empty columns with room for `n` likes each.
    pub fn with_capacity(n: usize) -> Self {
        LikeColumns {
            users: Vec::with_capacity(n),
            pages: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
        }
    }

    /// Build columns from row tuples (tests).
    pub fn from_rows(rows: &[(UserId, PageId, SimTime)]) -> Self {
        let mut cols = LikeColumns::with_capacity(rows.len());
        for &(user, page, at) in rows {
            cols.push(user, page, at);
        }
        cols
    }

    /// Number of likes in the batch.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch holds no likes.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Drop all likes, keeping the allocations.
    pub fn clear(&mut self) {
        self.users.clear();
        self.pages.clear();
        self.times.clear();
    }

    /// Append one like.
    pub fn push(&mut self, user: UserId, page: PageId, at: SimTime) {
        self.users.push(user);
        self.pages.push(page);
        self.times.push(at);
    }

    /// Zip the columns back into row tuples.
    pub fn rows(&self) -> impl Iterator<Item = (UserId, PageId, SimTime)> + '_ {
        let cols = self.users.iter().zip(&self.pages).zip(&self.times);
        cols.map(|((&user, &page), &at)| (user, page, at))
    }
}

/// Pages per page-side index shard. Small enough that a study's
/// background-page count spreads over many shards, large enough that a
/// shard's posting lists amortize per-shard bookkeeping.
pub const SHARD_PAGES: usize = 4096;

/// Accounts per user-side index shard. The dense kernel's user stages run
/// whole shards as jobs, so shards must be narrow enough that a paper
/// world (3,468 accounts: 14 shards) still fills a 2-worker pool's 8 jobs;
/// a world that fits in one shard runs its user stages on one thread.
pub const SHARD_USERS: usize = 256;

/// One account-range shard of the per-user index: the posting lists and
/// the page sets of [`SHARD_USERS`] consecutive accounts, every list in
/// the shard's buffers.
#[derive(Clone, Debug)]
struct UserShard {
    postings: PostingLists,
    /// Each account's liked pages, sorted (membership checks).
    pages: ListArena<u32>,
}

impl UserShard {
    fn new() -> Self {
        UserShard {
            postings: PostingLists::with_lists(SHARD_USERS),
            pages: ListArena::with_lists(SHARD_USERS),
        }
    }
}

/// Merge one user's batch candidates into their sorted page set, list
/// `list` of `sets`. `cand` holds `(page, pos)` pairs sorted ascending (so
/// equal pages are adjacent, earliest batch position first). For each page
/// run: if the page is already in the set every occurrence is rejected;
/// otherwise exactly the first occurrence is accepted (`accept(pos)`) — the
/// decisions a positional first-wins loop would make. `merged` is reusable
/// scratch.
///
/// A batch that names one page — the event loop's like runs, nearly
/// always — inserts it in place instead of rebuilding the set.
fn absorb_sorted(
    sets: &mut ListArena<u32>,
    list: usize,
    cand: &[(u32, u32)],
    mut accept: impl FnMut(u32),
    merged: &mut Vec<u32>,
) {
    let set = sets.get(list);
    if let (Some(&(page, pos)), Some(&(last, _))) = (cand.first(), cand.last()) {
        if page == last {
            if let Err(at) = set.binary_search(&page) {
                accept(pos);
                sets.insert(list, at, page);
            }
            return;
        }
    }
    merged.clear();
    let mut i = 0usize;
    // One equal-page run at a time; its later occurrences are dups.
    for run in cand.chunk_by(|a, b| a.0 == b.0) {
        let &[(page, pos), ..] = run else { continue };
        while let Some(&below) = set.get(i).filter(|&&p| p < page) {
            merged.push(below);
            i += 1;
        }
        if set.get(i) != Some(&page) {
            accept(pos);
            merged.push(page);
        }
    }
    // `merged` holds `set[..i]` plus the accepted pages; when nothing was
    // accepted the set is unchanged.
    if merged.len() > i {
        merged.extend_from_slice(set.get(i..).unwrap_or_default());
        sets.replace(list, merged);
    }
}

/// Room the page sets of `users` (the accounts from `first` on, in one
/// shard) may take from their buffer for a batch that gives each user
/// `rows(user)` candidates: every candidate accepted, the most a merge can
/// add. Exact when the batch repeats no like.
fn page_set_room(
    sets: &ListArena<u32>,
    first: usize,
    users: impl IntoIterator<Item = (usize, usize)>,
) -> usize {
    users
        .into_iter()
        .filter(|&(_, rows)| rows > 0)
        .map(|(user, rows)| {
            let list = user - first;
            sets.room_for(list, sets.get(list).len() + rows)
        })
        .sum()
}

/// Each `(list, start, end)` of `lists` beside its values in `values`.
fn list_values<'v>(
    lists: &'v [(u32, u32, u32)],
    values: &'v [u32],
) -> impl Iterator<Item = (usize, &'v [u32])> + Clone {
    lists.iter().map(move |&(list, start, end)| {
        // lint:allow(panic-reachable-from-serve): the sparse kernel pushes ranges of `values` it gathered
        (list as usize, &values[start as usize..end as usize])
    })
}

/// Publish what the index buffers did to make room during one ingest or
/// reservation.
fn report(stats: ArenaStats) {
    use likelab_obs::metrics::counter;
    counter("ledger.list.moves", stats.moves);
    counter("ledger.buffer.compactions", stats.compactions);
    counter("ledger.buffer.growths", stats.growths);
}

/// Grow each column, by [`reserve_eighth`], to take `n` more rows.
fn reserve_rows(
    users: &mut Vec<UserId>,
    pages: &mut Vec<PageId>,
    times: &mut Vec<SimTime>,
    n: usize,
) {
    reserve_eighth(users, n);
    reserve_eighth(pages, n);
    reserve_eighth(times, n);
}

/// The sparse kernel's working arrays. The ledger keeps them between
/// batches, cleared rather than freed, so a stream of small batches (the
/// event loop's like runs, a log fold's batches) allocates them once.
#[derive(Clone, Debug, Default)]
struct SparseScratch {
    /// `(user, page, batch position)`, sorted.
    triples: Vec<(u32, u32, u32)>,
    /// Accept flag per batch position.
    accept: Vec<bool>,
    /// Global record index per batch position (`u32::MAX`: rejected).
    global_idx: Vec<u32>,
    /// `(page, global index)` of the appended records, sorted.
    by_page: Vec<(u32, u32)>,
    /// One user's `(page, position)` candidates.
    cand: Vec<(u32, u32)>,
    /// [`absorb_sorted`]'s merge buffer.
    merged: Vec<u32>,
    /// Posting lists' new values, list after list: one user shard's
    /// lists, then every page list the batch extends.
    values: Vec<u32>,
    /// `(list, start, end)` of one shard's lists: where each list's new
    /// values lie in `values`.
    lists: Vec<(u32, u32, u32)>,
}

/// The append-only like ledger with both-side indexes. See the module docs
/// for the sharded, bit-packed struct-of-arrays layout.
#[derive(Clone, Debug, Default)]
pub struct LikeLedger {
    users: Vec<UserId>,
    pages: Vec<PageId>,
    times: Vec<SimTime>,
    /// The per-user index, [`SHARD_USERS`] accounts a shard.
    user_shards: Vec<UserShard>,
    n_users: usize,
    /// The per-page index, [`SHARD_PAGES`] pages a shard: each shard's
    /// posting lists, one per page of its range.
    page_shards: Vec<PostingLists>,
    n_pages: usize,
    sparse: SparseScratch,
    /// What the index buffers did to make room, over the ledger's life.
    stats: ArenaStats,
}

impl LikeLedger {
    /// An empty ledger sized for `users` and `pages`.
    pub fn new(users: usize, pages: usize) -> Self {
        let mut ledger = LikeLedger::default();
        ledger.ensure_users(users);
        ledger.ensure_pages(pages);
        ledger
    }

    /// Grow the user side.
    pub fn ensure_users(&mut self, n: usize) {
        if n > self.n_users {
            self.n_users = n;
            self.user_shards
                .resize_with(n.div_ceil(SHARD_USERS), UserShard::new);
        }
    }

    /// Grow the page side: size the shard list, and each shard's posting
    /// lists, for `n` pages.
    pub fn ensure_pages(&mut self, n: usize) {
        if n <= self.n_pages {
            return;
        }
        self.n_pages = n;
        let shard_count = n.div_ceil(SHARD_PAGES);
        self.page_shards
            .resize_with(shard_count, PostingLists::default);
        for (s, shard) in self.page_shards.iter_mut().enumerate() {
            shard.ensure_lists((n - s * SHARD_PAGES).min(SHARD_PAGES));
        }
    }

    /// Ingest a batch of likes, indexing pages per shard in parallel, and
    /// return how many were new. An item is accepted iff its liker has not
    /// liked that page before — in history or earlier in the batch — so
    /// duplicates are ignored and the first occurrence wins, exactly as a
    /// positional one-like-at-a-time loop would decide. Accepted likes are
    /// appended in batch order.
    ///
    /// Arrival order need not be chronological — farm accounts created
    /// mid-study backfill their camouflage histories with past timestamps.
    /// Use the `*_sorted` accessors when time order matters.
    ///
    /// The resulting ledger bytes do not depend on `exec`: acceptance and
    /// global order are decided per user and by sequential passes; the
    /// parallel stages split disjoint state — runs of user shards for the
    /// page sets and per-user posting lists, page shards for the per-page
    /// ones — and each posting list's content is fully determined by the
    /// global order.
    pub fn ingest_columns(&mut self, batch: &LikeColumns, exec: Exec) -> usize {
        // lint:allow(log-bypass): the ledger's public entry point runs its own kernel.
        self.ingest_columns_owned(Cow::Borrowed(batch), exec)
    }

    /// [`ingest_columns`][Self::ingest_columns] for a batch the caller may
    /// give up: given `Cow::Owned`, an empty ledger that accepts every
    /// like takes over the batch's three columns as its own instead of
    /// copying them (the population's one big batch, synthesized or
    /// replayed). The outcome is identical either way. Only the world
    /// calls it, after journaling the batch.
    pub(crate) fn ingest_columns_owned(
        &mut self,
        batch: Cow<'_, LikeColumns>,
        exec: Exec,
    ) -> usize {
        // A positional loop would pay several random-memory touches per
        // item (membership probe, set insert, posting push into a cold
        // list) — the dominant cost of synthesis at scale. Instead, group
        // the batch by user once, make the accept/reject decisions per user
        // via a sort-merge against the existing page set, then assign
        // global indices in one linear pass over the original order.
        //
        // Decision equivalence: grouping by user partitions the problem;
        // within a user, sorting (page, batch position) makes duplicates
        // adjacent with the earliest position first, which is exactly the
        // occurrence the positional loop would have accepted. Global record
        // order is decided by the final positional pass, so it is
        // byte-identical.
        let (b_users, b_pages, b_times) = (&batch.users, &batch.pages, &batch.times);
        // lint:allow(panic-reachable-from-serve): `OsnWorld::check_event` refuses a journaled batch with ragged columns, and the world's filtered copy is pushed row by row
        assert_eq!(b_users.len(), b_pages.len(), "ragged like columns");
        // lint:allow(panic-reachable-from-serve): as above
        assert_eq!(b_users.len(), b_times.len(), "ragged like columns");
        let n = b_users.len();
        if n == 0 {
            return 0;
        }
        let n_users = self.n_users;
        if n < n_users / 8 {
            // Batches far smaller than the account table (the event loop's
            // like runs, single likes) pay for the dense kernel's O(accounts)
            // counting arrays and full shard walk; route them through the
            // sparse twin, whose work scales with the batch.
            return self.ingest_columns_sparse(&batch);
        }
        likelab_obs::span!("ledger.ingest.dense");
        let mut counts = vec![0u32; n_users + 1];
        for &user in b_users {
            // lint:allow(panic-reachable-from-serve): ids accepted by `OsnWorld::check_event`, below the n_users the world sized the ledger to
            counts[user.idx() + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1]; // lint:allow(panic-reachable-from-serve): 1 <= i < counts.len()
        }
        // Stable scatter: positions of each user's items, in batch order.
        // Only the 4-byte user column streams through this pass.
        let mut by_user_pos = vec![0u32; n];
        let mut cursor = counts.clone();
        for (i, &user) in b_users.iter().enumerate() {
            // lint:allow(panic-reachable-from-serve): user < n_users, as above
            let c = &mut cursor[user.idx()];
            // lint:allow(panic-reachable-from-serve): arrays the kernel sized: a user's cursor stays below its end offset, at most n
            by_user_pos[*c as usize] = i as u32;
            *c += 1;
        }
        drop(cursor);
        // Runs of consecutive user shards holding about equal shares of the
        // batch: each shard's page sets and posting lists are disjoint
        // state, so the runs go out as independent jobs.
        let n_shards = self.user_shards.len();
        // Batch rows before each shard.
        let shard_rows: Vec<u32> = (0..n_shards)
            // lint:allow(panic-reachable-from-serve): s < n_shards, so its first account is below n_users, and counts holds n_users + 1 running totals
            .map(|s| counts[s * SHARD_USERS])
            .collect();
        let n_jobs = exec.job_count();
        let bound = |r: usize| match r {
            r if r == n_jobs => n_shards,
            r => shard_rows.partition_point(|&c| c as usize * n_jobs < n * r),
        };
        let spans = || (0..n_jobs).map(|r| bound(r)..bound(r + 1));
        // lint:allow(panic-reachable-from-serve): u < n_users; counts holds n_users + 1 running totals up to n
        let user_rows = |u: usize| &by_user_pos[counts[u] as usize..counts[u + 1] as usize];
        let shard_users = |s: usize| s * SHARD_USERS..((s + 1) * SHARD_USERS).min(n_users);
        // Each position belongs to one user, so exactly one job may set its
        // flag.
        let accept: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let jobs = spans().zip(split_spans(&mut self.user_shards, spans().map(|r| r.len())));
        let mut stats = ArenaStats::default();
        for job in parallel_owned(exec, jobs, |_, (span, shards)| {
            // Per-user dedup against history + within the batch.
            let mut cand: Vec<(u32, u32)> = Vec::new();
            let mut merged: Vec<u32> = Vec::new();
            let mut stats = ArenaStats::default();
            for (s, shard) in span.zip(shards.iter_mut()) {
                let users = shard_users(s);
                let first = users.start;
                // Size the page-set buffer once for every set the batch
                // may grow.
                let sized = users.clone().map(|u| (u, user_rows(u).len()));
                shard
                    .pages
                    .reserve(page_set_room(&shard.pages, first, sized));
                for u in users {
                    let rows = user_rows(u);
                    if rows.is_empty() {
                        continue;
                    }
                    cand.clear();
                    // lint:allow(panic-reachable-from-serve): by_user_pos holds batch positions, below n
                    cand.extend(rows.iter().map(|&pos| (b_pages[pos as usize].0, pos)));
                    cand.sort_unstable();
                    // lint:allow(panic-reachable-from-serve): accept has a flag per batch position
                    let mark = |pos: u32| accept[pos as usize].store(true, Ordering::Relaxed);
                    absorb_sorted(&mut shard.pages, u - first, &cand, mark, &mut merged);
                }
                stats += shard.pages.take_stats();
            }
            stats
        }) {
            stats += job;
        }
        // lint:allow(panic-reachable-from-serve): accept has a flag per batch position
        let accepted_at = |pos: usize| accept[pos].load(Ordering::Relaxed);
        // Positional pass: append accepted records to the columns in batch
        // order. When nothing was rejected — the overwhelming synthesis
        // case, since draws dedup pages per user up front — each column is
        // one memcpy (or, into an empty ledger, a move of the batch's own
        // columns) and every global index is just `start + position`.
        let start = self.users.len() as u32;
        let all_accepted = (0..n).all(accepted_at);
        let mut global_idx: Vec<u32> = Vec::new();
        let accepted = if all_accepted {
            match batch {
                Cow::Owned(cols) if self.users.is_empty() => {
                    self.users = cols.users;
                    self.pages = cols.pages;
                    self.times = cols.times;
                }
                batch => {
                    reserve_rows(&mut self.users, &mut self.pages, &mut self.times, n);
                    self.users.extend_from_slice(&batch.users);
                    self.pages.extend_from_slice(&batch.pages);
                    self.times.extend_from_slice(&batch.times);
                }
            }
            n
        } else {
            global_idx = vec![u32::MAX; n];
            let mut next = start;
            reserve_rows(&mut self.users, &mut self.pages, &mut self.times, n);
            for (i, ((user, page, at), idx)) in batch.rows().zip(&mut global_idx).enumerate() {
                if !accepted_at(i) {
                    continue;
                }
                self.users.push(user);
                self.pages.push(page);
                self.times.push(at);
                *idx = next;
                next += 1;
            }
            (next - start) as usize
        };
        // Turn each user's batch positions into the global indices of
        // their accepted likes, in place: batch order within a user means
        // they come out strictly increasing. A rejected like leaves its
        // user's run, so the runs close up and `counts` follows them.
        if all_accepted {
            by_user_pos.iter_mut().for_each(|pos| *pos += start);
        } else {
            let mut kept = 0u32;
            for u in 0..n_users {
                // lint:allow(panic-reachable-from-serve): u < n_users; counts holds n_users + 1 running totals up to n
                let (lo, hi) = (counts[u] as usize, counts[u + 1] as usize);
                counts[u] = kept; // lint:allow(panic-reachable-from-serve): u < n_users, as above
                for i in lo..hi {
                    // lint:allow(panic-reachable-from-serve): i < n, and by_user_pos holds batch positions, below n, which global_idx has an entry for
                    let g = global_idx[by_user_pos[i] as usize];
                    if g != u32::MAX {
                        by_user_pos[kept as usize] = g; // lint:allow(panic-reachable-from-serve): kept <= i < n
                        kept += 1;
                    }
                }
            }
            counts[n_users] = kept; // lint:allow(panic-reachable-from-serve): counts holds n_users + 1 entries
        }
        // lint:allow(panic-reachable-from-serve): u < n_users; counts holds n_users + 1 running totals up to n
        let user_values = |u: usize| &by_user_pos[counts[u] as usize..counts[u + 1] as usize];
        // Per-user posting extends, by the same shard runs. Each shard's
        // buffers are sized once for all its lists.
        let jobs = spans().zip(split_spans(&mut self.user_shards, spans().map(|r| r.len())));
        for job in parallel_owned(exec, jobs, |_, (span, shards)| {
            let mut stats = ArenaStats::default();
            for (s, shard) in span.zip(shards.iter_mut()) {
                let users = shard_users(s);
                let first = users.start;
                let lists = users.map(|u| (u - first, user_values(u)));
                shard
                    .postings
                    .extend_each(lists.filter(|(_, values)| !values.is_empty()));
                stats += shard.postings.take_stats();
            }
            stats
        }) {
            stats += job;
        }
        drop(by_user_pos);
        drop(global_idx);
        drop(accept);
        // Group the appended records per shard with one flat counting sort
        // over the fresh page-column tail (stable, so each shard's pairs
        // keep global order) — no per-shard Vec growth.
        let n_page_shards = self.page_shards.len();
        let mut shard_counts = vec![0u32; n_page_shards + 1];
        let new_pages = &self.pages[start as usize..]; // lint:allow(panic-reachable-from-serve): start was the column length
        for &page in new_pages {
            // lint:allow(panic-reachable-from-serve): ids accepted by `OsnWorld::check_event`: page < n_pages, so its shard < n_page_shards
            shard_counts[page.idx() / SHARD_PAGES + 1] += 1;
        }
        for i in 1..shard_counts.len() {
            shard_counts[i] += shard_counts[i - 1]; // lint:allow(panic-reachable-from-serve): 1 <= i < len
        }
        let mut flat_pairs: Vec<(u32, u32)> = vec![(0, 0); accepted];
        let mut cursor = shard_counts.clone();
        for (k, &page) in new_pages.iter().enumerate() {
            // lint:allow(panic-reachable-from-serve): shard < n_page_shards, as above
            let c = &mut cursor[page.idx() / SHARD_PAGES];
            // lint:allow(panic-reachable-from-serve): arrays the kernel sized: a shard's cursor stays below its end offset, at most `accepted`
            flat_pairs[*c as usize] = ((page.idx() % SHARD_PAGES) as u32, start + k as u32);
            *c += 1;
        }
        drop(cursor);
        // Parallel per-shard grouping: counting-sort each shard's (local
        // page, index) pairs into a flat value array plus per-page offsets
        // (stable, so each page's slice keeps global order), then extend
        // the shard's own posting lists from it.
        let jobs = self.page_shards.iter_mut().enumerate().map(|(s, shard)| {
            // lint:allow(panic-reachable-from-serve): s < n_page_shards; shard_counts holds n_page_shards + 1 running totals up to `accepted`
            let pairs = &flat_pairs[shard_counts[s] as usize..shard_counts[s + 1] as usize];
            (shard, pairs)
        });
        for job in parallel_owned(exec, jobs, |_, (shard, pairs)| {
            let width = shard.list_count();
            let mut counts = vec![0u32; width + 1];
            for &(local, _) in pairs {
                // lint:allow(panic-reachable-from-serve): page < n_pages, so its local index is below the shard's width
                counts[local as usize + 1] += 1;
            }
            for i in 1..counts.len() {
                counts[i] += counts[i - 1]; // lint:allow(panic-reachable-from-serve): 1 <= i < counts.len()
            }
            let mut flat = vec![0u32; pairs.len()];
            let mut cursor = counts.clone();
            for &(local, idx) in pairs {
                // lint:allow(panic-reachable-from-serve): arrays the kernel sized: local < width, its cursor below its end offset
                flat[cursor[local as usize] as usize] = idx;
                cursor[local as usize] += 1; // lint:allow(panic-reachable-from-serve): local < width
            }
            let lists = (0..width).filter_map(|local| {
                // lint:allow(panic-reachable-from-serve): local < width; counts holds width + 1 running totals up to flat.len()
                let (lo, hi) = (counts[local] as usize, counts[local + 1] as usize);
                // lint:allow(panic-reachable-from-serve): lo < hi <= flat.len()
                (lo < hi).then(|| (local, &flat[lo..hi]))
            });
            shard.extend_each(lists);
            shard.take_stats()
        }) {
            stats += job;
        }
        self.stats += stats;
        report(stats);
        accepted
    }

    /// Sparse twin of the dense columnar kernel, for batches far smaller
    /// than the user table: identical accept decisions, global order, and
    /// posting-list bytes, but every pass touches only the users, pages,
    /// and shards the batch mentions — no O(accounts) arrays, no walk over
    /// every posting list. Fully sequential (the dense kernel's parallel
    /// shard stage would be pure overhead at this size), and its working
    /// arrays are the ledger's [`SparseScratch`]. Like the dense kernel, it
    /// sizes each shard buffer it touches once for the batch.
    fn ingest_columns_sparse(&mut self, batch: &LikeColumns) -> usize {
        likelab_obs::span!("ledger.ingest.sparse");
        let SparseScratch {
            triples,
            accept,
            global_idx,
            by_page,
            cand,
            merged,
            values,
            lists,
        } = &mut self.sparse;
        let n = batch.len();
        let mut stats = ArenaStats::default();
        // (user, page, pos): user groups come out adjacent, and within a
        // user the (page, pos) order is exactly the candidate ordering
        // `absorb_sorted` expects.
        let positions = batch.users.iter().zip(&batch.pages).zip(0..);
        triples.clear();
        triples.extend(positions.map(|((user, page), pos)| (user.0, page.0, pos)));
        triples.sort_unstable();
        let shard_of = |&(user, ..): &(u32, u32, u32)| user as usize / SHARD_USERS;
        let shard_runs = || triples.chunk_by(|a, b| shard_of(a) == shard_of(b));
        let user_runs = |group| <[_]>::chunk_by(group, |a: &(u32, u32, u32), b| a.0 == b.0);
        accept.clear();
        accept.resize(n, false);
        for group in shard_runs() {
            let Some(first) = group.first() else { continue };
            // lint:allow(panic-reachable-from-serve): ids accepted by `OsnWorld::check_event`, below the account count the world sized the ledger to
            let sets = &mut self.user_shards[shard_of(first)].pages;
            let base = shard_of(first) * SHARD_USERS;
            let sized =
                user_runs(group).filter_map(|run| Some((run.first()?.0 as usize, run.len())));
            sets.reserve(page_set_room(sets, base, sized));
            for run in user_runs(group) {
                let &[(user, ..), ..] = run else { continue };
                cand.clear();
                cand.extend(run.iter().map(|&(_, page, pos)| (page, pos)));
                absorb_sorted(
                    sets,
                    user as usize - base,
                    cand,
                    |pos| accept[pos as usize] = true, // lint:allow(panic-reachable-from-serve): pos < n
                    merged,
                );
            }
            stats += sets.take_stats();
        }
        // Positional pass: append accepted records in batch order.
        let start = self.users.len() as u32;
        reserve_rows(&mut self.users, &mut self.pages, &mut self.times, n);
        global_idx.clear();
        global_idx.resize(n, u32::MAX);
        let mut next = start;
        for (((user, page, at), &accepted), idx) in batch.rows().zip(&*accept).zip(&mut *global_idx)
        {
            if accepted {
                self.users.push(user);
                self.pages.push(page);
                self.times.push(at);
                *idx = next;
                next += 1;
            }
        }
        let accepted = (next - start) as usize;
        // Per-user posting extends over the same runs, one shard at a time.
        // The gathered indices arrive page-sorted, so re-sort each user's
        // into the strictly increasing (= batch position) order the posting
        // list needs.
        for group in shard_runs() {
            let Some(first) = group.first() else { continue };
            let base = shard_of(first) * SHARD_USERS;
            values.clear();
            lists.clear();
            for run in user_runs(group) {
                let &[(user, ..), ..] = run else { continue };
                let lo = values.len();
                values.extend(run.iter().filter_map(|&(_, _, pos)| {
                    let g = global_idx[pos as usize]; // lint:allow(panic-reachable-from-serve): pos < n
                    (g != u32::MAX).then_some(g)
                }));
                if values.len() > lo {
                    // lint:allow(panic-reachable-from-serve): lo <= values.len()
                    values[lo..].sort_unstable();
                    lists.push((user - base as u32, lo as u32, values.len() as u32));
                }
            }
            // lint:allow(panic-reachable-from-serve): user < the account count, as above
            let postings = &mut self.user_shards[shard_of(first)].postings;
            postings.extend_each(list_values(lists, values));
            stats += postings.take_stats();
        }
        // Per-page posting extends: sorting (page, index) pairs makes page
        // runs adjacent with indices ascending (the sort's tie-break *is*
        // global order), so each run extends its list directly — only the
        // pages and shards actually present in the batch are touched.
        by_page.clear();
        // lint:allow(panic-reachable-from-serve): start..next are the records this call appended
        by_page.extend((start..next).map(|g| (self.pages[g as usize].0, g)));
        by_page.sort_unstable();
        values.clear();
        values.extend(by_page.iter().map(|&(_, g)| g));
        let page_shard = |&(page, _): &(u32, u32)| page as usize / SHARD_PAGES;
        let mut at = 0u32;
        for group in by_page.chunk_by(|a, b| page_shard(a) == page_shard(b)) {
            let Some(first) = group.first() else { continue };
            lists.clear();
            for run in group.chunk_by(|a, b| a.0 == b.0) {
                let &[(page, _), ..] = run else { continue };
                let end = at + run.len() as u32;
                lists.push((page % SHARD_PAGES as u32, at, end));
                at = end;
            }
            // lint:allow(panic-reachable-from-serve): ids accepted by `OsnWorld::check_event`: page < n_pages, and the world sized the shards to it
            let postings = &mut self.page_shards[page_shard(first)];
            postings.extend_each(list_values(lists, values));
            stats += postings.take_stats();
        }
        self.stats += stats;
        report(stats);
        accepted
    }

    /// Make room for likes still to come, `users[i]` liking `pages[i]`, so
    /// that ingesting them, in batches of any size, moves no list and
    /// grows no buffer. The columns get exactly room for every like. Each
    /// shard buffer that holds a list the likes name makes one
    /// [`ListArena::relayout`]: a page set gets room for one page per like,
    /// a posting tail for its likes up to a block, and a packed section for
    /// the blocks its likes complete, at the most bytes a block of record
    /// indices below the ledger's length plus the likes can take. Likes that
    /// come to be rejected leave their room unused. Accounts and pages past
    /// the ledger's are skipped: no ingest accepts them.
    pub fn reserve(&mut self, users: &[UserId], pages: &[PageId]) {
        let n = users.len();
        self.users.reserve_exact(n);
        self.pages.reserve_exact(n);
        self.times.reserve_exact(n);
        // The largest record index any of the likes can take.
        let max = u32::try_from((self.users.len() + n).saturating_sub(1)).unwrap_or(u32::MAX);
        let mut per_user = vec![0u32; self.n_users];
        for &user in users {
            if let Some(k) = per_user.get_mut(user.idx()) {
                *k += 1;
            }
        }
        let mut stats = ArenaStats::default();
        for (shard, likes) in self
            .user_shards
            .iter_mut()
            .zip(per_user.chunks(SHARD_USERS))
        {
            if likes.iter().all(|&k| k == 0) {
                continue;
            }
            let extra = |list: usize| likes.get(list).map_or(0, |&k| k as usize);
            shard.pages.relayout(|list, len| len + extra(list));
            shard.postings.relayout(extra, max);
            stats += shard.pages.take_stats();
            stats += shard.postings.take_stats();
        }
        drop(per_user);
        let mut per_page = vec![0u32; self.n_pages];
        for &page in pages {
            if let Some(k) = per_page.get_mut(page.idx()) {
                *k += 1;
            }
        }
        for (shard, likes) in self
            .page_shards
            .iter_mut()
            .zip(per_page.chunks(SHARD_PAGES))
        {
            if likes.iter().all(|&k| k == 0) {
                continue;
            }
            shard.relayout(|list| likes.get(list).map_or(0, |&k| k as usize), max);
            stats += shard.take_stats();
        }
        self.stats += stats;
        report(stats);
    }

    /// What the index buffers did to make room — list moves, buffer
    /// squeezes and growths — summed over every ingest and reservation
    /// since the ledger was made: the totals of the `ledger.list.moves`,
    /// `ledger.buffer.compactions` and `ledger.buffer.growths` counters.
    pub fn buffer_stats(&self) -> ArenaStats {
        self.stats
    }

    /// Total number of likes ever recorded.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when no like was recorded.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The shard of `user` and its list there, for an account the ledger
    /// holds.
    fn user_shard(&self, user: UserId) -> Option<(&UserShard, usize)> {
        let u = user.idx();
        let shard = self
            .user_shards
            .get(u / SHARD_USERS)
            .filter(|_| u < self.n_users)?;
        Some((shard, u % SHARD_USERS))
    }

    /// The shard of `user` and its list there.
    ///
    /// # Panics
    /// Panics past the accounts the ledger holds.
    fn held_user(&self, user: UserId) -> (&UserShard, usize) {
        let u = user.idx();
        // lint:allow(panic-reachable-from-serve): documented panic; serve checks user < account_count, and the world sizes the ledger on every account insert
        assert!(
            u < self.n_users,
            "{user:?} is past the ledger's {} accounts",
            self.n_users
        );
        // lint:allow(panic-reachable-from-serve): u < n_users, and the shards cover n_users accounts
        (&self.user_shards[u / SHARD_USERS], u % SHARD_USERS)
    }

    /// The posting list of `user`.
    ///
    /// # Panics
    /// Panics past the accounts the ledger holds.
    fn user_list(&self, user: UserId) -> Postings<'_> {
        let (shard, list) = self.held_user(user);
        shard.postings.get(list)
    }

    /// The posting list of `page`.
    ///
    /// # Panics
    /// Panics past the pages the ledger holds.
    fn page_list(&self, page: PageId) -> Postings<'_> {
        // lint:allow(panic-reachable-from-serve): serve checks page < page_count, and the world sizes the ledger on every page insert
        self.page_shards[page.idx() / SHARD_PAGES].get(page.idx() % SHARD_PAGES)
    }

    /// True when `user` likes `page` (membership query).
    pub fn likes_page(&self, user: UserId, page: PageId) -> bool {
        self.user_shard(user)
            .is_some_and(|(shard, list)| shard.pages.get(list).binary_search(&page.0).is_ok())
    }

    /// The pages `user` likes, in ascending page-id order (allocation-free).
    ///
    /// # Panics
    /// Panics past the accounts the ledger holds.
    pub fn user_pages(&self, user: UserId) -> impl Iterator<Item = PageId> + '_ {
        let (shard, list) = self.held_user(user);
        shard.pages.get(list).iter().map(|&p| PageId(p))
    }

    /// Number of page-range index shards.
    pub fn shard_count(&self) -> usize {
        self.page_shards.len()
    }

    /// The page ids covered by shard `s` (a `s * SHARD_PAGES ..` range
    /// clamped to the page count). Aggregations that batch per shard walk
    /// `0..shard_count()` and process each range independently.
    pub fn shard_pages(&self, s: usize) -> std::ops::Range<u32> {
        let lo = (s * SHARD_PAGES).min(self.n_pages) as u32;
        let hi = ((s + 1) * SHARD_PAGES).min(self.n_pages) as u32;
        lo..hi
    }

    /// Assemble the record at a global index.
    fn record_at(&self, idx: u32) -> LikeRecord {
        let i = idx as usize;
        // lint:allow(panic-reachable-from-serve): record indices come from 0..len() or this ledger's postings, and the columns have equal lengths
        let (user, page, at) = (self.users[i], self.pages[i], self.times[i]);
        LikeRecord { user, page, at }
    }

    /// Like records of a page, in arrival order.
    pub fn of_page(&self, page: PageId) -> impl Iterator<Item = LikeRecord> + '_ {
        self.page_list(page).iter().map(move |i| self.record_at(i))
    }

    /// Like records of a page, sorted by time (stable on arrival order).
    pub fn of_page_sorted(&self, page: PageId) -> Vec<LikeRecord> {
        let mut v: Vec<LikeRecord> = self.of_page(page).collect();
        v.sort_by_key(|r| r.at);
        v
    }

    /// Like records of a user, sorted by time (stable on arrival order).
    pub fn of_user_sorted(&self, user: UserId) -> Vec<LikeRecord> {
        let mut v: Vec<LikeRecord> = self.of_user(user).collect();
        v.sort_by_key(|r| r.at);
        v
    }

    /// Like records of a user, in recording order.
    pub fn of_user(&self, user: UserId) -> impl Iterator<Item = LikeRecord> + '_ {
        self.user_list(user).iter().map(move |i| self.record_at(i))
    }

    /// Like timestamps of a user, in recording order (reads only the time
    /// column — the anti-fraud sweep's burstiness feature walks this for
    /// every account without assembling records).
    pub fn user_times(&self, user: UserId) -> impl Iterator<Item = SimTime> + '_ {
        self.user_list(user)
            .iter()
            .map(move |i| self.times[i as usize])
    }

    /// Like timestamps of a page, in arrival order (time column only).
    pub fn page_times(&self, page: PageId) -> impl Iterator<Item = SimTime> + '_ {
        self.page_list(page)
            .iter()
            .map(move |i| self.times[i as usize])
    }

    /// The users liking a page, in arrival order (user column only — the
    /// poll snapshot and the audience report need no other field).
    pub fn page_users(&self, page: PageId) -> impl Iterator<Item = UserId> + '_ {
        self.page_list(page)
            .iter()
            .map(move |i| self.users[i as usize])
    }

    /// `(user, timestamp)` pairs of a page's likes, in arrival order (two
    /// column reads, no record assembly).
    pub fn page_user_times(&self, page: PageId) -> impl Iterator<Item = (UserId, SimTime)> + '_ {
        self.page_list(page)
            .iter()
            .map(move |i| (self.users[i as usize], self.times[i as usize]))
    }

    /// Accounts the ledger is sized for.
    pub(crate) fn user_count(&self) -> usize {
        self.n_users
    }

    /// Pages the ledger is sized for.
    pub(crate) fn page_count(&self) -> usize {
        self.n_pages
    }

    /// A user's posting list (`None` past the accounts the ledger holds).
    pub(crate) fn user_postings(&self, user: UserId) -> Option<Postings<'_>> {
        self.user_shard(user)
            .map(|(shard, list)| shard.postings.get(list))
    }

    /// A page's posting list (`None` past the pages the ledger holds).
    pub(crate) fn page_postings(&self, page: PageId) -> Option<Postings<'_>> {
        (page.idx() < self.n_pages).then(|| self.page_list(page))
    }

    /// The time column, in global record order: the times the posting
    /// lists' indices name.
    pub(crate) fn time_column(&self) -> &[SimTime] {
        &self.times
    }

    /// How many pages `user` likes.
    pub fn user_like_count(&self, user: UserId) -> usize {
        let (shard, list) = self.held_user(user);
        shard.postings.list_len(list)
    }

    /// How many users like `page`.
    pub fn page_like_count(&self, page: PageId) -> usize {
        // lint:allow(panic-reachable-from-serve): as in `page_list`
        self.page_shards[page.idx() / SHARD_PAGES].list_len(page.idx() % SHARD_PAGES)
    }

    /// All records, in global chronological (= insertion) order.
    pub fn records(&self) -> impl Iterator<Item = LikeRecord> + '_ {
        (0..self.users.len() as u32).map(move |i| self.record_at(i))
    }

    /// The records from global index `start` on, in insertion order — the
    /// tail appended since a caller's last look (a replayed like batch's
    /// accepted likes).
    pub fn records_from(&self, start: u32) -> impl Iterator<Item = LikeRecord> + '_ {
        (start..self.users.len() as u32).map(move |i| self.record_at(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }
    fn p(i: u32) -> PageId {
        PageId(i)
    }
    fn t(d: u64) -> SimTime {
        SimTime::at_day(d)
    }

    /// Ingest `rows` as one batch; returns how many were new.
    fn ingest(l: &mut LikeLedger, rows: &[(UserId, PageId, SimTime)]) -> usize {
        ingest_with(l, rows, Exec::Sequential)
    }

    /// [`ingest`] under `exec`.
    fn ingest_with(l: &mut LikeLedger, rows: &[(UserId, PageId, SimTime)], exec: Exec) -> usize {
        l.ingest_columns(&LikeColumns::from_rows(rows), exec)
    }

    #[test]
    fn ingest_and_query_both_sides() {
        let mut l = LikeLedger::new(3, 2);
        let rows = [(u(0), p(1), t(1)), (u(2), p(1), t(2)), (u(0), p(0), t(3))];
        assert_eq!(ingest(&mut l, &rows), 3);
        assert_eq!(l.len(), 3);
        let page1: Vec<UserId> = l.of_page(p(1)).map(|r| r.user).collect();
        assert_eq!(page1, vec![u(0), u(2)]);
        let user0: Vec<PageId> = l.of_user(u(0)).map(|r| r.page).collect();
        assert_eq!(user0, vec![p(1), p(0)]);
        assert_eq!(l.user_like_count(u(0)), 2);
        assert_eq!(l.page_like_count(p(1)), 2);
        assert!(l.likes_page(u(2), p(1)));
        assert!(!l.likes_page(u(1), p(1)));
        assert_eq!(l.user_pages(u(0)).collect::<Vec<_>>(), vec![p(0), p(1)]);
    }

    #[test]
    fn duplicates_ignored_first_occurrence_wins() {
        let mut l = LikeLedger::new(1, 1);
        assert_eq!(ingest(&mut l, &[(u(0), p(0), t(0)), (u(0), p(0), t(5))]), 1);
        assert_eq!(ingest(&mut l, &[(u(0), p(0), t(7))]), 0, "dup of history");
        assert_eq!(l.len(), 1);
        assert_eq!(
            l.of_page(p(0)).map(|r| r.at).collect::<Vec<_>>(),
            vec![t(0)]
        );
    }

    #[test]
    fn chronological_page_stream() {
        let mut l = LikeLedger::new(10, 1);
        let rows: Vec<_> = (0..10).map(|i| (u(i), p(0), t(u64::from(i)))).collect();
        ingest(&mut l, &rows);
        let times: Vec<u64> = l.of_page(p(0)).map(|r| r.at.day()).collect();
        assert_eq!(times, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_accessors_handle_backfill() {
        let mut l = LikeLedger::new(3, 2);
        ingest(
            &mut l,
            &[
                (u(0), p(0), t(9)),
                (u(0), p(1), t(2)), // backfilled history
                (u(1), p(0), t(1)), // backfilled on same page
            ],
        );
        let page0: Vec<u64> = l.of_page_sorted(p(0)).iter().map(|r| r.at.day()).collect();
        assert_eq!(page0, vec![1, 9]);
        let user0: Vec<u64> = l.of_user_sorted(u(0)).iter().map(|r| r.at.day()).collect();
        assert_eq!(user0, vec![2, 9]);
        let raw: Vec<u64> = l.user_times(u(0)).map(|t| t.day()).collect();
        assert_eq!(raw, vec![9, 2], "user_times is recording order");
    }

    #[test]
    fn growth_preserves_history() {
        let mut l = LikeLedger::new(1, 1);
        ingest(&mut l, &[(u(0), p(0), t(0))]);
        l.ensure_users(5);
        l.ensure_pages(5);
        ingest(&mut l, &[(u(4), p(4), t(1))]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.user_like_count(u(0)), 1);
        assert_eq!(l.user_like_count(u(4)), 1);
    }

    #[test]
    fn empty_ledger() {
        let l = LikeLedger::new(2, 2);
        assert!(l.is_empty());
        assert_eq!(l.of_page(p(0)).count(), 0);
        assert_eq!(l.user_like_count(u(1)), 0);
    }

    #[test]
    fn growth_spans_multiple_shards() {
        let n = SHARD_PAGES * 2 + 10;
        let mut l = LikeLedger::new(3, 1);
        l.ensure_pages(n);
        assert_eq!(l.shard_count(), 3);
        assert_eq!(l.shard_pages(0), 0..SHARD_PAGES as u32);
        assert_eq!(l.shard_pages(2), (2 * SHARD_PAGES) as u32..n as u32);
        let far = p(n as u32 - 1);
        assert_eq!(ingest(&mut l, &[(u(2), far, t(4))]), 1);
        assert_eq!(l.page_like_count(far), 1);
        assert_eq!(l.of_page(far).next().unwrap().user, u(2));
    }

    type Answers = (
        Vec<LikeRecord>,
        Vec<(Vec<LikeRecord>, Vec<PageId>, Vec<SimTime>, usize)>,
        Vec<(Vec<LikeRecord>, Vec<SimTime>, usize)>,
        Vec<bool>,
    );

    /// Every query's answer over all `users` × `pages`.
    fn answers(l: &LikeLedger, users: u32, pages: u32) -> Answers {
        let per_user = (0..users)
            .map(|i| {
                let user = u(i);
                (
                    l.of_user(user).collect(),
                    l.user_pages(user).collect(),
                    l.user_times(user).collect(),
                    l.user_like_count(user),
                )
            })
            .collect();
        let per_page = (0..pages)
            .map(|i| {
                let page = p(i);
                (
                    l.of_page(page).collect(),
                    l.page_times(page).collect(),
                    l.page_like_count(page),
                )
            })
            .collect();
        let membership = (0..users)
            .flat_map(|i| (0..pages).map(move |j| l.likes_page(u(i), p(j))))
            .collect();
        (l.records().collect(), per_user, per_page, membership)
    }

    #[test]
    fn an_adopted_batch_answers_like_a_copied_one() {
        // 200 distinct (user, page) pairs: 13 and 29 are coprime.
        let rows: Vec<_> = (0..200u32)
            .map(|i| (u(i % 13), p(i * 7 % 29), t(u64::from(i % 17))))
            .collect();
        let batch = LikeColumns::from_rows(&rows);
        let mut copied = LikeLedger::new(13, 29);
        assert_eq!(copied.ingest_columns(&batch, Exec::Sequential), 200);
        let mut adopted = LikeLedger::new(13, 29);
        let column = batch.users.as_ptr();
        assert_eq!(
            adopted.ingest_columns_owned(Cow::Owned(batch), Exec::workers(3)),
            200
        );
        assert_eq!(
            adopted.users.as_ptr(),
            column,
            "the empty ledger took the batch's column over"
        );
        assert_eq!(answers(&adopted, 13, 29), answers(&copied, 13, 29));
        // Both keep answering alike as later batches append to them.
        let more = [
            (u(3), p(28), t(40)),
            (u(12), p(0), t(41)),
            (u(3), p(28), t(42)),
        ];
        assert_eq!(ingest(&mut adopted, &more), ingest(&mut copied, &more));
        assert_eq!(answers(&adopted, 13, 29), answers(&copied, 13, 29));
    }

    #[test]
    fn a_batch_with_a_rejected_row_is_copied_not_adopted() {
        let rows = [
            (u(0), p(1), t(1)),
            (u(1), p(1), t(2)),
            (u(0), p(1), t(3)), // a duplicate: rejected
            (u(1), p(0), t(4)),
        ];
        let batch = LikeColumns::from_rows(&rows);
        let mut copied = LikeLedger::new(2, 2);
        assert_eq!(copied.ingest_columns(&batch, Exec::Sequential), 3);
        let mut owned = LikeLedger::new(2, 2);
        let column = batch.users.as_ptr();
        assert_eq!(
            owned.ingest_columns_owned(Cow::Owned(batch), Exec::Sequential),
            3
        );
        assert_ne!(owned.users.as_ptr(), column);
        assert_eq!(owned.users, [u(0), u(1), u(1)]);
        assert_eq!(answers(&owned, 2, 2), answers(&copied, 2, 2));
    }

    #[test]
    fn a_dense_batch_into_an_empty_ledger_reserves_each_buffer_once() {
        // 1,000 accounts in four user shards, 9,000 pages in three page
        // shards. Account i likes i % 150 distinct pages: first the even
        // pages 0, 128, .., which hundreds of accounts share, then odd
        // ones. Lists of every size, up to past two packed blocks, fill
        // every kind of buffer.
        let (users, pages) = (1_000u32, 9_000u32);
        let page = |i: u32, k: u32| match k {
            0..70 => k * 128,
            _ => 2 * ((i * 37 + k * 61) % 4_000) + 1,
        };
        let rows: Vec<_> = (0..users)
            .flat_map(|i| (0..i % 150).map(move |k| (u(i), p(page(i, k)), t(u64::from(k)))))
            .collect();
        for exec in [Exec::Sequential, Exec::workers(2)] {
            let mut l = LikeLedger::new(users as usize, pages as usize);
            assert_eq!(ingest_with(&mut l, &rows, exec), rows.len());
            let mut sizes: Vec<(usize, usize)> = Vec::new();
            for shard in &l.user_shards {
                sizes.extend(shard.postings.buffer_sizes());
                sizes.push((shard.pages.buffer_len(), shard.pages.buffer_capacity()));
            }
            for shard in &l.page_shards {
                sizes.extend(shard.buffer_sizes());
            }
            assert_eq!(sizes.len(), 4 * 3 + 3 * 2);
            for (len, capacity) in sizes {
                assert!(len > 0);
                assert_eq!(capacity, len, "one exact reservation per buffer");
            }
        }
        // A paper world's 3,468 accounts fill a 2-worker pool's jobs.
        assert!(3_468usize.div_ceil(SHARD_USERS) >= Exec::workers(2).job_count());
    }

    #[test]
    fn small_batches_after_a_dense_one_keep_each_column_within_an_eighth() {
        // 4,000 accounts like one of 50 pages each: one dense batch, whose
        // columns the empty ledger takes over at their exact size. Then
        // 300 batches of three new likes each take the sparse kernel.
        let rows: Vec<_> = (0..4_000u32).map(|i| (u(i), p(i % 50), t(0))).collect();
        let mut l = LikeLedger::new(4_000, 50);
        let batch = Cow::Owned(LikeColumns::from_rows(&rows));
        assert_eq!(l.ingest_columns_owned(batch, Exec::Sequential), 4_000);
        assert_eq!(l.users.capacity(), 4_000);
        for k in 0..300u32 {
            let more: Vec<_> = (3 * k..3 * k + 3)
                .map(|i| (u(i), p((i + 1) % 50), t(1)))
                .collect();
            assert_eq!(ingest(&mut l, &more), 3);
            let len = l.len();
            for capacity in [l.users.capacity(), l.pages.capacity(), l.times.capacity()] {
                assert!(
                    capacity - len <= len / 8,
                    "{capacity} rows of room for {len} after batch {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the ledger's 10 accounts")]
    fn a_like_count_past_the_accounts_panics_inside_the_last_shard() {
        LikeLedger::new(10, 5).user_like_count(u(10));
    }

    #[test]
    #[should_panic(expected = "past the ledger's 10 accounts")]
    fn a_page_set_past_the_accounts_panics_inside_the_last_shard() {
        let _ = LikeLedger::new(10, 5).user_pages(u(11));
    }

    #[test]
    fn heavy_user_membership_survives_batch_merges() {
        // A scrambled page order like the time-sorted synthesis batch
        // produces, split into batches so each one merges against history.
        let n = 500u32;
        let mut l = LikeLedger::new(1, n as usize);
        let rows: Vec<_> = (0..n)
            .map(|i| (u(0), p((i * 193) % n), t(u64::from(i)))) // permutation of 0..n
            .collect();
        for chunk in rows.chunks(37) {
            assert_eq!(ingest(&mut l, chunk), chunk.len());
        }
        assert_eq!(l.user_like_count(u(0)), n as usize);
        assert!((0..n).all(|page| l.likes_page(u(0), p(page))));
        assert_eq!(ingest(&mut l, &rows), 0, "every like is a dup now");
        let pages: Vec<u32> = l.user_pages(u(0)).map(|p| p.0).collect();
        assert_eq!(pages, (0..n).collect::<Vec<_>>(), "sorted and complete");
    }
}
