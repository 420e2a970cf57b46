//! Codec and differential tier for the packed like-ledger storage.
//!
//! The bit-packed delta-encoded posting lists ([`likelab::osn::posting`]) are
//! an internal storage format: nothing observable may change versus a plain
//! `Vec<u32>` index. This tier locks that down from two directions:
//!
//! 1. **Codec round-trip** — property tests drive [`PostingList`] with
//!    arbitrary strictly-increasing sequences (wide gaps, block-boundary
//!    lengths, duplicates collapsed by the reference) and require the decoded
//!    stream to equal the reference vector element-for-element, a bulk
//!    extend to hold no more heap than per-value pushes, and a saved
//!    iterator position to resume where it stood however the list grew.
//! 2. **Ledger differential** — a naive reference ledger built on `Vec` and
//!    linear scans (the positional first-wins model) answers every public
//!    [`LikeLedger`] query on a generated world; the packed ledger, fed
//!    through `ingest_columns`, must agree exactly, including iteration
//!    order, across shard boundaries, for both ingest kernels, for any
//!    batch size down to one like, for batch sequences that make the
//!    sparse kernel reuse its working arrays, and for a ledger that
//!    reserved room for the likes it is then fed.

use std::collections::BTreeSet;

use likelab::graph::{PageId, UserId};
use likelab::osn::posting::{PostingList, BLOCK};
use likelab::osn::{LikeColumns, LikeLedger, LikeRecord};
use likelab::sim::{Exec, SimTime};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// 1. Posting-list codec round-trip vs a Vec<u32> reference
// ---------------------------------------------------------------------------

/// Turn an arbitrary vector of (start, gap) pairs into a strictly increasing
/// sequence; gaps of zero exercise dense runs, large gaps exercise the
/// escape/wide encodings around block boundaries.
fn increasing_from_gaps(gaps: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(gaps.len());
    let mut next: u64 = 0;
    for g in gaps {
        next += *g as u64;
        if next > u32::MAX as u64 {
            break;
        }
        out.push(next as u32);
        next += 1; // strictly increasing: next candidate is at least +1
    }
    out
}

proptest! {
    /// Round-trip: any strictly increasing sequence decodes back exactly,
    /// whether pushed one at a time or appended in bulk. Gaps are wide
    /// enough that sequences can climb all the way to `u32::MAX` (the
    /// generator truncates there), so the top of the id domain — which the
    /// codec must now represent exactly — is inside the search space.
    #[test]
    fn posting_roundtrips_any_increasing_sequence(
        gaps in prop::collection::vec(0u32..67_000_000, 0..400),
    ) {
        let reference = increasing_from_gaps(&gaps);

        let mut pushed = PostingList::new();
        for &v in &reference {
            pushed.push(v);
        }
        let mut bulk = PostingList::new();
        bulk.extend_from_increasing(&reference);

        prop_assert_eq!(pushed.len(), reference.len());
        prop_assert_eq!(bulk.len(), reference.len());
        prop_assert_eq!(pushed.last(), reference.last().copied());
        let decoded_pushed: Vec<u32> = pushed.iter().collect();
        let decoded_bulk: Vec<u32> = bulk.iter().collect();
        prop_assert_eq!(&decoded_pushed, &reference);
        prop_assert_eq!(&decoded_bulk, &reference);
    }

    /// Splitting a bulk append at an arbitrary point — including mid-block —
    /// produces the same encoded stream as a single append.
    #[test]
    fn posting_split_appends_equal_single_append(
        gaps in prop::collection::vec(0u32..100_000, 1..300),
        split_frac in 0.0f64..1.0,
    ) {
        let reference = increasing_from_gaps(&gaps);
        let split = ((reference.len() as f64) * split_frac) as usize;

        let mut whole = PostingList::new();
        whole.extend_from_increasing(&reference);

        let mut parts = PostingList::new();
        parts.extend_from_increasing(&reference[..split]);
        parts.extend_from_increasing(&reference[split..]);

        let a: Vec<u32> = whole.iter().collect();
        let b: Vec<u32> = parts.iter().collect();
        prop_assert_eq!(a, b);
    }

    /// One bulk extend into a fresh list holds no more heap than the same
    /// values pushed one at a time (the two encode the same bytes): the
    /// bulk extend's first slots hold exactly its blocks' bytes and its
    /// tail, while pushes grow the tail through 1, 4, 8, … 64 values and
    /// the packed section to powers of two. Gaps mix dense runs with wide
    /// jumps, so lists span several blocks of different widths.
    #[test]
    fn posting_bulk_extend_holds_no_more_than_pushes(
        draws in prop::collection::vec((any::<bool>(), 0u32..1_000_000), 0..400),
    ) {
        let gaps: Vec<u32> = draws.iter().map(|&(dense, g)| if dense { g % 3 } else { g }).collect();
        let reference = increasing_from_gaps(&gaps);
        let mut pushed = PostingList::new();
        for &v in &reference {
            pushed.push(v);
        }
        let mut bulk = PostingList::new();
        bulk.extend_from_increasing(&reference);
        prop_assert_eq!(&bulk, &pushed);
        prop_assert!(
            bulk.heap_bytes() <= pushed.heap_bytes(),
            "bulk {} > pushed {} bytes for {} values",
            bulk.heap_bytes(),
            pushed.heap_bytes(),
            reference.len()
        );
    }
}

proptest! {
    /// A position saved at any index `k` of a list (inside a packed block,
    /// at a block boundary, in the raw tail or at the end) resumes at
    /// `iter().skip(k)` after the list grows across block boundaries,
    /// by pushes or by a bulk append.
    #[test]
    fn posting_positions_resume_after_growth(
        gaps in prop::collection::vec(0u32..100_000, 0..400),
        split_frac in 0.0f64..1.0,
        k_frac in 0.0f64..1.0,
        bulk in any::<bool>(),
    ) {
        let reference = increasing_from_gaps(&gaps);
        let split = ((reference.len() as f64) * split_frac) as usize;
        let k = (((split + 1) as f64) * k_frac) as usize;
        let mut list = PostingList::new();
        list.extend_from_increasing(&reference[..split]);
        let mut it = list.iter();
        for _ in 0..k {
            it.next();
        }
        let pos = it.position();
        prop_assert_eq!(pos.index(), k);
        if bulk {
            list.extend_from_increasing(&reference[split..]);
        } else {
            for &v in &reference[split..] {
                list.push(v);
            }
        }
        let resumed: Vec<u32> = list.iter_from(pos).collect();
        let skipped: Vec<u32> = list.iter().skip(k).collect();
        prop_assert_eq!(&resumed, &skipped);
        prop_assert_eq!(list.iter_from(pos).len(), reference.len() - k);
    }
}

/// Every position of lists ending just before, at and after block
/// boundaries resumes at `iter().skip(k)` once 200 more values are pushed,
/// and a position taken from a resumed iterator resumes as well.
#[test]
fn posting_positions_resume_at_every_index() {
    for saved_len in [0u32, 1, 63, 64, 65, 127, 128, 130] {
        let values: Vec<u32> = (0..saved_len + 200).map(|i| i * 5 + i % 3).collect();
        for k in 0..=saved_len as usize {
            let mut list = PostingList::new();
            list.extend_from_increasing(&values[..saved_len as usize]);
            let mut it = list.iter();
            for _ in 0..k {
                it.next();
            }
            let pos = it.position();
            for &v in &values[saved_len as usize..] {
                list.push(v);
            }
            let skipped: Vec<u32> = list.iter().skip(k).collect();
            assert_eq!(list.iter_from(pos).collect::<Vec<u32>>(), skipped, "k={k}");
            let mut resumed = list.iter_from(pos);
            for _ in 0..70 {
                resumed.next();
            }
            let again = resumed.position();
            let rest: Vec<u32> = skipped.iter().skip(70).copied().collect();
            assert_eq!(
                list.iter_from(again).collect::<Vec<u32>>(),
                rest,
                "k={k}+70"
            );
        }
    }
}

/// Deterministic block-boundary sweep: lengths straddling multiples of the
/// packing block, with both dense (+1) and sparse (+large) gap patterns.
#[test]
fn posting_handles_block_boundary_lengths() {
    for len in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 7] {
        for gap in [1u32, 2, 63, 1 << 16, (1 << 27) / (len.max(1) as u32 + 1)] {
            let reference: Vec<u32> = (0..len as u32).map(|i| i * gap.max(1)).collect();
            let mut list = PostingList::new();
            list.extend_from_increasing(&reference);
            let decoded: Vec<u32> = list.iter().collect();
            assert_eq!(decoded, reference, "len={len} gap={gap}");
        }
    }
}

// ---------------------------------------------------------------------------
// 2. LikeLedger differential vs a naive Vec reference model
// ---------------------------------------------------------------------------

/// Reference ledger: a flat append log with the same accept/reject rule
/// (first like per (user, page) wins) answered by linear scans.
#[derive(Default)]
struct RefLedger {
    log: Vec<(u32, u32, u64)>,
}

impl RefLedger {
    fn record(&mut self, u: u32, p: u32, t: u64) -> bool {
        if self.log.iter().any(|&(lu, lp, _)| lu == u && lp == p) {
            return false;
        }
        self.log.push((u, p, t));
        true
    }

    fn of_page(&self, p: u32) -> Vec<(u32, u32, u64)> {
        self.log
            .iter()
            .copied()
            .filter(|&(_, lp, _)| lp == p)
            .collect()
    }

    fn of_user(&self, u: u32) -> Vec<(u32, u32, u64)> {
        self.log
            .iter()
            .copied()
            .filter(|&(lu, _, _)| lu == u)
            .collect()
    }

    fn user_pages(&self, u: u32) -> BTreeSet<u32> {
        self.of_user(u).iter().map(|&(_, p, _)| p).collect()
    }
}

fn as_tuple(r: LikeRecord) -> (u32, u32, u64) {
    (r.user.0, r.page.0, r.at.as_secs())
}

/// Pages worth interrogating: every page in the log plus absent pages near
/// shard edges, so empty posting lists are checked too.
fn pages_of_interest(reference: &RefLedger) -> BTreeSet<u32> {
    let mut pages: BTreeSet<u32> = reference.log.iter().map(|&(_, p, _)| p).collect();
    pages.extend([0, 39, 4080, 4119, 4096, 5000, 8150, 8199]);
    pages
}

/// Run every public query against both ledgers and demand exact agreement,
/// including iteration order of the streaming accessors, for the accounts
/// below `n_users`.
fn assert_ledgers_agree(
    ledger: &LikeLedger,
    reference: &RefLedger,
    n_users: u32,
) -> Result<(), String> {
    assert_ledgers_agree_on(ledger, reference, 0..n_users)
}

/// [`assert_ledgers_agree`] for the accounts `users`.
fn assert_ledgers_agree_on(
    ledger: &LikeLedger,
    reference: &RefLedger,
    users: impl Iterator<Item = u32> + Clone,
) -> Result<(), String> {
    prop_assert_eq!(ledger.len(), reference.log.len());
    let all: Vec<_> = ledger.records().map(as_tuple).collect();
    prop_assert_eq!(&all, &reference.log);
    let pages = pages_of_interest(reference);

    for u in users.clone() {
        let user = UserId(u);
        let of_user: Vec<_> = ledger.of_user(user).map(as_tuple).collect();
        prop_assert_eq!(&of_user, &reference.of_user(u));
        prop_assert_eq!(ledger.user_like_count(user), of_user.len());
        let pages: BTreeSet<u32> = ledger.user_pages(user).map(|p| p.0).collect();
        prop_assert_eq!(&pages, &reference.user_pages(u));
        let times: Vec<u64> = ledger.user_times(user).map(|t| t.as_secs()).collect();
        let ref_times: Vec<u64> = reference.of_user(u).iter().map(|&(_, _, t)| t).collect();
        prop_assert_eq!(times, ref_times);
        let mut sorted = reference.of_user(u);
        sorted.sort_by_key(|&(_, _, t)| t); // stable, same as of_user_sorted
        let of_user_sorted: Vec<_> = ledger
            .of_user_sorted(user)
            .into_iter()
            .map(as_tuple)
            .collect();
        prop_assert_eq!(&of_user_sorted, &sorted);
    }

    for &p in &pages {
        let page = PageId(p);
        let of_page: Vec<_> = ledger.of_page(page).map(as_tuple).collect();
        prop_assert_eq!(&of_page, &reference.of_page(p));
        prop_assert_eq!(ledger.page_like_count(page), of_page.len());
        let times: Vec<u64> = ledger.page_times(page).map(|t| t.as_secs()).collect();
        let ref_times: Vec<u64> = reference.of_page(p).iter().map(|&(_, _, t)| t).collect();
        prop_assert_eq!(times, ref_times);
        let mut sorted = reference.of_page(p);
        sorted.sort_by_key(|&(_, _, t)| t); // stable, same as of_page_sorted
        let of_page_sorted: Vec<_> = ledger
            .of_page_sorted(page)
            .into_iter()
            .map(as_tuple)
            .collect();
        prop_assert_eq!(&of_page_sorted, &sorted);
    }

    for u in users {
        let held = reference.user_pages(u);
        for &p in &pages {
            prop_assert_eq!(
                ledger.likes_page(UserId(u), PageId(p)),
                held.contains(&p),
                "likes_page({}, {})",
                u,
                p
            );
        }
    }
    Ok(())
}

/// Spread raw draws in `0..120` across three page bands, two of which sit on
/// either side of the 4096-page shard boundary and near the top of the space.
fn band_page(raw: u32) -> u32 {
    match raw / 40 {
        0 => raw,
        1 => 4080 + (raw - 40),
        _ => 8150 + (raw - 80),
    }
}

proptest! {
    /// Differential: the packed ledger fed through `ingest_columns` answers
    /// every query exactly as the reference does. The draws arrive in
    /// batches of `1 << batch_log2` likes: size 1 is the positional
    /// one-at-a-time case, larger batches dedup inside themselves and
    /// against already-packed state. `sparse` flips the account count so
    /// the same draws route through either the dense counting-sort kernel
    /// (24 accounts: every batch of three or more likes is "large") or the
    /// sparse sorted-triples kernel (4096 accounts: every batch stays under
    /// the `n_users / 8` threshold). Pages span the 4096-page shard boundary
    /// so cross-shard posting lists are exercised. Three batches that name
    /// one page per user close the run.
    #[test]
    fn ledger_ingest_columns_matches_vec_reference(
        likes in prop::collection::vec((0u32..24, 0u32..120, 0u64..50_000), 0..250),
        batch_log2 in 0u32..9,
        workers in 1usize..5,
        sparse in any::<bool>(),
    ) {
        let n_users = if sparse { 4096 } else { 24 };
        let mut ledger = LikeLedger::new(n_users, 8200);
        let mut reference = RefLedger::default();
        for chunk in likes.chunks(1 << batch_log2) {
            let mut cols = LikeColumns::with_capacity(chunk.len());
            for &(u, raw, t) in chunk {
                cols.push(UserId(u), PageId(band_page(raw)), SimTime::from_secs(t));
            }
            let accepted = ledger.ingest_columns(&cols, Exec::workers(workers));
            let want: usize = chunk
                .iter()
                .map(|&(u, raw, t)| reference.record(u, band_page(raw), t) as usize)
                .sum();
            prop_assert_eq!(accepted, want, "accept/reject diverged in {:?}", chunk);
        }
        // Batches that name one page per user, the page-set merge's
        // in-place path: a page the user already holds (rejected), a page
        // below every page they hold, and one above every page they hold,
        // named twice so the repeat is rejected inside the batch.
        type Pick = fn(&BTreeSet<u32>) -> Vec<u32>;
        let picks: [Pick; 3] = [
            |held| held.last().copied().into_iter().collect(),
            |held| held.first().map_or(Some(4090), |p| p.checked_sub(1)).into_iter().collect(),
            |held| vec![held.last().map_or(0, |p| p + 1); 2],
        ];
        for (k, pick) in picks.into_iter().enumerate() {
            let at = 60_000 + k as u64;
            let mut cols = LikeColumns::with_capacity(48);
            let mut want = 0;
            for u in 0..24 {
                for p in pick(&reference.user_pages(u)) {
                    cols.push(UserId(u), PageId(p), SimTime::from_secs(at));
                    want += reference.record(u, p, at) as usize;
                }
            }
            let accepted = ledger.ingest_columns(&cols, Exec::workers(workers));
            prop_assert_eq!(accepted, want, "one-page batch {} diverged", k);
        }
        prop_assert!(ledger.shard_count() >= 3, "world must span shards");
        // Draws never name a user past 23, so checking that range covers
        // every populated row in both ledgers.
        assert_ledgers_agree(&ledger, &reference, 24)?;
    }
}

proptest! {
    /// The sparse kernel keeps its working arrays from one batch to the
    /// next. One ledger of 64 accounts (a batch under 8 likes takes the
    /// sparse kernel) gets a sparse batch of 7; a shorter sparse batch of 3
    /// that opens with a repeat of the first batch's first like, which that
    /// batch accepted at the same position; a dense batch of 24; and a
    /// sparse batch of 5 that opens with a repeat of history and names one
    /// like twice. An accept flag or global index left over from an earlier
    /// batch would show as a wrong decision or a wrong posting entry.
    #[test]
    fn ledger_scratch_reuse_matches_vec_reference(
        likes in prop::collection::vec((0u32..6, 0u32..120, 0u64..50_000), 36),
        workers in 1usize..4,
    ) {
        let (a, rest) = likes.split_at(7);
        let (b, rest) = rest.split_at(2);
        let (c, d) = rest.split_at(24);
        let batches = [
            a.to_vec(),
            [&a[..1], b].concat(),
            c.to_vec(),
            [&c[..1], &d[..1], d].concat(),
        ];
        let mut ledger = LikeLedger::new(64, 8200);
        let mut reference = RefLedger::default();
        for (k, batch) in batches.iter().enumerate() {
            let mut cols = LikeColumns::with_capacity(batch.len());
            for &(u, raw, t) in batch {
                cols.push(UserId(u), PageId(band_page(raw)), SimTime::from_secs(t));
            }
            let accepted = ledger.ingest_columns(&cols, Exec::workers(workers));
            let want: usize = batch
                .iter()
                .map(|&(u, raw, t)| reference.record(u, band_page(raw), t) as usize)
                .sum();
            prop_assert_eq!(accepted, want, "batch {} of {} likes diverged", k, batch.len());
        }
        assert_ledgers_agree(&ledger, &reference, 64)?;
    }
}

/// Accounts spread over three 256-account user shards.
fn spread_user(raw: u32) -> u32 {
    raw * 6 + raw % 5
}

/// Twelve pages on either side of the 4096- and 8192-page shard
/// boundaries, so they fall in three page shards.
fn edge_page(raw: u32) -> u32 {
    match raw {
        0..=5 => 4093 + raw,
        _ => 8183 + raw,
    }
}

proptest! {
    /// Lists that outgrow their slots, in several user and page shards. A
    /// dense batch gives 96 accounts, across three user shards, and twelve
    /// pages, across three page shards, their first slots, sized exactly;
    /// a trickle of one- to three-like batches (the sparse kernel, under
    /// 600 / 8 likes) then grows the same lists one like at a time, so
    /// they move to the ends of their shard buffers, leave holes and make
    /// the buffers squeeze and grow; a second dense batch extends them
    /// again, past 64 likes a page for typical draws, so packed sections
    /// move too. At 1 and 2 workers the ledger answers as the reference
    /// does.
    #[test]
    fn ledger_lists_that_outgrow_their_slots_match_vec_reference(
        dense_a in prop::collection::vec((0u32..96, 0u32..12, 0u64..50_000), 400..600),
        trickle in prop::collection::vec(
            prop::collection::vec((0u32..96, 0u32..12, 50_000u64..60_000), 1..4),
            100..200,
        ),
        dense_b in prop::collection::vec((0u32..96, 0u32..12, 60_000u64..70_000), 400..600),
    ) {
        let batches: Vec<&Vec<(u32, u32, u64)>> = std::iter::once(&dense_a)
            .chain(&trickle)
            .chain(std::iter::once(&dense_b))
            .collect();
        for workers in [1, 2] {
            let mut ledger = LikeLedger::new(600, 8200);
            let mut reference = RefLedger::default();
            for (k, batch) in batches.iter().enumerate() {
                let mut cols = LikeColumns::with_capacity(batch.len());
                for &(u, raw, t) in batch.iter() {
                    cols.push(UserId(spread_user(u)), PageId(edge_page(raw)), SimTime::from_secs(t));
                }
                let accepted = ledger.ingest_columns(&cols, Exec::workers(workers));
                let want: usize = batch
                    .iter()
                    .map(|&(u, raw, t)| reference.record(spread_user(u), edge_page(raw), t) as usize)
                    .sum();
                prop_assert_eq!(accepted, want, "batch {} at {} workers diverged", k, workers);
            }
            assert_ledgers_agree_on(&ledger, &reference, (0..96).map(spread_user))?;
        }
    }
}

proptest! {
    /// A ledger that reserved room for a batch of likes, then is fed that
    /// batch in runs, as a study's event loop reserves its plan and then
    /// fires it. A dense batch of history first gives lists in three user
    /// and three page shards their slots; the plan repeats likes of the
    /// history and of itself (rejected), and accounts terminated between
    /// runs lose their later likes, as the world's filter drops them before
    /// the ledger sees them, so some reserved room is never used. Runs of
    /// up to 119 likes take the sparse kernel under 75 likes and the dense
    /// one from there. At 1 and 2 workers, the reserved ledger and an
    /// unreserved one fed the same runs both answer as the reference
    /// does, and while the runs go in the reserved one moves no list and
    /// squeezes or grows no buffer.
    #[test]
    fn a_reserved_ledger_takes_its_runs_in_place(
        history in prop::collection::vec((0u32..96, 0u32..12, 0u64..50_000), 100..300),
        plan in prop::collection::vec((0u32..96, 0u32..12, 50_000u64..60_000), 100..700),
        run_len in 1usize..120,
        terminated in prop::collection::vec(0u32..96, 0..6),
    ) {
        let row = |&(u, raw, t): &(u32, u32, u64)| {
            (UserId(spread_user(u)), PageId(edge_page(raw)), SimTime::from_secs(t))
        };
        let users: Vec<UserId> = plan.iter().map(|like| row(like).0).collect();
        let pages: Vec<PageId> = plan.iter().map(|like| row(like).1).collect();
        for workers in [1, 2] {
            let exec = Exec::workers(workers);
            let mut reserved = LikeLedger::new(600, 8200);
            let mut unreserved = LikeLedger::new(600, 8200);
            let mut reference = RefLedger::default();
            let first = LikeColumns::from_rows(&history.iter().map(row).collect::<Vec<_>>());
            reserved.ingest_columns(&first, exec);
            unreserved.ingest_columns(&first, exec);
            for like in &history {
                let (u, p, t) = row(like);
                reference.record(u.0, p.0, t.as_secs());
            }
            reserved.reserve(&users, &pages);
            let before = reserved.buffer_stats();
            let mut gone = BTreeSet::new();
            for (k, run) in plan.chunks(run_len).enumerate() {
                if let Some(&u) = terminated.get(k) {
                    gone.insert(spread_user(u));
                }
                let kept: Vec<_> = run.iter().map(row).filter(|(u, ..)| !gone.contains(&u.0)).collect();
                let cols = LikeColumns::from_rows(&kept);
                let want: usize = kept
                    .iter()
                    .map(|&(u, p, t)| reference.record(u.0, p.0, t.as_secs()) as usize)
                    .sum();
                prop_assert_eq!(reserved.ingest_columns(&cols, exec), want, "run {}", k);
                prop_assert_eq!(unreserved.ingest_columns(&cols, exec), want, "run {}", k);
            }
            prop_assert_eq!(
                reserved.buffer_stats(),
                before,
                "the runs made room at {} workers",
                workers
            );
            assert_ledgers_agree_on(&reserved, &reference, (0..96).map(spread_user))?;
            assert_ledgers_agree_on(&unreserved, &reference, (0..96).map(spread_user))?;
        }
    }
}
