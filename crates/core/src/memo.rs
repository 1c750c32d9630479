//! Tabling for derived checkers, justified by monotonicity (§5).
//!
//! The paper's validation theorems make a derived checker *monotone in
//! fuel*: once `check` decides `Some b` at some fuel, every larger fuel
//! returns the same `Some b`. The executor threads two fuels — `size`
//! (the structurally decreasing recursion fuel) and `top_size` (handed
//! to external calls as both parameters) — and the decision is monotone
//! in each: more `size` admits more rules and deeper recursion, more
//! `top_size` grows every externally enumerated domain (with honest
//! out-of-fuel markers) and every external sub-verdict, and `cnot` maps
//! a decided verdict to a decided verdict. A verdict decided at
//! `(size, top)` therefore holds at every `(size', top')` with
//! `size' ≥ size` and `top' ≥ top`, which is exactly the hit rule
//! [`SharedMemo::lookup`] applies. Because relations are frozen at
//! [`build`](crate::LibraryBuilder::build) time, entries never need
//! invalidating — and because the verdict is a fact about the
//! relation, not about the session that computed it, one table can be
//! shared by every session over the same frozen core: a reader can
//! never observe a stale answer, only a missing one.
//!
//! # One table
//!
//! [`SharedMemo`] is the only verdict table. It is fingerprint-sharded,
//! with an `RwLock` per shard so concurrent readers never contend.
//! [`Library::with_memo`](crate::Library::with_memo) attaches a private
//! one-shard table of [`DEFAULT_CAPACITY`] entries; a
//! [`Server`](crate::Server) attaches one sharded table to all of its
//! sessions. A session has at most one table and consults it at one
//! place, the top-level derived-checker entry (`entry.rs`, reached by
//! `check`, the `try_*` calls and served requests): lookup, search,
//! guarded insert, once per call of a tabled tuple.
//!
//! Which tuples are tabled is decided from the plan's shape when the
//! checker compiles, not measured at run time: a tuple is tabled iff
//! its dispatch bucket (the handlers its constructor can match) holds
//! a handler with a call step — a checker, recursive or producer call,
//! or an unconstrained instantiation. Monotonicity makes any admission
//! policy sound; this one only decides what the table costs. Reading
//! nothing at run time, the table leaves unarmed searches on the VM's
//! fast loop.
//!
//! What is deliberately **not** cached (the write guards the entry
//! boundary applies before [`SharedMemo::insert`]):
//!
//! * `None` (out of fuel) — not monotone: a larger fuel may decide it.
//!   Caching it would freeze a transient state into an answer.
//! * Verdicts computed after an armed [`Meter`] was exhausted — a
//!   poisoned meter makes inner searches return early, so verdicts
//!   observed in that window can be fabricated. The `try_*` entry
//!   points mask them with an error; the table must not outlive them.
//!   (Exhaustion is sticky, so a write-time check suffices.)
//! * Tuples whose dispatch bucket makes no call (BST's `Leaf`) — one
//!   search entry of local steps decides them no slower than a lookup
//!   answers, so they are never fingerprinted, looked up or inserted.
//!   Each such call counts as a miss: [`MemoStats::misses`] is the
//!   top-level derived checks the table did not answer.
//! * Handwritten checkers — the monotonicity argument only covers
//!   derived plans, so only the derived-checker entry boundary consults
//!   the table.
//! * Recursive self-calls — recursion descends into strict subterms of
//!   a tuple that already missed, so per-level lookups would charge
//!   every recursion of a miss-heavy workload for reuse the entry-level
//!   hits already capture across a corpus.
//! * Premise calls — an external `CheckRel` premise charges its
//!   callee's entry step and searches without a fingerprint, lookup or
//!   insert, on the VM and in the interpreter alike. On the serving
//!   benchmark's traffic premise goals almost never recur (fresh keys),
//!   so tabling them only filled the table; a fixed-capacity shard now
//!   holds what callers repeat. Traffic whose distinct top-level inputs
//!   share premise goals gives up that reuse.
//!
//! # Who counts what
//!
//! Each top-level derived check of a session with a table is counted
//! once, by the session that made it, as a hit or a miss (a lookup that
//! fell through, or an untabled tuple): a session is single-threaded,
//! so its hit and miss counters are plain `Cell`s. These counts (behind
//! [`MemoStats`], a served request's span and the
//! `memo.hits`/`memo.misses` series) are the only record of a lookup;
//! the search probe records the search alone.
//! The table counts only what it alone sees — insertions, `None` and
//! full skips, entries, degraded shards — so [`SharedMemo::stats`]
//! leaves `hits` and `misses` at zero.
//! [`Library::memo_stats`](crate::Library::memo_stats) adds the
//! session's lookups to its table's counters, and
//! [`Server::stats`](crate::Server::stats) adds the lookups its
//! requests made.
//!
//! # Poison recovery
//!
//! A writer that panics inside a shard poisons only that shard's lock.
//! The next access marks the shard *degraded*, and from then on the
//! shard answers every lookup with a miss and swallows every insert:
//! callers transparently fall back to the unmemoized search, which is
//! sound for the same monotonicity reason (the table is an accelerator,
//! never an authority). [`MemoStats::degraded_shards`] surfaces how
//! much of the table has been retired.
//!
//! # Cost and bounds
//!
//! The hot path is allocation-free: a lookup reduces the argument tuple
//! to a 64-bit structural fingerprint with the session's
//! [`Interner::fingerprint`] (one map probe for an already-seen term,
//! whose root fingerprint is cached by `Arc` identity). Fingerprints are
//! structural, so every session computes the same one for the same
//! tuple, and they double as shard keys. An untabled tuple costs one
//! read of a flag per handler of its bucket, set when the checker
//! compiled, and no fingerprint. Argument tuples are copied (cheap
//! `Arc` clones) into a boxed slot only when a tabled tuple's first
//! decided verdict is admitted; a later one widens the slot in place.
//! Fingerprint collisions are harmless: every candidate slot is
//! confirmed structurally before it may answer.
//!
//! The memory bound is a fixed entry cap per shard: when a shard is
//! full it stops admitting — deterministically, with no eviction — and
//! keeps serving hits from what it has.
//!
//! [`Meter`]: indrel_producers::Meter

use indrel_term::{shard_of, FastHashBuilder, Interner, RelId, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Default bound on cached verdicts and interned nodes per session.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

// Every session of a server shares the table across worker threads, so
// it must be thread-safe by construction, not by accident.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedMemo>();
};

/// Fingerprint of a `(rel, args)` query, folding each argument's
/// structural fingerprint into the relation's. Fingerprints are
/// *structural* — independent of which session's interner computed
/// them — so every session over a core agrees on a query's shard.
#[inline]
pub(crate) fn query_fp(interner: &mut Interner, rel: RelId, args: &[Value]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64 ^ (rel.index() as u64);
    for a in args {
        h = (h.rotate_left(5) ^ interner.fingerprint(a)).wrapping_mul(0x517C_C1B7_2722_0A95);
    }
    h
}

/// `true` when the stored canonical tuple and a probe tuple denote the
/// same arguments. Scalars compare by value; constructor terms take the
/// `Arc`-identity fast path and fall back to the iterative structural
/// walk.
fn args_match(stored: &[Value], probe: &[Value]) -> bool {
    stored.len() == probe.len()
        && stored.iter().zip(probe).all(|(a, b)| match (a, b) {
            (Value::Nat(x), Value::Nat(y)) => x == y,
            (Value::Bool(x), Value::Bool(y)) => x == y,
            (Value::Ctor(_, x), Value::Ctor(_, y)) => Arc::ptr_eq(x, y) || a.structurally_equal(b),
            _ => false,
        })
}

/// One cached verdict: the relation, the canonical argument tuple that
/// confirms fingerprint matches, and the smallest fuels the verdict is
/// known at.
struct Slot {
    rel: RelId,
    args: Box<[Value]>,
    size: u64,
    top: u64,
    verdict: bool,
}

/// One shard: a bucket map behind its own `RwLock`, plus the degraded
/// flag poison recovery flips.
struct Shard {
    /// Fingerprint → slots sharing it (almost always exactly one).
    buckets: RwLock<HashMap<u64, Vec<Slot>, FastHashBuilder>>,
    /// Entries in this shard; written only under the shard's write
    /// lock, read lock-free by [`SharedMemo::stats`].
    entries: AtomicUsize,
    /// Set once, on the first access that observes the lock poisoned.
    /// A degraded shard answers misses and swallows inserts forever.
    degraded: AtomicBool,
}

impl Default for Shard {
    fn default() -> Shard {
        Shard {
            buckets: RwLock::new(HashMap::default()),
            entries: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
        }
    }
}

/// The verdict table. See the module docs for the monotonicity
/// argument, the write guards (the top-level entry,
/// `Library::run_checker_entry`, applies them before calling
/// [`SharedMemo::insert`]), and the degradation model.
pub struct SharedMemo {
    shards: Box<[Shard]>,
    shard_capacity: usize,
    insertions: AtomicU64,
    none_skipped: AtomicU64,
    full_skipped: AtomicU64,
    degraded_shards: AtomicU64,
    /// Shard indices degraded since the last drain, which name the
    /// retired shards in a serving session's automatic flight-recorder
    /// dump (the count alone is `degraded_shards`).
    degraded_events: Mutex<Vec<u32>>,
}

impl std::fmt::Debug for SharedMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedMemo")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("degraded", &self.degraded_count())
            .finish()
    }
}

impl SharedMemo {
    /// An empty table with `shards` shards (must be a power of two),
    /// each admitting at most `shard_capacity` verdicts. Once a shard
    /// is full it stops admitting — deterministically, no eviction —
    /// and keeps serving hits from what it has.
    pub fn new(shards: usize, shard_capacity: usize) -> SharedMemo {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        SharedMemo {
            shards: (0..shards).map(|_| Shard::default()).collect(),
            shard_capacity,
            insertions: AtomicU64::new(0),
            none_skipped: AtomicU64::new(0),
            full_skipped: AtomicU64::new(0),
            degraded_shards: AtomicU64::new(0),
            degraded_events: Mutex::new(Vec::new()),
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a fingerprint maps to — exposed so chaos harnesses can
    /// poison the shard a particular query lives in.
    pub fn shard_for(&self, fp: u64) -> usize {
        shard_of(fp, self.shards.len())
    }

    /// Shards retired by poison recovery so far.
    pub fn degraded_count(&self) -> u64 {
        self.degraded_shards.load(Ordering::Relaxed)
    }

    /// Retires a shard: flips its degraded flag (once) and queues its
    /// index for the next drain. Every later lookup in the shard is a miss and every
    /// insert a no-op, so the table degrades instead of propagating the
    /// panic that poisoned the lock.
    fn mark_degraded(&self, idx: usize) {
        if !self.shards[idx].degraded.swap(true, Ordering::Relaxed) {
            self.degraded_shards.fetch_add(1, Ordering::Relaxed);
            self.degraded_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(idx as u32);
        }
    }

    /// Shard indices degraded since the last call — a serving session
    /// drains this after each request, and a non-empty drain triggers
    /// an automatic flight-recorder dump whose reason names the shards
    /// (`shard_degraded:[i,…]`). That dump is all the queue feeds.
    ///
    /// A healthy table answers without the lock every worker shares:
    /// `mark_degraded` counts a shard before it queues its index, so a
    /// zero read racing a retirement only defers that index to a later
    /// drain (the queue itself is read under its lock).
    pub fn drain_degraded_events(&self) -> Vec<u32> {
        if self.degraded_count() == 0 {
            return Vec::new();
        }
        std::mem::take(
            &mut *self
                .degraded_events
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Looks up `(rel, args)` under its structural fingerprint for a
    /// query at fuels `(size, top)`. An entry answers iff it stores the
    /// same tuple (confirmed structurally) and was decided at fuels the
    /// query dominates (`size ≥ slot.size && top ≥ slot.top`). `None`
    /// is a miss — including every query routed to a degraded shard,
    /// which is the transparent fallback to the unmemoized search.
    ///
    /// The table does not count lookups; the calling session does (see
    /// the module docs).
    //
    // Out of line, like `insert`: inlined, both would grow the
    // derived-checker entry (`Library::run_checker_entry`) that every
    // unarmed top-level call runs.
    #[inline(never)]
    pub fn lookup(&self, rel: RelId, fp: u64, args: &[Value], size: u64, top: u64) -> Option<bool> {
        let idx = self.shard_for(fp);
        let shard = &self.shards[idx];
        if shard.degraded.load(Ordering::Relaxed) {
            return None;
        }
        let Ok(guard) = shard.buckets.read() else {
            // A writer panicked while holding this shard. Retire it and
            // fall back; the other shards keep serving.
            self.mark_degraded(idx);
            return None;
        };
        let slot = guard
            .get(&fp)?
            .iter()
            .find(|slot| slot.rel == rel && args_match(&slot.args, args))?;
        (size >= slot.size && top >= slot.top).then_some(slot.verdict)
    }

    /// Records a decided verdict observed at fuels `(size, top)`,
    /// widening an existing entry in place when the new fuels dominate
    /// it. The caller must apply the write guards of the module docs:
    /// never a `None`, never under an exhausted meter, never an
    /// untabled tuple.
    #[inline(never)]
    pub fn insert(&self, rel: RelId, fp: u64, args: &[Value], size: u64, top: u64, verdict: bool) {
        let idx = self.shard_for(fp);
        let shard = &self.shards[idx];
        if shard.degraded.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut guard) = shard.buckets.write() else {
            self.mark_degraded(idx);
            return;
        };
        if let Some(bucket) = guard.get_mut(&fp) {
            if let Some(slot) = bucket
                .iter_mut()
                .find(|slot| slot.rel == rel && args_match(&slot.args, args))
            {
                // Keep whichever fuels dominate (serve more queries).
                // Incomparable fuels keep the existing slot; both
                // verdicts are correct wherever they apply, per joint
                // monotonicity.
                if size <= slot.size && top <= slot.top {
                    slot.size = size;
                    slot.top = top;
                    slot.verdict = verdict;
                    self.insertions.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
        }
        if shard.entries.load(Ordering::Relaxed) < self.shard_capacity {
            // The only allocating path: one box of `Arc` clones, when a
            // verdict is actually admitted.
            guard.entry(fp).or_default().push(Slot {
                rel,
                args: args.into(),
                size,
                top,
                verdict,
            });
            shard.entries.fetch_add(1, Ordering::Relaxed);
            self.insertions.fetch_add(1, Ordering::Relaxed);
        } else {
            self.full_skipped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a `None` verdict refused at the write site — the
    /// monotonicity boundary in action.
    pub fn note_none_skipped(&self) {
        self.none_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the counters only the table sees. `hits` and
    /// `misses` stay zero (sessions count lookups), as do `shed` and
    /// `retries` (request telemetry); [`Library::memo_stats`] and
    /// [`Server::stats`] fill them in.
    ///
    /// [`Library::memo_stats`]: crate::Library::memo_stats
    /// [`Server::stats`]: crate::Server::stats
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            insertions: self.insertions.load(Ordering::Relaxed),
            none_skipped: self.none_skipped.load(Ordering::Relaxed),
            full_skipped: self.full_skipped.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.entries.load(Ordering::Relaxed))
                .sum(),
            degraded_shards: self.degraded_count(),
            ..MemoStats::default()
        }
    }

    /// Chaos hook: poisons `shard`'s lock exactly the way a panicking
    /// writer would — by panicking while holding the write guard
    /// (caught here, so the caller keeps running). The shard is retired
    /// lazily, on its next access. Tests and the chaos harness use this
    /// to prove degraded shards never produce wrong verdicts.
    pub fn poison_shard(&self, shard: usize) {
        let lock = &self.shards[shard].buckets;
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.write();
            panic!("injected shard poison");
        }));
    }
}

/// Counters exposed by [`Library::memo_stats`](crate::Library::memo_stats),
/// [`Server::stats`](crate::Server::stats) and [`SharedMemo::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the table. Counted by sessions: the
    /// session's own lookups in `Library::memo_stats`, the lookups its
    /// requests made in `Server::stats`, and zero in
    /// `SharedMemo::stats`.
    pub hits: u64,
    /// Top-level derived checks the table did not answer: lookups that
    /// fell through to the search, and calls on tuples the table never
    /// holds (a dispatch bucket with no call step, see the module
    /// docs), which search without a lookup. Counted like `hits`, so
    /// `hits + misses` is every top-level derived check of a session
    /// with a table.
    pub misses: u64,
    /// Decided verdicts written (first writes and dominance updates).
    pub insertions: u64,
    /// `None` verdicts that reached the write site and were refused —
    /// the monotonicity boundary in action.
    pub none_skipped: u64,
    /// Decided verdicts refused because the table was full.
    pub full_skipped: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Shards retired after a writer panic; queries routed to them fall
    /// back to the unmemoized search.
    pub degraded_shards: u64,
    /// Requests rejected by admission control
    /// ([`ExecError::Overloaded`](crate::ExecError::Overloaded)); zero
    /// outside [`Server::stats`](crate::Server::stats).
    pub shed: u64,
    /// Budget-exhausted requests retried with an escalated budget; zero
    /// outside [`Server::stats`](crate::Server::stats).
    pub retries: u64,
}

impl std::fmt::Display for MemoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses, {} insertions ({} entries; skipped {} none, {} full)",
            self.hits,
            self.misses,
            self.insertions,
            self.entries,
            self.none_skipped,
            self.full_skipped,
        )?;
        if self.degraded_shards > 0 || self.shed > 0 || self.retries > 0 {
            write!(
                f,
                "; serving: {} degraded shard(s), {} shed, {} retries",
                self.degraded_shards, self.shed, self.retries,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use indrel_term::CtorId;

    /// Keeps the injected `poison_shard` panics out of test output
    /// (other panics still print; `indrel_pbt` has the general version,
    /// but core cannot depend on it).
    pub(crate) fn silence_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|m| m.contains("injected shard poison"));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    fn rel() -> RelId {
        RelId::new(0)
    }

    fn tree(n: u64) -> Value {
        Value::ctor(CtorId::new(1), vec![Value::nat(n)])
    }

    #[test]
    fn miss_insert_hit_and_dominance() {
        let m = SharedMemo::new(8, 16);
        let args = [tree(3), Value::nat(7)];
        let fp = 0xDEAD_BEEF_u64;
        assert_eq!(m.lookup(rel(), fp, &args, 5, 5), None);
        m.insert(rel(), fp, &args, 5, 5, true);
        // Structurally equal but physically fresh args hit.
        let again = [tree(3), Value::nat(7)];
        assert_eq!(m.lookup(rel(), fp, &again, 5, 5), Some(true));
        assert_eq!(m.lookup(rel(), fp, &again, 9, 6), Some(true));
        // Dominated fuels do not answer: lower size, or lower top.
        assert_eq!(m.lookup(rel(), fp, &again, 4, 5), None);
        assert_eq!(m.lookup(rel(), fp, &again, 5, 4), None);
        // A dominating insert widens in place: one entry, two inserts.
        m.insert(rel(), fp, &args, 2, 2, true);
        assert_eq!(m.lookup(rel(), fp, &again, 2, 2), Some(true));
        let s = m.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.insertions, 2);
        // Sessions count lookups; the table does not.
        assert_eq!((s.hits, s.misses), (0, 0));
        // Colliding fingerprints are confirmed structurally.
        let other = [tree(4), Value::nat(7)];
        assert_eq!(m.lookup(rel(), fp, &other, 9, 9), None);
    }

    #[test]
    fn distinct_relations_do_not_collide() {
        let m = SharedMemo::new(1, 16);
        let args = [tree(2)];
        m.insert(RelId::new(0), 7, &args, 5, 5, true);
        assert_eq!(m.lookup(RelId::new(1), 7, &args, 5, 5), None);
        assert_eq!(m.lookup(RelId::new(0), 7, &args, 5, 5), Some(true));
    }

    #[test]
    fn colliding_fingerprints_are_confirmed_structurally() {
        let m = SharedMemo::new(1, 16);
        let (args, other) = ([tree(4)], [tree(5)]);
        // A structurally different tuple under the same fingerprint
        // must not answer for the original one.
        m.insert(rel(), 9, &other, 5, 5, false);
        assert_eq!(m.lookup(rel(), 9, &args, 5, 5), None);
        // A second slot for the original tuple shares the bucket.
        m.insert(rel(), 9, &args, 5, 5, true);
        assert_eq!(m.lookup(rel(), 9, &args, 5, 5), Some(true));
        assert_eq!(m.lookup(rel(), 9, &other, 5, 5), Some(false));
        assert_eq!(m.stats().entries, 2);
    }

    #[test]
    fn shard_capacity_stops_admitting() {
        let m = SharedMemo::new(1, 2);
        for n in 0..4 {
            m.insert(rel(), n, &[tree(n)], 5, 5, true);
        }
        let s = m.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.full_skipped, 2);
        // The admitted entries keep answering.
        assert_eq!(m.lookup(rel(), 0, &[tree(0)], 5, 5), Some(true));
    }

    #[test]
    fn poisoned_shard_degrades_and_the_rest_keep_serving() {
        silence_injected_panics();
        let m = SharedMemo::new(4, 16);
        // Two fingerprints in different shards.
        let (fp_a, mut fp_b) = (0u64, 1u64);
        while m.shard_for(fp_a) == m.shard_for(fp_b) {
            fp_b += 1;
        }
        m.insert(rel(), fp_a, &[tree(1)], 5, 5, true);
        m.insert(rel(), fp_b, &[tree(2)], 5, 5, false);
        m.poison_shard(m.shard_for(fp_a));
        // The poisoned shard answers misses (fallback), once marked.
        assert_eq!(m.lookup(rel(), fp_a, &[tree(1)], 5, 5), None);
        assert_eq!(m.degraded_count(), 1);
        // Inserts to it are swallowed; lookups stay misses.
        m.insert(rel(), fp_a, &[tree(9)], 5, 5, true);
        assert_eq!(m.lookup(rel(), fp_a, &[tree(9)], 5, 5), None);
        // The other shard is untouched.
        assert_eq!(m.lookup(rel(), fp_b, &[tree(2)], 5, 5), Some(false));
        assert_eq!(m.stats().degraded_shards, 1);
        assert_eq!(m.drain_degraded_events(), vec![m.shard_for(fp_a) as u32]);
        assert!(m.drain_degraded_events().is_empty(), "drain is one-shot");
    }

    #[test]
    fn stats_display_is_stable() {
        let s = MemoStats {
            hits: 2,
            misses: 1,
            insertions: 1,
            entries: 1,
            ..MemoStats::default()
        };
        let d = s.to_string();
        assert!(d.contains("2 hits / 1 misses, 1 insertions"), "{d}");
        assert!(!d.contains("serving:"), "zero serve counters stay silent");
        let served = MemoStats {
            degraded_shards: 2,
            shed: 3,
            retries: 4,
            ..s
        };
        assert!(served
            .to_string()
            .contains("2 degraded shard(s), 3 shed, 4 retries"));
    }
}
