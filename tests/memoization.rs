//! Properties of the monotonicity-justified memo table (tabling).
//!
//! The table caches decided verdicts only, so a memoized session must
//! be observationally identical to a fresh library on every input at
//! every fuel — including sessions that accumulate cached verdicts
//! across many queries at *different* fuels, which is exactly where an
//! unsound monotonicity argument would show up. `None` (out of fuel)
//! is not fuel-monotone and must never be cached.

use indrel::bst::BST_SOURCE;
use indrel::prelude::*;
use indrel::stlc::Stlc;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};
use std::cell::OnceCell;

// ---------------------------------------------------------------------
// Fixture: the fully derived BST pipeline (`bst` with derived ordering
// relations), a long-lived memoized session, and a tree generator.
// ---------------------------------------------------------------------

thread_local! {
    static BST_LIB: OnceCell<(Library, Library, RelId, CtorId, CtorId)> =
        const { OnceCell::new() };
}

/// `f(plain, memoized, bst, leaf, node)` — the memoized session is
/// shared across all proptest cases, so verdicts cached by one case
/// (at one fuel) are candidate answers for every later case.
fn with_bst<R>(f: impl FnOnce(&Library, &Library, RelId, CtorId, CtorId) -> R) -> R {
    BST_LIB.with(|cell| {
        let (plain, memoized, bst, leaf, node) = cell.get_or_init(|| {
            let mut u = Universe::new();
            let mut env = RelEnv::new();
            parse_program(&mut u, &mut env, BST_SOURCE).unwrap();
            let bst = env.rel_id("bst").unwrap();
            let leaf = u.ctor_id("Leaf").unwrap();
            let node = u.ctor_id("Node").unwrap();
            let mut b = LibraryBuilder::new(u, env);
            b.derive_checker(bst).unwrap();
            let plain = b.build();
            let memoized = plain.fork().with_memo();
            (plain, memoized, bst, leaf, node)
        });
        f(plain, memoized, *bst, *leaf, *node)
    })
}

/// An arbitrary tree over small keys — *not* bounds-respecting, so the
/// corpus mixes valid and invalid BSTs and both verdicts occur.
fn arbitrary_tree(leaf: CtorId, node: CtorId, depth: u64, rng: &mut SmallRng) -> Value {
    if depth == 0 || rng.gen_range(0..4u32) == 0 {
        return Value::ctor(leaf, vec![]);
    }
    Value::ctor(
        node,
        vec![
            Value::nat(rng.gen_range(0..16u64)),
            arbitrary_tree(leaf, node, depth - 1, rng),
            arbitrary_tree(leaf, node, depth - 1, rng),
        ],
    )
}

/// A seven-node search tree over `(lo, lo + 16)` with `lo` = 2³¹, in
/// the shape of the serving benchmark's cold requests: none of its
/// `lt'`/`le'` premise goals recurs in another tree.
fn wide_key_query(leaf: CtorId, node: CtorId) -> [Value; 3] {
    let lo = 1u64 << 31;
    let leaf = || Value::ctor(leaf, vec![]);
    let node = |x: u64, l: Value, r: Value| Value::ctor(node, vec![Value::nat(lo + x), l, r]);
    let pair = |x: u64| node(x, node(x - 2, leaf(), leaf()), node(x + 2, leaf(), leaf()));
    [
        Value::nat(lo),
        Value::nat(lo + 16),
        node(8, pair(4), pair(12)),
    ]
}

// Only a top-level call consults the table: premise crossings
// (`lt'` → `le'` under every node) search without a lookup.
#[test]
fn a_tabled_check_makes_one_lookup() {
    with_bst(|plain, _, bst, leaf, node| {
        let args = wide_key_query(leaf, node);
        let memoized = plain.fork().with_memo();
        assert_eq!(memoized.check(bst, 64, 64, &args), Some(true));
        let s = memoized.memo_stats();
        assert_eq!(s.hits + s.misses, 1, "{s:?}");
        assert!(s.entries <= 1, "{s:?}");
    });
}

// The interpreter's relation is untabled at every level, and its
// premises cross into their callees without a lookup too.
#[test]
fn an_interpreted_check_makes_no_lookup() {
    with_bst(|plain, _, bst, leaf, node| {
        let args = wide_key_query(leaf, node);
        let memoized = plain.fork().with_memo();
        assert_eq!(memoized.check_interpreted(bst, 64, 64, &args), Some(true));
        let s = memoized.memo_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0), "{s:?}");
    });
}

// Served: one lookup per request, however many premises it crosses.
#[test]
fn a_served_request_makes_one_lookup() {
    with_bst(|plain, _, bst, leaf, node| {
        let server = Server::new(plain.shared(), ServeConfig::default(), Budget::unlimited());
        let args = wide_key_query(leaf, node);
        let got = server
            .session()
            .check_batch(bst, 64, &[args.to_vec(), args.to_vec()]);
        assert_eq!(got, [Ok(Some(true)), Ok(Some(true))]);
        let snap = server.snapshot();
        let counter = |name| snap.counter(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(counter("memo.hits"), 1);
        assert_eq!(
            counter("memo.hits") + counter("memo.misses"),
            counter("serve.requests")
        );
    });
}

// What the table holds is decided by the plan's shape: a tuple is
// tabled iff its dispatch bucket holds a handler with a call step. `r
// 10` is tabled though its guard fails before the call to `q`; `r 0`
// matches only the premise-free `r_z`, so it is never looked up or
// inserted, and each of its calls counts as a miss.
#[test]
fn tabling_follows_the_dispatch_bucket() {
    let mut u = Universe::new();
    let mut env = RelEnv::new();
    parse_program(
        &mut u,
        &mut env,
        r"rel q : nat := | q0 : q 0 .
          rel r : nat :=
          | r_z : r 0
          | r_s : forall n, n = 3 -> q n -> r (S n)
          .",
    )
    .unwrap();
    let r = env.rel_id("r").unwrap();
    let mut b = LibraryBuilder::new(u, env);
    b.derive_checker(r).unwrap();
    let lib = b.build().with_memo();
    let verdicts: Vec<_> = [10, 10, 0, 0, 4, 4]
        .into_iter()
        .map(|n| lib.check(r, 8, 8, &[Value::nat(n)]))
        .collect();
    let (t, f) = (Some(true), Some(false));
    assert_eq!(verdicts, [f, f, t, t, f, f]);
    let s = lib.memo_stats();
    assert_eq!((s.hits, s.misses, s.insertions), (2, 4, 2), "{s:?}");
}

proptest! {
    // A session with tabling on decides exactly what a fresh library
    // decides, at every fuel — even though the session keeps verdicts
    // cached at other fuels from earlier cases. This is the user-facing
    // statement of joint fuel monotonicity.
    #[test]
    fn memoized_session_agrees_with_fresh_library(seed in 0u64..1u64 << 32) {
        with_bst(|plain, memoized, bst, leaf, node| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let t = arbitrary_tree(leaf, node, 4, &mut rng);
            // Vary which fuel a tree is first checked at, so hits occur
            // both above and at the fuel that populated the entry.
            let fuels: &[u64] = if seed % 2 == 0 { &[2, 5, 9, 64] } else { &[64, 9, 5, 2] };
            for &fuel in fuels {
                let args = [Value::nat(0), Value::nat(16), t.clone()];
                prop_assert_eq!(
                    memoized.check(bst, fuel, fuel, &args),
                    plain.check(bst, fuel, fuel, &args),
                    "fuel {} seed {}", fuel, seed
                );
            }
            Ok(())
        })?;
    }
}

#[test]
fn cross_fuel_hits_occur_and_stay_correct() {
    with_bst(|plain, _, bst, leaf, node| {
        let memoized = plain.fork().with_memo();
        let mut rng = SmallRng::seed_from_u64(41);
        let corpus: Vec<Value> = (0..120)
            .map(|_| arbitrary_tree(leaf, node, 4, &mut rng))
            .collect();
        // First sweep at a moderate fuel populates the table; the
        // second sweep at a strictly larger fuel may answer from it
        // (monotonicity: a verdict decided at fuel f holds at f' >= f).
        for t in &corpus {
            let args = [Value::nat(0), Value::nat(16), t.clone()];
            memoized.check(bst, 16, 16, &args);
        }
        let mut hits_before = memoized.memo_stats().hits;
        for t in &corpus {
            let args = [Value::nat(0), Value::nat(16), t.clone()];
            let got = memoized.check(bst, 64, 64, &args);
            let want = plain.check(bst, 64, 64, &args);
            assert_eq!(got, want, "verdict reused across fuels must agree");
        }
        let stats = memoized.memo_stats();
        assert!(
            stats.hits > hits_before,
            "second sweep at higher fuel should reuse entries: {stats:?}"
        );
        hits_before = stats.hits;
        // A third sweep at the *same* fuel as the first is all hits or
        // honest misses, never a wrong answer.
        for t in &corpus {
            let args = [Value::nat(0), Value::nat(16), t.clone()];
            assert_eq!(
                memoized.check(bst, 16, 16, &args),
                plain.check(bst, 16, 16, &args),
            );
        }
        assert!(memoized.memo_stats().hits > hits_before);
    });
}

#[test]
fn none_verdicts_are_never_cached() {
    with_bst(|plain, _, bst, leaf, node| {
        let memoized = plain.fork().with_memo();
        // A comb deep enough that fuel 3 always runs out.
        let mut t = Value::ctor(leaf, vec![]);
        for x in (1..12u64).rev() {
            t = Value::ctor(node, vec![Value::nat(x), Value::ctor(leaf, vec![]), t]);
        }
        let args = [Value::nat(0), Value::nat(16), t];
        assert_eq!(memoized.check(bst, 3, 3, &args), None);
        // Repeating the same out-of-fuel query must re-search the top
        // level every time — if the `None` had been stored, the lookup
        // would start answering `Some` — and must add no entries.
        let after_first = memoized.memo_stats();
        assert!(
            after_first.none_skipped > 0,
            "the skip should be observable in the counters: {after_first:?}"
        );
        for _ in 0..9 {
            assert_eq!(memoized.check(bst, 3, 3, &args), None);
        }
        let stats = memoized.memo_stats();
        assert_eq!(
            stats.entries, after_first.entries,
            "repeated out-of-fuel queries must not grow the table: {stats:?}"
        );
        assert!(
            stats.none_skipped >= after_first.none_skipped + 9,
            "each repeat re-searches and re-skips: {stats:?}"
        );
        // Once fuel suffices the verdict is decided, cached, and agrees.
        assert_eq!(
            memoized.check(bst, 64, 64, &args),
            plain.check(bst, 64, 64, &args)
        );
        assert_eq!(memoized.check(bst, 64, 64, &args), Some(true));
    });
}

#[test]
fn memoized_stlc_suite_matches_plain() {
    let stlc = Stlc::new();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut corpus: Vec<Vec<Value>> = Vec::new();
    while corpus.len() < 60 {
        let ty = stlc.random_ty(2, &mut rng);
        if let Some(e) = stlc.handwritten_gen(&[], &ty, 4, &mut rng) {
            corpus.push(vec![stlc.ctx(&[]), e, ty]);
        }
    }
    let plain = stlc.library();
    let memoized = plain.fork().with_memo();
    let rel = stlc.typing_relation();
    // Two passes in one session, the multi-property-suite shape: the
    // second pass is mostly hits and must still agree pointwise.
    for _ in 0..2 {
        for args in &corpus {
            for fuel in [6, 40] {
                assert_eq!(
                    memoized.check(rel, fuel, fuel, args),
                    plain.check(rel, fuel, fuel, args),
                );
            }
        }
    }
    let stats = memoized.memo_stats();
    assert!(
        stats.hits > 0,
        "the second pass should reuse entries: {stats:?}"
    );
}
