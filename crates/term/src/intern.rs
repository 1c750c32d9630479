//! Structural fingerprints of [`Value`] terms.
//!
//! The tabling layer in `indrel-core` keys its verdict table on checker
//! arguments. Hashing those arguments structurally would cost a deep
//! traversal per lookup — exactly the work the table is supposed to
//! avoid. [`Interner::fingerprint`] computes a 64-bit *structural*
//! hash of a term and caches the fingerprint of the term's *root* by
//! `Arc` identity (the cache entry owns a clone of the `Arc`, pinning
//! the address it is keyed by, so a recycled allocation can never alias
//! a different term). A term seen before — re-checks of the same value,
//! fuel ladders, duplicate-heavy random corpora — fingerprints in one
//! map probe with no allocation; a fresh term costs one mixing walk.
//! Interior nodes are deliberately not cached: pinning every node of a
//! seen-once term costs more map traffic than the walk it saves.
//! Consumers that key on fingerprints must confirm candidates
//! structurally (fingerprint equality is evidence, not proof).
//!
//! The cache stops admitting roots once `node_cap` is reached;
//! fingerprinting then degrades to an uncached full walk.
//!
//! # Example
//!
//! ```
//! use indrel_term::{CtorId, Interner, Value};
//!
//! let mut interner = Interner::new(1 << 20);
//! let t = |n| Value::ctor(CtorId::new(1), vec![Value::nat(n)]);
//! // Physically distinct but structurally equal terms agree.
//! assert_eq!(interner.fingerprint(&t(7)), interner.fingerprint(&t(7)));
//! assert_ne!(interner.fingerprint(&t(7)), interner.fingerprint(&t(8)));
//! ```

use crate::hash::FastHashBuilder;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// The address a constructor node is identified by: its argument
/// vector's `Arc` data pointer (unique per live allocation).
fn addr_of(args: &Arc<Vec<Value>>) -> usize {
    Arc::as_ptr(args) as *const () as usize
}

/// A cache of structural fingerprints of [`Value`] terms. See the
/// module docs.
pub struct Interner {
    /// Node address → (pin, structural fingerprint). The stored `Arc`
    /// keeps the keyed allocation alive, so an address can never be
    /// recycled out from under its entry.
    fp: HashMap<usize, (Arc<Vec<Value>>, u64), FastHashBuilder>,
    node_cap: usize,
}

impl std::fmt::Debug for Interner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interner")
            .field("fp", &self.fp.len())
            .field("node_cap", &self.node_cap)
            .finish()
    }
}

impl Interner {
    /// Creates a fingerprint cache that stops admitting new roots once
    /// it holds `node_cap` of them.
    pub fn new(node_cap: usize) -> Interner {
        Interner {
            fp: HashMap::default(),
            node_cap,
        }
    }

    /// Number of node fingerprints currently cached.
    pub fn len_fp(&self) -> usize {
        self.fp.len()
    }

    /// Structural fingerprint of `v`: equal for structurally equal
    /// terms, and one allocation-free map probe for any constructor
    /// whose `Arc` was fingerprinted (as a root) before. A fresh term
    /// costs one mixing walk, after which its root is cached, its
    /// address pinned by the cache.
    ///
    /// Iterative, so arbitrarily deep terms cannot overflow the stack.
    pub fn fingerprint(&mut self, v: &Value) -> u64 {
        match v {
            Value::Nat(n) => fp_scalar(0, *n),
            Value::Bool(b) => fp_scalar(1, u64::from(*b)),
            Value::Ctor(_, args) => {
                if let Some(&(_, h)) = self.fp.get(&addr_of(args)) {
                    return h;
                }
                let h = self.fingerprint_cold(v);
                if self.fp.len() < self.node_cap {
                    self.fp.insert(addr_of(args), (Arc::clone(args), h));
                }
                h
            }
        }
    }

    /// The uncached fingerprint walk: a preorder fold over the term's
    /// tokens (constructor ids, scalar payloads). Preorder with known
    /// arities determines the tree uniquely, so no postorder combining
    /// — and no cache probing, which on seen-once terms costs more than
    /// the mixing it could save — is needed. The caller caches the
    /// result under the root's address.
    ///
    /// The fold stops after [`FP_TOKEN_CAP`] tokens: a fingerprint is a
    /// hash, not an identity, and every consumer confirms candidates
    /// structurally, so truncating to a preorder prefix (still a pure
    /// function of the term — equal terms share every prefix) only
    /// trades bucket selectivity on huge terms for a hard bound on
    /// hashing cost. That bound is what keeps table lookups affordable
    /// on workloads that never hit.
    fn fingerprint_cold(&self, v: &Value) -> u64 {
        let mut h = 0x6A09_E667_F3BC_C909u64;
        let mut budget = FP_TOKEN_CAP;
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            // Tokens are tagged cheaply (one multiply at most); the
            // rotate-xor-multiply fold and the final mix carry the
            // diffusion, and consumers confirm structurally anyway.
            let tok = match x {
                Value::Nat(n) => n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                Value::Bool(b) => 0x0310_5AB3_u64 | u64::from(*b) << 63,
                Value::Ctor(ctor, args) => {
                    stack.extend(args.iter().rev());
                    (ctor.index() as u64) << 2 | 2
                }
            };
            h = (h.rotate_left(5) ^ tok).wrapping_mul(0x517C_C1B7_2722_0A95);
        }
        splitmix(h)
    }
}

/// How many preorder tokens a cold fingerprint walk folds before
/// truncating (see [`Interner::fingerprint`]); terms whose first
/// `FP_TOKEN_CAP` tokens agree share a fingerprint and are told apart
/// by the structural confirmation their consumers already perform.
const FP_TOKEN_CAP: usize = 48;

/// Finalizing mix (splitmix64), applied once per constructor node.
#[inline]
fn splitmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn fp_scalar(tag: u64, payload: u64) -> u64 {
    splitmix(payload ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CtorId;

    fn leaf() -> Value {
        Value::ctor(CtorId::new(0), vec![])
    }

    fn node(n: u64, l: Value, r: Value) -> Value {
        Value::ctor(CtorId::new(1), vec![Value::nat(n), l, r])
    }

    #[test]
    fn fingerprints_are_structural() {
        let mut i = Interner::new(1 << 16);
        // Physically fresh but structurally equal terms agree.
        let a = i.fingerprint(&node(3, leaf(), node(1, leaf(), leaf())));
        let b = i.fingerprint(&node(3, leaf(), node(1, leaf(), leaf())));
        assert_eq!(a, b);
        // Distinct payloads, shapes, and constructors all differ.
        assert_ne!(a, i.fingerprint(&node(4, leaf(), node(1, leaf(), leaf()))));
        assert_ne!(a, i.fingerprint(&node(3, node(1, leaf(), leaf()), leaf())));
        assert_ne!(i.fingerprint(&leaf()), i.fingerprint(&Value::nat(0)));
        assert_ne!(
            i.fingerprint(&Value::nat(0)),
            i.fingerprint(&Value::bool(false))
        );
    }

    #[test]
    fn fingerprints_are_cached_by_identity() {
        let mut i = Interner::new(1 << 16);
        let t = node(5, leaf(), leaf());
        let first = i.fingerprint(&t);
        let cached = i.len_fp();
        // Re-fingerprinting the same Arc is a probe, not a walk: the
        // cache does not grow.
        assert_eq!(i.fingerprint(&t), first);
        assert_eq!(i.len_fp(), cached);
        // A structurally equal fresh term re-walks (new addresses) but
        // lands on the same fingerprint.
        assert_eq!(i.fingerprint(&node(5, leaf(), leaf())), first);
        assert!(i.len_fp() > cached);
    }

    #[test]
    fn fingerprint_cache_stops_admitting_at_its_cap() {
        let mut i = Interner::new(1); // room for a single root
        let (a, b) = (node(1, leaf(), leaf()), node(2, leaf(), leaf()));
        let (fa, fb) = (i.fingerprint(&a), i.fingerprint(&b));
        assert_eq!(i.len_fp(), 1);
        // Past the cap an uncached walk still lands on the same value.
        assert_eq!(i.fingerprint(&b), fb);
        assert_eq!(i.fingerprint(&node(1, leaf(), leaf())), fa);
        assert_eq!(i.len_fp(), 1);
    }

    #[test]
    fn fingerprints_truncate_to_a_preorder_prefix() {
        let mut i = Interner::new(1 << 16);
        // Two chains that differ only past the token cap: same prefix,
        // same fingerprint — consumers must treat equality as evidence.
        let chain = |tail: Value| {
            let mut v = tail;
            for _ in 0..2 * super::FP_TOKEN_CAP {
                v = Value::ctor(CtorId::new(2), vec![v]);
            }
            v
        };
        let a = chain(Value::nat(7));
        let b = chain(Value::nat(8));
        assert_eq!(i.fingerprint(&a), i.fingerprint(&b));
        // A difference inside the prefix still separates them.
        let c = Value::ctor(CtorId::new(3), vec![a.clone()]);
        let d = Value::ctor(CtorId::new(4), vec![a.clone()]);
        assert_ne!(i.fingerprint(&c), i.fingerprint(&d));
    }

    #[test]
    fn deep_terms_fingerprint_iteratively() {
        let mut i = Interner::new(1 << 20);
        let mut v = leaf();
        for _ in 0..200_000 {
            v = Value::ctor(CtorId::new(2), vec![v]);
        }
        let h = i.fingerprint(&v);
        assert_eq!(i.fingerprint(&v), h);
        // `v` keeps every chain node alive while the cache's pins drop,
        // so dropping the cache cannot cascade; then dismantle the
        // chain itself.
        drop(i);
        dismantle(v);
    }

    /// Iterative teardown of a unary chain; a plain drop would recurse.
    fn dismantle(mut v: Value) {
        while let Value::Ctor(_, args) = v {
            match Arc::try_unwrap(args) {
                Ok(mut vec) => match vec.pop() {
                    Some(child) => v = child,
                    None => break,
                },
                Err(_) => break,
            }
        }
    }
}
