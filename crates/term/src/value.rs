//! Runtime values.

use crate::ids::CtorId;
use std::sync::Arc;

/// A first-order runtime value: a machine natural, a boolean, or a fully
/// applied constructor.
///
/// Constructor arguments are reference-counted so that values can be
/// shared cheaply; cloning a [`Value`] is O(1) in the size of subterms.
///
/// # Example
///
/// ```
/// use indrel_term::{Value, CtorId};
/// let nil = Value::ctor(CtorId::new(0), vec![]);
/// let one = Value::ctor(CtorId::new(1), vec![Value::nat(1), nil.clone()]);
/// assert_eq!(one.size(), 3); // cons + one successor + nil
/// assert!(one > nil || one < nil);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// A machine natural number.
    Nat(u64),
    /// A boolean.
    Bool(bool),
    /// A fully applied constructor.
    Ctor(CtorId, Arc<Vec<Value>>),
}

impl Value {
    /// Builds a natural number value.
    pub fn nat(n: u64) -> Value {
        Value::Nat(n)
    }

    /// Builds a boolean value.
    pub fn bool(b: bool) -> Value {
        Value::Bool(b)
    }

    /// Builds a fully applied constructor value.
    pub fn ctor(ctor: CtorId, args: Vec<Value>) -> Value {
        Value::Ctor(ctor, Arc::new(args))
    }

    /// Returns the constructor id if the value is a constructor.
    pub fn as_ctor(&self) -> Option<(CtorId, &[Value])> {
        match self {
            Value::Ctor(c, args) => Some((*c, args)),
            _ => None,
        }
    }

    /// Returns the natural if the value is a [`Value::Nat`].
    pub fn as_nat(&self) -> Option<u64> {
        match self {
            Value::Nat(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean if the value is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The *size* of a value: number of constructor nodes, counting a
    /// natural `n` as `n` successor nodes. This is the measure used by
    /// bounded-exhaustive enumeration and by the validation harness.
    ///
    /// Iterative (explicit worklist): fuzz-generated terms can nest
    /// arbitrarily deep, and the recursion stack must not be the limit.
    /// Saturates at `u64::MAX`, so an oversized term never measures
    /// small.
    pub fn size(&self) -> u64 {
        let mut total = 0u64;
        let mut work = vec![self];
        while let Some(v) = work.pop() {
            match v {
                Value::Nat(n) => total = total.saturating_add(*n),
                Value::Bool(_) => {}
                Value::Ctor(_, args) => {
                    total = total.saturating_add(1);
                    work.extend(args.iter());
                }
            }
        }
        total
    }

    /// Structural equality that never consults pointer identity.
    ///
    /// [`PartialEq`] for [`Value`] is also structural, but Rust's derived
    /// implementation short-circuits on `Arc` pointer equality for shared
    /// subterms. The proof-checking case study (§6.3 of the paper) needs
    /// the honest O(n) comparison a proof kernel would perform, so this
    /// method deliberately walks both terms — iteratively, so the honest
    /// walk survives terms deeper than the call stack.
    pub fn structurally_equal(&self, other: &Value) -> bool {
        let mut work = vec![(self, other)];
        while let Some((a, b)) = work.pop() {
            match (a, b) {
                (Value::Nat(x), Value::Nat(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (Value::Bool(x), Value::Bool(y)) => {
                    if x != y {
                        return false;
                    }
                }
                (Value::Ctor(c1, a1), Value::Ctor(c2, a2)) => {
                    if c1 != c2 || a1.len() != a2.len() {
                        return false;
                    }
                    work.extend(a1.iter().zip(a2.iter()));
                }
                _ => return false,
            }
        }
        true
    }

    /// Depth of the value tree (a `Nat` has depth 0).
    pub fn depth(&self) -> u64 {
        let mut deepest = 0u64;
        let mut work = vec![(self, 0u64)];
        while let Some((v, above)) = work.pop() {
            match v {
                Value::Nat(_) | Value::Bool(_) => deepest = deepest.max(above),
                Value::Ctor(_, args) => {
                    let here = above + 1;
                    deepest = deepest.max(here);
                    work.extend(args.iter().map(|a| (a, here)));
                }
            }
        }
        deepest
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Nat(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf() -> Value {
        Value::ctor(CtorId::new(0), vec![])
    }

    fn node(n: u64, l: Value, r: Value) -> Value {
        Value::ctor(CtorId::new(1), vec![Value::nat(n), l, r])
    }

    #[test]
    fn size_counts_ctor_nodes_and_nat_magnitude() {
        assert_eq!(Value::nat(5).size(), 5);
        assert_eq!(Value::bool(true).size(), 0);
        assert_eq!(leaf().size(), 1);
        assert_eq!(node(2, leaf(), leaf()).size(), 5);
    }

    #[test]
    fn depth_is_tree_height() {
        assert_eq!(leaf().depth(), 1);
        assert_eq!(node(0, leaf(), node(0, leaf(), leaf())).depth(), 3);
    }

    #[test]
    fn structural_equality_matches_derived_eq() {
        let a = node(1, leaf(), leaf());
        let b = node(1, leaf(), leaf());
        let c = node(2, leaf(), leaf());
        assert!(a.structurally_equal(&b));
        assert_eq!(a, b);
        assert!(!a.structurally_equal(&c));
        assert_ne!(a, c);
    }

    #[test]
    fn clone_is_shallow() {
        let big = node(1, node(2, leaf(), leaf()), leaf());
        let copy = big.clone();
        if let (Value::Ctor(_, a), Value::Ctor(_, b)) = (&big, &copy) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected constructors");
        }
    }

    /// A unary chain `depth` constructors tall. Dropping such a chain
    /// recursively would itself overflow the stack, so the helper below
    /// dismantles it iteratively.
    fn deep_chain(depth: usize) -> Value {
        let mut v = leaf();
        for _ in 0..depth {
            v = Value::ctor(CtorId::new(2), vec![v]);
        }
        v
    }

    fn dismantle(mut v: Value) {
        while let Value::Ctor(_, args) = v {
            match Arc::try_unwrap(args) {
                Ok(mut vec) => match vec.pop() {
                    Some(child) => v = child,
                    None => break,
                },
                // Shared — the other owner dismantles it.
                Err(_) => break,
            }
        }
    }

    #[test]
    fn deep_terms_do_not_overflow_the_stack() {
        const DEPTH: usize = 300_000;
        let a = deep_chain(DEPTH);
        let b = a.clone(); // shallow: shares the whole chain
        assert_eq!(a.size(), DEPTH as u64 + 1);
        assert_eq!(a.depth(), DEPTH as u64 + 1);
        assert!(a.structurally_equal(&b));
        let c = deep_chain(DEPTH); // physically distinct copy
        assert!(a.structurally_equal(&c));
        drop(b); // refcounts stay > 1 along `a`'s chain: non-recursive
        dismantle(a);
        dismantle(c);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3u64), Value::nat(3));
        assert_eq!(Value::from(true), Value::bool(true));
        assert_eq!(Value::nat(3).as_nat(), Some(3));
        assert_eq!(Value::bool(false).as_bool(), Some(false));
        assert!(leaf().as_ctor().is_some());
        assert!(Value::nat(0).as_ctor().is_none());
    }
}
