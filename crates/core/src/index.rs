//! Constructor-indexed rule dispatch for compiled checkers.
//!
//! The `compatible` analysis of §4 already decides, per rule, which
//! shapes of scrutinee can possibly unify with the conclusion's input
//! patterns. This module exploits the first-order special case at run
//! time: pick one input position where many rules pattern-match
//! rigidly (an exact constructor, literal, or successor shape), bucket
//! the rules by the *head class* they demand at that position, and
//! dispatch each call straight to the bucket matching the scrutinee's
//! head. Rules in other buckets would fail their input-pattern match
//! — a conclusive `Some(false)`, never an out-of-fuel `None` — so
//! pruning them cannot change any verdict; it only skips attempts the
//! probe layer would have recorded as immediate `UnifyFail`s.
//!
//! Rules whose pattern at the chosen position is flexible (`Wild` or a
//! variable) appear in every bucket. When no position has any rigid
//! pattern, no index is built and dispatch stays linear.

use indrel_term::{CtorId, Pattern, Value};

/// The head class a rigid pattern demands of its scrutinee.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Head {
    NatZero,
    NatPos,
    Bool(bool),
    Ctor(CtorId),
}

/// Classifies a pattern's head demand; `None` for flexible patterns.
fn head_of(p: &Pattern) -> Option<Head> {
    match p {
        Pattern::Wild | Pattern::Var(_) => None,
        Pattern::NatLit(0) => Some(Head::NatZero),
        Pattern::NatLit(_) | Pattern::Succ(_) => Some(Head::NatPos),
        Pattern::BoolLit(b) => Some(Head::Bool(*b)),
        Pattern::Ctor(c, _) => Some(Head::Ctor(*c)),
    }
}

/// A first-argument discrimination index over a relation's handlers.
/// Buckets hold handler indices in ascending order, so indexed
/// dispatch attempts the surviving rules in the same order linear
/// dispatch would.
pub(crate) struct DispatchIndex {
    pos: usize,
    total: u32,
    nat_zero: Vec<u32>,
    nat_pos: Vec<u32>,
    bool_true: Vec<u32>,
    bool_false: Vec<u32>,
    /// Constructor buckets as a sorted-insertion pair list: a relation
    /// has a handful of rigid head constructors at most, so a linear
    /// scan beats hashing on the dispatch hot path (this lookup runs
    /// once per VM search).
    ctor: Vec<(CtorId, Vec<u32>)>,
    /// The catch-all bucket: handlers flexible at `pos`. Serves
    /// constructors no rule demands rigidly.
    flexible: Vec<u32>,
}

impl DispatchIndex {
    /// Builds the index over one pattern row per handler, choosing the
    /// input position with the most rigid patterns (ties to the
    /// leftmost). Returns `None` when every pattern everywhere is
    /// flexible — linear dispatch is already optimal then.
    pub(crate) fn build(rows: &[&[Pattern]]) -> Option<DispatchIndex> {
        let arity = rows.first()?.len();
        let (pos, rigid) = (0..arity)
            .map(|p| (p, rows.iter().filter(|r| head_of(&r[p]).is_some()).count()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))?;
        if rigid == 0 {
            return None;
        }
        let mut idx = DispatchIndex {
            pos,
            total: rows.len() as u32,
            nat_zero: Vec::new(),
            nat_pos: Vec::new(),
            bool_true: Vec::new(),
            bool_false: Vec::new(),
            ctor: Vec::new(),
            flexible: Vec::new(),
        };
        for (i, row) in rows.iter().enumerate() {
            let i = i as u32;
            match head_of(&row[pos]) {
                None => {
                    // Flexible: a member of every bucket, present and
                    // future — including ctor buckets created below.
                    idx.nat_zero.push(i);
                    idx.nat_pos.push(i);
                    idx.bool_true.push(i);
                    idx.bool_false.push(i);
                    for (_, bucket) in idx.ctor.iter_mut() {
                        bucket.push(i);
                    }
                    idx.flexible.push(i);
                }
                Some(Head::NatZero) => idx.nat_zero.push(i),
                Some(Head::NatPos) => idx.nat_pos.push(i),
                Some(Head::Bool(true)) => idx.bool_true.push(i),
                Some(Head::Bool(false)) => idx.bool_false.push(i),
                Some(Head::Ctor(c)) => {
                    let bucket = match idx.ctor.iter_mut().position(|(id, _)| *id == c) {
                        Some(p) => &mut idx.ctor[p].1,
                        None => {
                            // A bucket opened late must start from the
                            // flexible handlers already seen, to keep
                            // it sorted and complete.
                            idx.ctor.push((c, idx.flexible.clone()));
                            &mut idx.ctor.last_mut().unwrap().1
                        }
                    };
                    bucket.push(i);
                }
            }
        }
        Some(idx)
    }

    /// The candidate handlers for a call with these arguments (held by
    /// reference, the bytecode VM's calling convention), in ascending
    /// handler order. Slices borrow from the index; callers compute
    /// `skipped` as `total() - candidates.len()`.
    pub(crate) fn candidates(&self, args: &[&Value]) -> &[u32] {
        match args[self.pos] {
            Value::Nat(0) => &self.nat_zero,
            Value::Nat(_) => &self.nat_pos,
            Value::Bool(true) => &self.bool_true,
            Value::Bool(false) => &self.bool_false,
            Value::Ctor(c, _) => self
                .ctor
                .iter()
                .find(|(id, _)| id == c)
                .map(|(_, b)| b.as_slice())
                .unwrap_or(&self.flexible),
        }
    }

    /// Total number of handlers the index covers.
    pub(crate) fn total(&self) -> u32 {
        self.total
    }

    /// The input position the index discriminates on. The bytecode
    /// compiler uses this to elide head guards the dispatch already
    /// proves (see `vm::head_guard_subsumed`).
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(n: usize) -> CtorId {
        CtorId::new(n)
    }

    #[test]
    fn buckets_by_head_class_with_flexible_everywhere() {
        // Rules: 0 on ctor A, 1 on ctor B, 2 flexible, 3 on ctor A.
        let rows: Vec<Vec<Pattern>> = vec![
            vec![Pattern::ctor(c(0), vec![]), Pattern::Wild],
            vec![Pattern::ctor(c(1), vec![]), Pattern::Wild],
            vec![Pattern::var(0), Pattern::Wild],
            vec![Pattern::ctor(c(0), vec![Pattern::Wild]), Pattern::Wild],
        ];
        let refs: Vec<&[Pattern]> = rows.iter().map(Vec::as_slice).collect();
        let idx = DispatchIndex::build(&refs).expect("rigid position exists");
        assert_eq!(idx.total(), 4);
        let a = Value::ctor(c(0), vec![Value::nat(1)]);
        assert_eq!(idx.candidates(&[&a, &Value::nat(0)]), &[0, 2, 3]);
        let b = Value::ctor(c(1), vec![]);
        assert_eq!(idx.candidates(&[&b, &Value::nat(0)]), &[1, 2]);
        // A constructor no rule demands: only the flexible rule.
        let other = Value::ctor(c(9), vec![]);
        assert_eq!(idx.candidates(&[&other, &Value::nat(0)]), &[2]);
    }

    #[test]
    fn nat_heads_split_zero_from_successor() {
        let rows: Vec<Vec<Pattern>> = vec![
            vec![Pattern::NatLit(0)],
            vec![Pattern::Succ(Box::new(Pattern::var(0)))],
            vec![Pattern::NatLit(3)],
        ];
        let refs: Vec<&[Pattern]> = rows.iter().map(Vec::as_slice).collect();
        let idx = DispatchIndex::build(&refs).unwrap();
        assert_eq!(idx.candidates(&[&Value::nat(0)]), &[0]);
        assert_eq!(idx.candidates(&[&Value::nat(3)]), &[1, 2]);
        assert_eq!(idx.candidates(&[&Value::nat(7)]), &[1, 2]);
    }

    #[test]
    fn all_flexible_builds_no_index() {
        let rows: Vec<Vec<Pattern>> = vec![vec![Pattern::var(0)], vec![Pattern::Wild]];
        let refs: Vec<&[Pattern]> = rows.iter().map(Vec::as_slice).collect();
        assert!(DispatchIndex::build(&refs).is_none());
    }

    #[test]
    fn picks_the_most_discriminating_position() {
        // Position 0 is flexible everywhere; position 1 is rigid.
        let rows: Vec<Vec<Pattern>> = vec![
            vec![Pattern::Wild, Pattern::BoolLit(true)],
            vec![Pattern::var(0), Pattern::BoolLit(false)],
        ];
        let refs: Vec<&[Pattern]> = rows.iter().map(Vec::as_slice).collect();
        let idx = DispatchIndex::build(&refs).unwrap();
        assert_eq!(idx.candidates(&[&Value::nat(9), &Value::bool(true)]), &[0]);
        assert_eq!(idx.candidates(&[&Value::nat(9), &Value::bool(false)]), &[1]);
    }

    #[test]
    fn zero_arity_builds_no_index() {
        let rows: Vec<Vec<Pattern>> = vec![vec![], vec![]];
        let refs: Vec<&[Pattern]> = rows.iter().map(Vec::as_slice).collect();
        assert!(DispatchIndex::build(&refs).is_none());
    }
}
