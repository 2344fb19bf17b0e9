//! Message combiners.
//!
//! A [`Combine`] pairs an identity value with an associative, commutative
//! binary operation. Channels use it to merge messages addressed to the
//! same receiver — on the sender side (scatter-combine, combined-message)
//! and again on the receiver side. One of the paper's observations
//! (§V-A analysis) is that per-channel combiners apply in programs where a
//! single *global* Pregel combiner cannot; this type is what makes the
//! per-channel form trivial to express.

use std::sync::Arc;

/// What a bulk fold over a run of destinations draws its values from.
pub(crate) enum Vals<'a, V> {
    /// The same value for every destination: a broadcast, or an unweighted
    /// relaxation.
    One(&'a V),
    /// One value per destination, in the run's order.
    Each(&'a [V]),
}

/// A by-destination CSR compiled for [`Combine::gather`]: its runs grouped
/// by length, so that runs of one length fold four at a time.
pub(crate) struct Schedule<'a> {
    /// `(len, count)` per group, in schedule order: the next `count` runs
    /// hold `len` sources each (`len ≥ 1`).
    pub(crate) groups: &'a [(u32, u32)],
    /// Source indices into the slots, group after group. Within a group
    /// its runs go four at a time with the four interleaved (`s0[0] s1[0]
    /// s2[0] s3[0] s0[1] …`), then the `count % 4` left over one after
    /// another; a run's own sources keep their order.
    pub(crate) srcs: &'a [u32],
    /// The run index of each scheduled run: where its value goes.
    pub(crate) order: &'a [u32],
}

/// The fold step plus the bulk loops the optimized channels run over it.
/// Implemented once, for every closure type, so that inside the loops the
/// step is a direct (inlinable) call: a channel pays one indirect call per
/// frame or adjacency row through `dyn Fold`, not one per edge — the
/// user's combiner compiled *into* the edge loop, as iPregel does, without
/// a closure type parameter on `Combine` and every channel and algorithm
/// that names it.
trait Fold<V>: Send + Sync {
    fn apply(&self, acc: &mut V, v: V);
    /// [`Combine::gather`].
    fn gather(&self, slots: &[V], schedule: &Schedule<'_>, out: &mut [V]);
    /// [`Combine::absorb`].
    fn absorb(&self, acc: &mut [V], present: &mut [bool], dsts: &[u32], vals: &mut Vec<V>);
    /// [`Combine::stage`].
    fn stage(
        &self,
        acc: &mut [V],
        present: &mut [bool],
        dsts: &[u32],
        vals: Vals<'_, V>,
        touched: &mut Vec<u32>,
    );
    /// [`Combine::relax`].
    fn relax(&self, values: &mut [V], dsts: &[u32], vals: Vals<'_, V>, changed: &mut Vec<u32>)
    where
        V: PartialEq;
}

/// Pair a run of destinations with its values and hand each pair to
/// `step` — the loop [`Fold::stage`] and [`Fold::relax`] share, compiled
/// once per value source.
#[inline(always)]
fn for_each_pair<V: Clone>(dsts: &[u32], vals: Vals<'_, V>, mut step: impl FnMut(u32, V)) {
    match vals {
        Vals::One(v) => dsts.iter().for_each(|&dst| step(dst, v.clone())),
        Vals::Each(vs) => {
            assert_eq!(dsts.len(), vs.len(), "one destination per value");
            dsts.iter()
                .zip(vs)
                .for_each(|(&dst, v)| step(dst, v.clone()));
        }
    }
}

impl<V: Clone, F: Fn(&mut V, V) + Send + Sync> Fold<V> for F {
    #[inline]
    fn apply(&self, acc: &mut V, v: V) {
        self(acc, v);
    }

    /// Four runs of one length fold in lockstep, one accumulator each: the
    /// loop's exit is the same for a whole group, so it predicts, and the
    /// four fold chains are independent. The runs left over fold alone.
    fn gather(&self, slots: &[V], schedule: &Schedule<'_>, out: &mut [V]) {
        let get = |src: u32| slots[src as usize].clone();
        let (mut srcs, mut order) = (schedule.srcs, schedule.order);
        for &(len, count) in schedule.groups {
            let (len, count) = (len as usize, count as usize);
            let (group, rest) = srcs.split_at(len * count);
            let (at, rest_order) = order.split_at(count);
            (srcs, order) = (rest, rest_order);
            let quads = count / 4 * 4;
            let (lanes, singles) = group.split_at(quads * len);
            for (s, o) in lanes.chunks_exact(4 * len).zip(at.chunks_exact(4)) {
                let mut acc = [get(s[0]), get(s[1]), get(s[2]), get(s[3])];
                for t in s[4..].chunks_exact(4) {
                    self(&mut acc[0], get(t[0]));
                    self(&mut acc[1], get(t[1]));
                    self(&mut acc[2], get(t[2]));
                    self(&mut acc[3], get(t[3]));
                }
                for (&run, acc) in o.iter().zip(acc) {
                    out[run as usize] = acc;
                }
            }
            for (run, &o) in singles.chunks_exact(len).zip(&at[quads..]) {
                let mut acc = get(run[0]);
                for &src in &run[1..] {
                    self(&mut acc, get(src));
                }
                out[o as usize] = acc;
            }
        }
    }

    fn absorb(&self, acc: &mut [V], present: &mut [bool], dsts: &[u32], vals: &mut Vec<V>) {
        assert_eq!(dsts.len(), vals.len(), "one destination per value");
        for (&dst, v) in dsts.iter().zip(vals.drain(..)) {
            let dst = dst as usize;
            if present[dst] {
                self(&mut acc[dst], v);
            } else {
                acc[dst] = v;
                present[dst] = true;
            }
        }
    }

    fn stage(
        &self,
        acc: &mut [V],
        present: &mut [bool],
        dsts: &[u32],
        vals: Vals<'_, V>,
        touched: &mut Vec<u32>,
    ) {
        for_each_pair(dsts, vals, |dst, v| {
            let d = dst as usize;
            if present[d] {
                self(&mut acc[d], v);
            } else {
                acc[d] = v;
                present[d] = true;
                touched.push(dst);
            }
        });
    }

    fn relax(&self, values: &mut [V], dsts: &[u32], vals: Vals<'_, V>, changed: &mut Vec<u32>)
    where
        V: PartialEq,
    {
        for_each_pair(dsts, vals, |dst, v| {
            let cur = &mut values[dst as usize];
            let mut next = cur.clone();
            self(&mut next, v);
            if next != *cur {
                *cur = next;
                changed.push(dst);
            }
        });
    }
}

/// An identity element plus an associative, commutative fold step.
///
/// Cheap to clone (the closure is shared); every worker clones the
/// algorithm's combiner into its own channel instance.
#[derive(Clone)]
pub struct Combine<V> {
    identity: V,
    f: Arc<dyn Fold<V>>,
}

impl<V: Clone> Combine<V> {
    /// Build from an identity and a fold step `f(acc, v)`.
    ///
    /// `f` must be associative and commutative up to the algorithm's
    /// tolerance — message arrival order is unspecified.
    pub fn new(identity: V, f: impl Fn(&mut V, V) + Send + Sync + 'static) -> Self {
        Combine {
            identity,
            f: Arc::new(f),
        }
    }

    /// A fresh copy of the identity element.
    pub fn identity(&self) -> V {
        self.identity.clone()
    }

    /// Fold `v` into `acc`.
    #[inline]
    pub fn apply(&self, acc: &mut V, v: V) {
        self.f.apply(acc, v);
    }

    /// Sender-side bulk fold over a compiled by-destination CSR: `out`
    /// becomes one value per run, `out[k]` run `k`'s, whatever the order
    /// the schedule folds the runs in. Each run folds its sources' slot
    /// values left to right in their stored order (ascending, for
    /// `ScatterCombine`), starting from the run's first source, so the
    /// result is the same for a fold step that is not commutative.
    pub(crate) fn gather(&self, slots: &[V], schedule: &Schedule<'_>, out: &mut Vec<V>) {
        out.clear();
        out.resize(schedule.order.len(), self.identity());
        self.f.gather(slots, schedule, out);
    }

    /// Receiver-side bulk fold: `vals[i]` into `acc[dsts[i]]`, the first
    /// arrival at a slot (its `present` flag unset) stored as it is.
    /// Drains `vals`.
    pub fn absorb(&self, acc: &mut [V], present: &mut [bool], dsts: &[u32], vals: &mut Vec<V>) {
        self.f.absorb(acc, present, dsts, vals);
    }

    /// [`Combine::absorb`] that also reports first arrivals: `dst` is pushed
    /// onto `touched` when its `present` flag was unset — the dirty list of
    /// a send-side stage, the wake-up list of a receive side.
    pub(crate) fn stage(
        &self,
        acc: &mut [V],
        present: &mut [bool],
        dsts: &[u32],
        vals: Vals<'_, V>,
        touched: &mut Vec<u32>,
    ) {
        self.f.stage(acc, present, dsts, vals, touched);
    }

    /// Relax a run of destinations: fold each value into `values[dst]` and
    /// push `dst` onto `changed` whenever that moved the value (once per
    /// move, so a destination can appear more than once).
    pub(crate) fn relax(
        &self,
        values: &mut [V],
        dsts: &[u32],
        vals: Vals<'_, V>,
        changed: &mut Vec<u32>,
    ) where
        V: PartialEq,
    {
        self.f.relax(values, dsts, vals, changed);
    }

    /// Combine two values into one.
    pub fn join(&self, mut a: V, b: V) -> V {
        self.apply(&mut a, b);
        a
    }

    /// Fold an iterator starting from the identity.
    pub fn fold(&self, it: impl IntoIterator<Item = V>) -> V {
        let mut acc = self.identity();
        for v in it {
            self.apply(&mut acc, v);
        }
        acc
    }
}

impl<V: Ord + Clone> Combine<V> {
    /// Minimum with explicit identity (usually the type's max value).
    pub fn min_with_identity(identity: V) -> Self {
        Combine::new(identity, |acc: &mut V, v: V| {
            if v < *acc {
                *acc = v;
            }
        })
    }

    /// Maximum with explicit identity (usually the type's min value).
    pub fn max_with_identity(identity: V) -> Self {
        Combine::new(identity, |acc: &mut V, v: V| {
            if v > *acc {
                *acc = v;
            }
        })
    }
}

impl Combine<u32> {
    /// `min` over `u32` (identity `u32::MAX`).
    pub fn min_u32() -> Self {
        Combine::min_with_identity(u32::MAX)
    }
}

impl Combine<u64> {
    /// `min` over `u64` (identity `u64::MAX`).
    pub fn min_u64() -> Self {
        Combine::min_with_identity(u64::MAX)
    }

    /// Sum over `u64` (identity 0).
    pub fn sum_u64() -> Self {
        Combine::new(0u64, |acc, v| *acc += v)
    }
}

impl Combine<f64> {
    /// Sum over `f64` (identity 0.0).
    pub fn sum_f64() -> Self {
        Combine::new(0.0f64, |acc, v| *acc += v)
    }

    /// Minimum over `f64` (identity +inf).
    pub fn min_f64() -> Self {
        Combine::new(f64::INFINITY, |acc: &mut f64, v| {
            if v < *acc {
                *acc = v;
            }
        })
    }
}

impl Combine<bool> {
    /// Logical OR (identity false).
    pub fn or() -> Self {
        Combine::new(false, |acc, v| *acc |= v)
    }

    /// Logical AND (identity true).
    pub fn and() -> Self {
        Combine::new(true, |acc, v| *acc &= v)
    }
}

impl<V> std::fmt::Debug for Combine<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Combine { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_and_max() {
        let min = Combine::min_u32();
        assert_eq!(min.fold([5, 3, 9]), 3);
        assert_eq!(min.fold(std::iter::empty()), u32::MAX);
        let max = Combine::max_with_identity(0u32);
        assert_eq!(max.fold([5, 3, 9]), 9);
    }

    #[test]
    fn sums() {
        assert_eq!(Combine::sum_u64().fold([1, 2, 3]), 6);
        assert!((Combine::sum_f64().fold([0.5, 0.25]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn boolean_folds() {
        assert!(Combine::or().fold([false, true]));
        assert!(!Combine::or().fold(std::iter::empty()));
        assert!(!Combine::and().fold([true, false]));
        assert!(Combine::and().fold(std::iter::empty()));
    }

    #[test]
    fn join_and_apply_agree() {
        let c = Combine::min_u32();
        let mut acc = 9;
        c.apply(&mut acc, 4);
        assert_eq!(acc, 4);
        assert_eq!(c.join(9, 4), 4);
    }

    #[test]
    fn stage_reports_first_arrivals_and_folds_the_rest() {
        let sum = Combine::sum_u64();
        let (mut acc, mut present, mut touched) = (vec![0u64; 4], vec![false; 4], Vec::new());
        sum.stage(
            &mut acc,
            &mut present,
            &[2, 0, 2],
            Vals::One(&5),
            &mut touched,
        );
        sum.stage(
            &mut acc,
            &mut present,
            &[0, 3],
            Vals::Each(&[1, 7]),
            &mut touched,
        );
        assert_eq!(acc, [6, 0, 10, 7]);
        assert_eq!(present, [true, false, true, true]);
        assert_eq!(touched, [2, 0, 3]);
    }

    #[test]
    fn relax_reports_every_move() {
        let min = Combine::min_u32();
        let (mut values, mut changed) = (vec![9u32, 4, 9], Vec::new());
        min.relax(&mut values, &[0, 1, 2], Vals::One(&5), &mut changed);
        min.relax(
            &mut values,
            &[2, 2, 1],
            Vals::Each(&[3, 6, 4]),
            &mut changed,
        );
        assert_eq!(values, [5, 4, 3]);
        assert_eq!(changed, [0, 2, 2]);
    }

    #[test]
    fn clones_share_behaviour() {
        let c = Combine::new(0u64, |acc, v| *acc += 2 * v);
        let d = c.clone();
        assert_eq!(c.fold([1, 2]), d.fold([1, 2]));
    }
}
