//! Watch-list storage for the two-watched-literal scheme.
//!
//! Two layouts behind one accessor API, selected by
//! [`crate::solver::Config::flat_watches`]:
//!
//! * **Flat** (the default): every watcher of every literal lives in one
//!   contiguous `Vec<Watcher>` arena, with a per-literal `(offset, len,
//!   cap)` header. Propagation walks one cache-linear slice per literal
//!   instead of chasing a separate heap allocation per literal. A list
//!   that outgrows its capacity is relocated to the end of the arena with
//!   amortized doubling; the abandoned region becomes a lazy hole counted
//!   in `garbage`. Holes are reclaimed by [`WatchStore::compact`]
//!   (rebuild-in-place, order preserving), which the solver runs after the
//!   full watch rebuild that follows every clause-arena compaction, when
//!   holes dominate the arena.
//! * **Nested** (the seed layout, kept for the perf-gate baseline): the
//!   classic `Vec<Vec<Watcher>>`, one heap allocation per literal.
//!
//! The accessor methods take and return [`Watcher`] by value and index
//! lists by literal code, so the solver can interleave them with clause
//! arena borrows without fighting the borrow checker, in either mode.

use crate::clause::ClauseRef;
use crate::lit::Lit;

/// One watch-list entry: the clause and a cached "blocker" literal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    /// The watched clause.
    pub cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause needs no work (MiniSat's "blocker"). For binary
    /// clauses the blocker is the *whole* other half of the clause, so the
    /// fast path never loads the arena.
    pub blocker: Lit,
}

/// Placeholder entry for unused capacity inside a flat region. Never read:
/// every access is bounded by the header's `len`, not its `cap`.
const HOLE: Watcher = Watcher {
    cref: ClauseRef(u32::MAX),
    blocker: Lit(u32::MAX),
};

/// Per-literal header of the flat layout: the list occupies
/// `data[off .. off + len]` inside its reserved region
/// `data[off .. off + cap]`.
#[derive(Debug, Clone, Copy, Default)]
struct Head {
    off: u32,
    len: u32,
    cap: u32,
}

/// Minimum region capacity handed to a list on its first relocation.
const MIN_CAP: u32 = 4;

/// Watch lists for all literals, in the flat or nested layout.
#[derive(Debug)]
pub(crate) struct WatchStore {
    flat: bool,
    /// Nested layout (empty when `flat`).
    nested: Vec<Vec<Watcher>>,
    /// Flat arena (empty when `!flat`).
    data: Vec<Watcher>,
    heads: Vec<Head>,
    /// Arena slots orphaned by list relocation (whole abandoned regions).
    garbage: usize,
}

impl WatchStore {
    pub(crate) fn new(flat: bool) -> WatchStore {
        WatchStore {
            flat,
            nested: Vec::new(),
            data: Vec::new(),
            heads: Vec::new(),
            garbage: 0,
        }
    }

    /// Registers one more literal code (two calls per new variable).
    pub(crate) fn add_lit(&mut self) {
        if self.flat {
            self.heads.push(Head::default());
        } else {
            self.nested.push(Vec::new());
        }
    }

    /// Number of literal codes registered.
    pub(crate) fn num_codes(&self) -> usize {
        if self.flat {
            self.heads.len()
        } else {
            self.nested.len()
        }
    }

    /// Length of the watch list of literal code `code`.
    #[inline]
    pub(crate) fn len(&self, code: usize) -> usize {
        if self.flat {
            self.heads[code].len as usize
        } else {
            self.nested[code].len()
        }
    }

    /// The `i`-th watcher of `code`.
    #[inline]
    pub(crate) fn get(&self, code: usize, i: usize) -> Watcher {
        if self.flat {
            let h = self.heads[code];
            debug_assert!((i as u32) < h.len);
            self.data[h.off as usize + i]
        } else {
            self.nested[code][i]
        }
    }

    /// Overwrites the `i`-th watcher of `code`.
    #[inline]
    pub(crate) fn set(&mut self, code: usize, i: usize, w: Watcher) {
        if self.flat {
            let h = self.heads[code];
            debug_assert!((i as u32) < h.len);
            self.data[h.off as usize + i] = w;
        } else {
            self.nested[code][i] = w;
        }
    }

    /// Appends a watcher to `code`'s list, relocating the list to the end
    /// of the arena with doubled capacity when it is full (flat mode).
    #[inline]
    pub(crate) fn push(&mut self, code: usize, w: Watcher) {
        if !self.flat {
            self.nested[code].push(w);
            return;
        }
        let h = self.heads[code];
        if h.len < h.cap {
            self.data[(h.off + h.len) as usize] = w;
            self.heads[code].len = h.len + 1;
            return;
        }
        self.relocate_and_push(code, w);
    }

    /// Cold path of [`WatchStore::push`]: move `code`'s full region to the
    /// arena end with `max(MIN_CAP, 2 * cap)` capacity, leaving the old
    /// region as a lazy hole.
    #[cold]
    fn relocate_and_push(&mut self, code: usize, w: Watcher) {
        let h = self.heads[code];
        let new_cap = (h.cap * 2).max(MIN_CAP);
        let new_off = self.data.len() as u32;
        self.data.reserve(new_cap as usize);
        for i in 0..h.len {
            let x = self.data[(h.off + i) as usize];
            self.data.push(x);
        }
        self.data.push(w);
        // Physically own the whole region so later relocations of other
        // lists append past it, never into it.
        for _ in (h.len + 1)..new_cap {
            self.data.push(HOLE);
        }
        self.garbage += h.cap as usize;
        self.heads[code] = Head {
            off: new_off,
            len: h.len + 1,
            cap: new_cap,
        };
    }

    /// Shrinks `code`'s list to `new_len` (the freed slots stay inside the
    /// region's capacity and are reused by later pushes).
    #[inline]
    pub(crate) fn truncate(&mut self, code: usize, new_len: usize) {
        if self.flat {
            debug_assert!(new_len as u32 <= self.heads[code].len);
            self.heads[code].len = new_len as u32;
        } else {
            self.nested[code].truncate(new_len);
        }
    }

    /// Removes the first watcher of `code` that watches `cref`, preserving
    /// the order of the rest (propagation visit order is part of the
    /// solver's determinism contract). Returns whether one was found.
    #[cfg(any(test, kani, feature = "kani-harness"))]
    pub(crate) fn remove_first(&mut self, code: usize, cref: ClauseRef) -> bool {
        let n = self.len(code);
        for i in 0..n {
            if self.get(code, i).cref == cref {
                for j in i..n - 1 {
                    let w = self.get(code, j + 1);
                    self.set(code, j, w);
                }
                self.truncate(code, n - 1);
                return true;
            }
        }
        false
    }

    /// The current watch list of `code` as a slice (checks and tests).
    pub(crate) fn slice(&self, code: usize) -> &[Watcher] {
        if self.flat {
            let h = self.heads[code];
            &self.data[h.off as usize..(h.off + h.len) as usize]
        } else {
            &self.nested[code]
        }
    }

    /// Empties every list but keeps the flat regions in place, so a rebuild
    /// that reattaches roughly the same clauses refills them without
    /// relocations.
    pub(crate) fn clear(&mut self) {
        if self.flat {
            for h in &mut self.heads {
                h.len = 0;
            }
        } else {
            for l in &mut self.nested {
                l.clear();
            }
        }
    }

    /// Whether relocation holes dominate the flat arena enough to justify an
    /// in-place compaction (never true in nested mode).
    pub(crate) fn should_compact(&self) -> bool {
        self.flat && self.data.len() >= 1024 && self.garbage * 2 > self.data.len()
    }

    /// Rebuilds the flat arena tightly in place, preserving per-list order
    /// and granting each list a power-of-two region so post-compaction
    /// pushes amortize as before. No-op in nested mode.
    pub(crate) fn compact(&mut self) {
        if !self.flat {
            return;
        }
        let mut packed: Vec<Watcher> = Vec::with_capacity(self.data.len() - self.garbage);
        for code in 0..self.heads.len() {
            let h = self.heads[code];
            let new_off = packed.len() as u32;
            let new_cap = if h.len == 0 {
                0
            } else {
                h.len.next_power_of_two().max(MIN_CAP)
            };
            for i in 0..h.len {
                packed.push(self.data[(h.off + i) as usize]);
            }
            packed.extend(std::iter::repeat_n(HOLE, (new_cap - h.len) as usize));
            self.heads[code] = Head {
                off: new_off,
                len: h.len,
                cap: new_cap,
            };
        }
        self.data = packed;
        self.garbage = 0;
    }

    /// Heap bytes currently held by the watch structures — the
    /// `sat.watch_bytes` gauge.
    pub(crate) fn bytes(&self) -> u64 {
        let w = std::mem::size_of::<Watcher>();
        if self.flat {
            (self.data.capacity() * w + self.heads.capacity() * std::mem::size_of::<Head>()) as u64
        } else {
            let inner: usize = self.nested.iter().map(|l| l.capacity() * w).sum();
            (inner + self.nested.capacity() * std::mem::size_of::<Vec<Watcher>>()) as u64
        }
    }
}

/// Bounded verification harness for flat-arena compaction under a
/// clause-deletion workload: arbitrary interleavings of pushes (forcing
/// relocations, which orphan regions) and `remove_first` detachments (a
/// deleted clause's watchers leaving their lists), then a compaction.
/// The live watcher lists must survive byte-for-byte, in order, with the
/// arena usable afterwards. Proved by Kani under
/// `cargo kani`; compiled and concretely executed under `kani-harness`.
#[cfg(any(kani, feature = "kani-harness"))]
#[allow(dead_code)]
mod verification {
    use super::{WatchStore, Watcher};
    use crate::clause::ClauseRef;
    use crate::lit::Lit;

    #[cfg(kani)]
    fn arb_below(bound: usize) -> usize {
        let x: usize = kani::any();
        kani::assume(x < bound);
        x
    }

    #[cfg(not(kani))]
    fn arb_below(bound: usize) -> usize {
        use std::cell::Cell;
        thread_local! {
            static STATE: Cell<u64> = const { Cell::new(0xda3e_39cb_94b9_5bdb) };
        }
        STATE.with(|s| {
            let next = s
                .get()
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.set(next);
            (next >> 33) as usize % bound.max(1)
        })
    }

    #[cfg_attr(kani, kani::proof, kani::unwind(24))]
    pub fn compaction_preserves_live_watchers_in_order() {
        const CODES: usize = 2;
        const OPS: usize = 6;
        let mut store = WatchStore::new(true);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); CODES];
        for _ in 0..CODES {
            store.add_lit();
        }
        let mut next_cref = 0u32;
        for _ in 0..OPS {
            let code = arb_below(CODES);
            if arb_below(4) == 0 && !model[code].is_empty() {
                // A deleted clause's watcher leaves its list.
                let victim = model[code][arb_below(model[code].len())];
                assert!(store.remove_first(code, ClauseRef(victim)));
                let pos = model[code].iter().position(|&c| c == victim).unwrap();
                model[code].remove(pos);
            } else {
                store.push(
                    code,
                    Watcher {
                        cref: ClauseRef(next_cref),
                        blocker: Lit(0),
                    },
                );
                model[code].push(next_cref);
                next_cref += 1;
            }
        }
        store.compact();
        assert_eq!(store.garbage, 0, "compaction reclaims every hole");
        for (code, want) in model.iter().enumerate() {
            let got: Vec<u32> = store.slice(code).iter().map(|w| w.cref.0).collect();
            assert_eq!(&got, want, "list {code} must survive compaction in order");
        }
        // The arena stays writable: a post-compaction push lands normally.
        store.push(
            0,
            Watcher {
                cref: ClauseRef(next_cref),
                blocker: Lit(0),
            },
        );
        assert_eq!(
            store.slice(0).last().map(|w| w.cref.0),
            Some(next_cref),
            "post-compaction push must append"
        );
    }

    #[cfg(all(test, not(kani)))]
    mod exec {
        #[test]
        fn harness_runs_concretely() {
            for _ in 0..128 {
                super::compaction_preserves_live_watchers_in_order();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(c: u32) -> Watcher {
        Watcher {
            cref: ClauseRef(c),
            blocker: Lit(0),
        }
    }

    fn contents(s: &WatchStore, code: usize) -> Vec<u32> {
        s.slice(code).iter().map(|x| x.cref.0).collect()
    }

    #[test]
    fn flat_push_grow_and_order() {
        let mut s = WatchStore::new(true);
        for _ in 0..4 {
            s.add_lit();
        }
        // Interleave pushes so lists relocate around each other.
        for i in 0..20u32 {
            s.push((i % 4) as usize, w(i));
        }
        for code in 0..4 {
            let got = contents(&s, code);
            let want: Vec<u32> = (0..20).filter(|i| (i % 4) as usize == code).collect();
            assert_eq!(got, want, "list {code} lost order");
        }
    }

    #[test]
    fn flat_compact_reclaims_holes_and_preserves_order() {
        let mut s = WatchStore::new(true);
        for _ in 0..3 {
            s.add_lit();
        }
        for i in 0..300u32 {
            s.push((i % 3) as usize, w(i));
        }
        assert!(s.garbage > 0, "relocations must leave holes");
        let before: Vec<Vec<u32>> = (0..3).map(|c| contents(&s, c)).collect();
        s.compact();
        assert_eq!(s.garbage, 0);
        let after: Vec<Vec<u32>> = (0..3).map(|c| contents(&s, c)).collect();
        assert_eq!(before, after);
        // Lists keep working after compaction.
        s.push(1, w(999));
        assert_eq!(*contents(&s, 1).last().unwrap(), 999);
    }

    #[test]
    fn flat_remove_first_preserves_rest() {
        let mut s = WatchStore::new(true);
        s.add_lit();
        for i in [7u32, 8, 9, 8, 10] {
            s.push(0, w(i));
        }
        assert!(s.remove_first(0, ClauseRef(8)));
        assert_eq!(contents(&s, 0), vec![7, 9, 8, 10]);
        assert!(!s.remove_first(0, ClauseRef(42)));
    }

    #[test]
    fn modes_agree_under_mixed_workload() {
        let mut flat = WatchStore::new(true);
        let mut nested = WatchStore::new(false);
        for _ in 0..6 {
            flat.add_lit();
            nested.add_lit();
        }
        let mut x = 0x12345678u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let op = rng() % 4;
            let code = (rng() % 6) as usize;
            match op {
                0 | 1 => {
                    let c = (rng() % 50) as u32;
                    flat.push(code, w(c));
                    nested.push(code, w(c));
                }
                2 => {
                    let c = ClauseRef((rng() % 50) as u32);
                    assert_eq!(flat.remove_first(code, c), nested.remove_first(code, c));
                }
                _ => {
                    if flat.len(code) > 0 {
                        let n = (rng() as usize) % flat.len(code);
                        flat.truncate(code, n);
                        nested.truncate(code, n);
                    }
                }
            }
            if flat.should_compact() {
                flat.compact();
            }
        }
        for code in 0..6 {
            assert_eq!(contents(&flat, code), contents(&nested, code));
        }
    }
}
