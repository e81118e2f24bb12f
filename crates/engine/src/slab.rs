//! Dense key interning and epoch-stamped slot occupancy.
//!
//! The pane layer keys per-instance accumulators by a dense *slot id*
//! instead of the raw `u32` grouping key: a plan-wide [`KeyInterner`]
//! (one per pipeline core, hence one per shard) assigns each distinct
//! raw key a slot exactly once per batch at ingress, and every
//! downstream fold, combine, and seal indexes contiguous slabs by slot —
//! zero hash probes on the steady-state path. The interner's slot→key
//! table recovers the raw key wherever results or checkpoints need it,
//! so everything outside a core (sealed results, FWC1 snapshots, state
//! migration) stays key-addressed and parallelism-neutral.
//!
//! `Occupancy` is the per-instance live-slot set behind every pane's
//! slot-indexed accumulator columns: an epoch-stamp sparse set. Clearing
//! a pane is O(1) (bump the epoch), and iteration walks only the slots
//! touched this epoch in first-touch order — a pane with 20 live keys
//! costs 20 slots of work even when the interner has seen 256k keys. An
//! occupancy *bitmap* would tie both costs to interner capacity instead;
//! the epoch stamp is what keeps sparse instances cheap.

/// Sentinel for an empty interner table bucket. Safe because a packed
/// entry is `key << 32 | slot` and slot counts stay below `u32::MAX`.
const EMPTY: u64 = u64::MAX;

/// Minimum table capacity (power of two), sized so small key spaces
/// never probe-collide in practice.
const MIN_TABLE: usize = 16;

/// Maps raw `u32` grouping keys to dense slot ids, with the inverse
/// slot→key table.
///
/// Open addressing with linear probing over packed `key << 32 | slot`
/// entries; capacity is a power of two kept at most half full, and the
/// hash is a Fibonacci multiply — the same mixer family as
/// [`crate::fasthash`], but paid **once per distinct key per batch** at
/// ingress instead of once per key sub-run per operator per instance.
#[derive(Debug, Clone, Default)]
pub struct KeyInterner {
    /// Packed open-addressing table; `EMPTY` marks vacant buckets.
    table: Vec<u64>,
    /// Slot → raw key (the inverse mapping; index is the slot id).
    keys: Vec<u32>,
}

impl KeyInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        KeyInterner::default()
    }

    #[inline]
    fn bucket(key: u32, mask: usize) -> usize {
        // Fibonacci multiply on the key, folded to the table size.
        let h = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) & mask
    }

    /// Returns the slot for `key`, assigning the next dense slot on
    /// first sight.
    #[inline]
    pub fn intern(&mut self, key: u32) -> u32 {
        if self.table.is_empty() {
            self.grow();
        }
        let mask = self.table.len() - 1;
        let mut i = Self::bucket(key, mask);
        loop {
            let entry = self.table[i];
            if entry == EMPTY {
                let slot = self.keys.len() as u32;
                self.keys.push(key);
                self.table[i] = (u64::from(key) << 32) | u64::from(slot);
                if self.keys.len() * 2 > self.table.len() {
                    self.grow();
                }
                return slot;
            }
            if (entry >> 32) as u32 == key {
                return entry as u32;
            }
            i = (i + 1) & mask;
        }
    }

    /// Returns the slot for `key` if it has been interned.
    #[inline]
    #[must_use]
    pub fn lookup(&self, key: u32) -> Option<u32> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = Self::bucket(key, mask);
        loop {
            let entry = self.table[i];
            if entry == EMPTY {
                return None;
            }
            if (entry >> 32) as u32 == key {
                return Some(entry as u32);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = (self.table.len() * 2).max(MIN_TABLE);
        let mut table = vec![EMPTY; cap];
        let mask = cap - 1;
        for (slot, &key) in self.keys.iter().enumerate() {
            let mut i = Self::bucket(key, mask);
            while table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            table[i] = (u64::from(key) << 32) | slot as u64;
        }
        self.table = table;
    }

    /// Number of distinct keys interned (== the dense slot count).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys have been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The slot→key table: `keys()[slot]` is the raw key of `slot`.
    #[inline]
    #[must_use]
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Heap bytes held by the interner (table + slot→key table).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<u64>()
            + self.keys.capacity() * std::mem::size_of::<u32>()
    }

    /// Discards every interned key and frees the tables. Slot ids issued
    /// before a clear are invalid afterwards, so callers may only clear
    /// at points where no slab holds live slot-indexed state (see
    /// `PipelineCore` compaction in `crate::executor`).
    pub fn clear(&mut self) {
        self.table = Vec::new();
        self.keys = Vec::new();
    }
}

/// Epoch-stamped sparse-set occupancy over dense slots: which slots of a
/// per-instance pane are live this epoch.
///
/// Occupancy is an epoch stamp per slot plus a `touched` list of the
/// slots occupied this epoch. [`Occupancy::clear`] bumps the epoch and
/// truncates `touched` in O(1); the pane's accumulator columns are
/// re-initialized lazily, the first time [`Occupancy::occupy`] reports a
/// slot fresh. Iteration yields live slots in first-touch order — callers
/// that need canonical order sort by the raw key recovered through the
/// interner's slot→key table.
#[derive(Debug, Clone)]
pub(crate) struct Occupancy {
    /// `stamp[slot] == epoch` marks the slot live this epoch.
    stamp: Vec<u32>,
    /// Current epoch; starts at 1 so a zeroed stamp reads vacant.
    epoch: u32,
    /// Slots occupied this epoch, in first-touch order.
    touched: Vec<u32>,
}

impl Default for Occupancy {
    fn default() -> Self {
        Occupancy {
            stamp: Vec::new(),
            epoch: 1,
            touched: Vec::new(),
        }
    }
}

impl Occupancy {
    /// Number of slots occupied this epoch.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no slot is occupied this epoch.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The occupied slots in first-touch order.
    #[inline]
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Number of slots the stamp table covers.
    #[inline]
    pub(crate) fn capacity(&self) -> usize {
        self.stamp.len()
    }

    /// Extends the stamp table to cover `n` slots (new slots read vacant).
    pub(crate) fn grow(&mut self, n: usize) {
        if n > self.stamp.len() {
            self.stamp.resize(n, 0);
        }
    }

    /// Marks `slot` (which must be below [`Self::capacity`]) occupied;
    /// returns `true` on its first touch this epoch, when the caller must
    /// re-initialize the slot's accumulators. A repeated slot costs one
    /// stamp compare.
    #[inline]
    pub(crate) fn occupy(&mut self, slot: u32) -> bool {
        let stamp = &mut self.stamp[slot as usize];
        if *stamp == self.epoch {
            return false;
        }
        *stamp = self.epoch;
        self.touched.push(slot);
        true
    }

    /// Empties the set in O(1) by bumping the epoch.
    pub(crate) fn clear(&mut self) {
        self.touched.clear();
        if self.epoch == u32::MAX {
            // Epoch wrap: every stamp could collide with a future epoch,
            // so reset them all once per ~4 billion clears.
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_assigns_dense_slots_in_first_seen_order() {
        let mut it = KeyInterner::new();
        assert_eq!(it.intern(42), 0);
        assert_eq!(it.intern(7), 1);
        assert_eq!(it.intern(42), 0);
        assert_eq!(it.intern(u32::MAX), 2);
        assert_eq!(it.keys(), &[42, 7, u32::MAX]);
        assert_eq!(it.lookup(7), Some(1));
        assert_eq!(it.lookup(8), None);
        assert!(it.bytes() > 0);
    }

    #[test]
    fn interner_survives_growth_and_clear() {
        let mut it = KeyInterner::new();
        for k in 0..10_000u32 {
            assert_eq!(it.intern(k * 7919), k);
        }
        for k in 0..10_000u32 {
            assert_eq!(it.lookup(k * 7919), Some(k), "key {}", k * 7919);
        }
        it.clear();
        assert!(it.is_empty());
        assert_eq!(it.intern(3), 0);
    }

    #[test]
    fn slab_touch_iterate_clear() {
        let mut occ = Occupancy::default();
        occ.grow(8);
        assert!(occ.occupy(5));
        assert!(occ.occupy(2));
        assert!(!occ.occupy(5));
        assert_eq!(occ.len(), 2);
        assert_eq!(occ.touched(), &[5, 2]);
        occ.clear();
        assert!(occ.is_empty());
        // Reuse after clear reports the slot fresh again.
        assert!(occ.occupy(5));
        assert_eq!(occ.touched(), &[5]);
    }

    #[test]
    fn slab_insert_overwrites_and_occupies() {
        // Growing keeps live slots live and new slots vacant; re-occupying
        // a live slot neither duplicates it nor reports it fresh.
        let mut occ = Occupancy::default();
        occ.grow(4);
        assert!(occ.occupy(3));
        occ.grow(16);
        assert_eq!(occ.capacity(), 16);
        assert!(!occ.occupy(3));
        assert_eq!(occ.touched(), &[3]);
        assert!(occ.occupy(9));
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let mut occ = Occupancy::default();
        occ.grow(1);
        assert!(occ.occupy(0));
        occ.epoch = u32::MAX; // simulate ~4B clears
        occ.stamp[0] = u32::MAX;
        occ.clear();
        assert_eq!(occ.epoch, 1);
        assert_eq!(occ.stamp[0], 0);
        assert!(occ.occupy(0));
        assert!(!occ.occupy(0));
    }
}
