//! Heap-size estimators for the memory census.
//!
//! Each per-node holder's `resident_bytes()` adds up what its containers
//! allocate from their lengths, so two runs of one seed report the same
//! bytes. A hash table's capacity is never read: a removal may leave a
//! tombstone where the keyed hasher happened to put the key, and
//! tombstones decide when a table grows, so capacities can differ between
//! runs of one seed. A table is charged instead as if it had grown by
//! insertion to its current length, which is exactly what an insert-only
//! table allocates.
//!
//! A payload that many holders share through one `Arc` or `Rc` is charged
//! to each handle by [`shared`], its bytes divided by the strong count, so
//! the handles together count it once.

use std::mem::size_of;

/// The header (strong and weak counts) in front of an `Arc` or `Rc`
/// payload.
pub const RC_HEADER: u64 = 16;

/// Buckets a `HashMap` allocates once grown by insertion to `len`
/// entries: a power of two at most 7/8 full, at least 4.
fn buckets(len: usize) -> usize {
    match len {
        0 => 0,
        1..=3 => 4,
        4..=7 => 8,
        _ => (len * 8 / 7).next_power_of_two(),
    }
}

/// Heap bytes of a hash table of `len` entries of `entry` bytes each:
/// one slot and one control byte per bucket, plus a trailing group of
/// control bytes.
pub fn table(len: usize, entry: usize) -> u64 {
    match buckets(len) {
        0 => 0,
        b => ((b * entry).next_multiple_of(16) + b + 16) as u64,
    }
}

/// Heap bytes of a `BTreeMap` of `len` entries of `entry` (key plus
/// value) bytes each, charged at about 7 entries per leaf, with one
/// internal node (with its 12 edges) over about 7 leaves. A node holds up
/// to 11 entries, and how full the leaves are depends on how the map was
/// built: for 300k entries of 56 B, random inserts leave about 7 per leaf
/// (24.5 MiB), ascending inserts about 6 (30.8 MiB), and a bulk build
/// (`from_iter`) fills them (about 16.6 MiB).
pub fn btree(len: usize, entry: usize) -> u64 {
    let leaf = 16 + 11 * entry;
    let (leaves, internals) = match len {
        0 => (0, 0),
        1..=11 => (1, 0),
        _ => {
            let leaves = len.div_ceil(7);
            (leaves, leaves.div_ceil(7))
        }
    };
    (leaves * leaf + internals * (leaf + 96)) as u64
}

/// Heap bytes of a `Vec` or `VecDeque` of `capacity` elements of `T`.
pub fn array<T>(capacity: usize) -> u64 {
    (capacity * size_of::<T>()) as u64
}

/// One handle's share of a payload of `bytes` that `handles` strong
/// handles point at.
pub fn shared(bytes: u64, handles: usize) -> u64 {
    bytes / handles.max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_grow_by_powers_of_two_at_seven_eighths() {
        assert_eq!(table(0, 8), 0);
        assert_eq!(table(3, 8), 32 + 4 + 16);
        assert_eq!(table(7, 8), 64 + 8 + 16);
        assert_eq!(table(14, 8), 128 + 16 + 16);
        assert_eq!(table(15, 8), 256 + 32 + 16);
        assert_eq!(table(28, 8), 256 + 32 + 16);
    }

    #[test]
    fn shares_add_up_to_the_payload() {
        assert_eq!(3 * shared(300, 3), 300);
        assert_eq!(shared(300, 0), 300);
        assert_eq!(btree(0, 16), 0);
        assert!(btree(1000, 16) > 1000 * 16);
    }
}
