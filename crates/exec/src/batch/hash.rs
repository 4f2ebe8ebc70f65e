//! Row-oriented hash machinery for the batch operators.
//!
//! [`RowTable`] is a linear-probing table keyed by precomputed 64-bit row
//! hashes; collisions are resolved by a caller-supplied equality closure
//! over the backing columns, so the table itself never touches values.
//! Insertion order assigns dense entry ids (`0, 1, 2, …`), which the
//! operators use directly as group / distinct-row / class identifiers —
//! first-occurrence order falls out for free.
//!
//! [`KeyStore`] accumulates the key columns of inserted rows so later rows
//! (possibly from other batches or the probe side of a binary operator)
//! can be compared against entry ids.

use std::sync::Arc;

use tqo_core::columnar::Column;
use tqo_core::schema::Schema;

const EMPTY: u32 = u32::MAX;

/// A linear-probing hash table over externally stored rows.
#[derive(Debug)]
pub struct RowTable {
    slots: Vec<u32>,
    hashes: Vec<u64>,
    payloads: Vec<i64>,
    mask: usize,
}

impl Default for RowTable {
    fn default() -> Self {
        RowTable::with_capacity(16)
    }
}

impl RowTable {
    /// A table sized for about `n` entries.
    pub fn with_capacity(n: usize) -> RowTable {
        let cap = (n * 8 / 7 + 1).next_power_of_two().max(16);
        RowTable {
            slots: vec![EMPTY; cap],
            hashes: Vec::with_capacity(n),
            payloads: Vec::with_capacity(n),
            mask: cap - 1,
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Approximate footprint in bytes (slot array + hashes + payloads),
    /// for memory-budget accounting.
    pub fn approx_bytes(&self) -> usize {
        self.slots.len() * 4 + self.hashes.len() * 8 + self.payloads.len() * 8
    }

    /// True when no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Find the entry with this hash satisfying `eq`, or insert a new one
    /// with `payload`. Returns `(entry_id, inserted)`.
    #[inline]
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        mut eq: impl FnMut(u32) -> bool,
        payload: i64,
    ) -> (u32, bool) {
        if (self.hashes.len() + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mut i = hash as usize & self.mask;
        loop {
            let e = self.slots[i];
            if e == EMPTY {
                let id = self.hashes.len() as u32;
                self.slots[i] = id;
                self.hashes.push(hash);
                self.payloads.push(payload);
                return (id, true);
            }
            if self.hashes[e as usize] == hash && eq(e) {
                return (e, false);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// First entry in `hash`'s probe chain with an equal stored hash,
    /// without key verification — the cheap candidate step of a batched
    /// probe. The caller must verify the candidate's key itself (and fall
    /// back to [`RowTable::find`]/[`RowTable::find_or_insert`] on
    /// mismatch: distinct keys can collide on the full 64-bit hash, and a
    /// later chain entry may then hold the real match).
    #[inline]
    pub fn find_first_hash(&self, hash: u64) -> Option<u32> {
        let mut i = hash as usize & self.mask;
        loop {
            let e = self.slots[i];
            if e == EMPTY {
                return None;
            }
            if self.hashes[e as usize] == hash {
                return Some(e);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Find an existing entry without inserting.
    #[inline]
    pub fn find(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = hash as usize & self.mask;
        loop {
            let e = self.slots[i];
            if e == EMPTY {
                return None;
            }
            if self.hashes[e as usize] == hash && eq(e) {
                return Some(e);
            }
            i = (i + 1) & self.mask;
        }
    }

    #[inline]
    /// The payload of entry `id`.
    pub fn payload(&self, id: u32) -> i64 {
        self.payloads[id as usize]
    }

    #[inline]
    /// Mutable payload of entry `id`.
    pub fn payload_mut(&mut self, id: u32) -> &mut i64 {
        &mut self.payloads[id as usize]
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        self.mask = cap - 1;
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        for (id, h) in self.hashes.iter().enumerate() {
            let mut i = *h as usize & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = id as u32;
        }
    }
}

/// Densely stored key rows, one column per key attribute, appended in
/// entry-id order so `store row id == RowTable entry id`.
#[derive(Debug)]
pub struct KeyStore {
    columns: Vec<Column>,
    /// Incrementally tracked payload bytes of the stored rows, so
    /// [`KeyStore::approx_bytes`] is `O(1)` per call instead of
    /// rescanning every stored string — streaming operators recharge
    /// their budget per batch, and an `O(entries)` recount per batch
    /// turns the whole build quadratic.
    bytes: usize,
}

impl KeyStore {
    /// A store for the given key attributes of `schema`.
    pub fn for_keys(schema: &Schema, key_idx: &[usize]) -> KeyStore {
        KeyStore {
            columns: key_idx
                .iter()
                .map(|&i| Column::with_capacity(schema.attr(i).dtype, 64))
                .collect(),
            bytes: 0,
        }
    }

    /// Number of stored key rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Approximate footprint in bytes of the stored key columns, for
    /// memory-budget accounting. Payload bytes are tracked incrementally
    /// at push time; only the (cheap, per-column) null-mask lengths are
    /// summed here.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
            + self
                .columns
                .iter()
                .map(|c| if c.has_nulls() { c.len() } else { 0 })
                .sum::<usize>()
    }

    /// True when no key rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored key columns, parallel to the build key layout.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The `k`-th stored key column.
    pub fn column(&self, k: usize) -> &Column {
        &self.columns[k]
    }

    /// Append physical row `row` of the given source columns (`key_idx`
    /// selects the key columns, parallel to this store's layout).
    pub fn push_row(&mut self, cols: &[Arc<Column>], key_idx: &[usize], row: usize) {
        for (store_col, &src) in self.columns.iter_mut().zip(key_idx) {
            store_col.push_from(&cols[src], row);
            self.bytes += store_col.approx_bytes_at(store_col.len() - 1);
        }
    }

    /// Compare stored row `id` against physical row `row` of `cols`.
    #[inline]
    pub fn eq_row(&self, id: u32, cols: &[Arc<Column>], key_idx: &[usize], row: usize) -> bool {
        self.columns
            .iter()
            .zip(key_idx)
            .all(|(store_col, &src)| store_col.eq_at(id as usize, &cols[src], row))
    }
}

/// Key-space partition of a row hash. The high half of the hash drives
/// partition choice while probe tables index slots with the low bits, so
/// partition and slot choice stay decorrelated. `nparts` is a power of
/// two, so the modulus is a mask, not a division per row.
#[inline]
pub(super) fn part_of(hash: u64, nparts: usize) -> usize {
    debug_assert!(nparts.is_power_of_two());
    ((hash >> 32) & (nparts as u64 - 1)) as usize
}

/// Two-pass (histogram, scatter) radix partitioning of row ids by hash
/// partition. Returns `(offsets, ids)` where partition `p`'s rows are
/// `ids[offsets[p] as usize..offsets[p + 1] as usize]`. The scatter is
/// stable, so each partition's ids stay ascending — the property that
/// makes a per-partition build equivalent to a serial first-occurrence
/// scan restricted to that partition.
pub(super) fn radix_scatter(hashes: &[u64], nparts: usize) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; nparts + 1];
    for &h in hashes {
        counts[part_of(h, nparts) + 1] += 1;
    }
    for p in 0..nparts {
        counts[p + 1] += counts[p];
    }
    let offsets = counts.clone();
    let mut cursor = counts;
    let mut ids = vec![0u32; hashes.len()];
    for (row, &h) in hashes.iter().enumerate() {
        let p = part_of(h, nparts);
        ids[cursor[p] as usize] = row as u32;
        cursor[p] += 1;
    }
    (offsets, ids)
}

/// Hash a whole batch's live rows over the key columns, column-at-a-time
/// (one dtype dispatch per column per batch instead of per row). Output
/// is in logical row order, parallel to `batch.rows()`.
pub fn hash_batch(batch: &super::Batch, key_idx: &[usize]) -> Vec<u64> {
    let mut hashes = vec![0u64; batch.num_rows()];
    for &src in key_idx {
        let col = batch.column(src);
        match batch.sel() {
            super::Sel::Range(s, _) => col.hash_range(*s, &mut hashes),
            super::Sel::Rows(rows) => col.hash_idx(rows, &mut hashes),
        }
    }
    hashes
}

/// Hash all rows of a columnar relation over the key columns.
pub fn hash_all(cols: &[Arc<Column>], key_idx: &[usize], rows: usize) -> Vec<u64> {
    let mut hashes = vec![0u64; rows];
    for &src in key_idx {
        cols[src].hash_range(0, &mut hashes);
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::columnar::ColumnarRelation;
    use tqo_core::relation::Relation;
    use tqo_core::tuple;
    use tqo_core::value::DataType;

    #[test]
    fn distinct_rows_get_dense_first_occurrence_ids() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]),
            vec![
                tuple![1i64, "x"],
                tuple![2i64, "y"],
                tuple![1i64, "x"],
                tuple![1i64, "y"],
            ],
        )
        .unwrap();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        let cols = c.columns().to_vec();
        let keys = [0usize, 1usize];
        let mut table = RowTable::default();
        let mut store = KeyStore::for_keys(c.schema(), &keys);
        let mut ids = Vec::new();
        for (row, &h) in hash_all(&cols, &keys, c.rows()).iter().enumerate() {
            let (id, inserted) = table.find_or_insert(h, |e| store.eq_row(e, &cols, &keys, row), 0);
            if inserted {
                store.push_row(&cols, &keys, row);
            }
            ids.push(id);
        }
        assert_eq!(ids, vec![0, 1, 0, 2]);
        assert_eq!(table.len(), 3);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn growth_preserves_entries() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int)]),
            (0..1000i64).map(|i| tuple![i % 400]).collect(),
        )
        .unwrap();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        let cols = c.columns().to_vec();
        let keys = [0usize];
        let mut table = RowTable::default();
        let mut store = KeyStore::for_keys(c.schema(), &keys);
        for (row, &h) in hash_all(&cols, &keys, c.rows()).iter().enumerate() {
            let (_, inserted) = table.find_or_insert(h, |e| store.eq_row(e, &cols, &keys, row), 1);
            if inserted {
                store.push_row(&cols, &keys, row);
            }
        }
        assert_eq!(table.len(), 400);
    }

    #[test]
    fn payloads_are_mutable() {
        let mut table = RowTable::default();
        let (id, inserted) = table.find_or_insert(42, |_| true, 5);
        assert!(inserted);
        *table.payload_mut(id) -= 2;
        assert_eq!(table.payload(id), 3);
        let (id2, inserted2) = table.find_or_insert(42, |_| true, 0);
        assert!(!inserted2);
        assert_eq!(id2, id);
    }
}
