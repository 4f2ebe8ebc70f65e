//! Grouping machinery for the batch operators: rows numbered by key, in
//! first-occurrence order.
//!
//! String keys are numbered straight from their dictionary codes
//! (`CodeKeys`, `CodeIds`): a row's key is its codes read as one
//! mixed-radix number, and equal keys are equal values, so nothing is
//! hashed or verified. Keys with a column of another type are hashed:
//! [`RowTable`] is a linear-probing table keyed by precomputed 64-bit row
//! hashes; collisions are resolved by a caller-supplied equality closure
//! over the backing columns, so the table itself never touches values.
//! Insertion order assigns dense entry ids (`0, 1, 2, …`), which the
//! operators use directly as group / distinct-row / class identifiers —
//! first-occurrence order falls out for free.
//!
//! [`KeyStore`] accumulates the key columns of inserted rows so later rows
//! (possibly from other batches or the probe side of a binary operator)
//! can be compared against entry ids. [`StreamKeys`] numbers the keys of a
//! stream of batches either way.

use std::sync::Arc;

use tqo_core::columnar::{Column, ColumnData, Dict, Sel};
use tqo_core::schema::Schema;
use tqo_core::trace::counters;
use tqo_core::value::Value;

const EMPTY: u32 = u32::MAX;

/// "No entry" in id vectors.
pub const NONE: u32 = u32::MAX;

/// The key of a row holding a value its keys' dictionaries do not: no
/// entry has it (every key is below the domain, which is at most this).
pub const NO_KEY: u64 = u64::MAX;

/// A translated code's digit when the value is not in the dictionary.
const ABSENT: u32 = u32::MAX;

/// Row keys read off dictionary codes. Each key column gives a digit — 0
/// for NULL, code + 1 otherwise — and a row's key is its digits read as
/// one mixed-radix number, each column's radix its dictionary's size plus
/// one. A dictionary's entries are unique, so equal keys are equal values.
#[derive(Debug, Clone)]
pub(crate) struct CodeKeys {
    dicts: Vec<Arc<Dict>>,
    /// The place value of each column's digit.
    places: Vec<u64>,
    /// The product of the radices: every key is below it.
    domain: u64,
}

impl CodeKeys {
    /// Keys over the dictionaries of `cols`; `None` when one is no string
    /// column or the product of the radices overflows `u64`.
    pub fn of<'a>(cols: impl IntoIterator<Item = &'a Column>) -> Option<CodeKeys> {
        let (mut dicts, mut places, mut domain) = (Vec::new(), Vec::new(), 1u64);
        for col in cols {
            let ColumnData::Str(s) = col.data() else {
                return None;
            };
            places.push(domain);
            domain = domain.checked_mul(s.dict().len() as u64 + 1)?;
            dicts.push(Arc::clone(s.dict()));
        }
        Some(CodeKeys {
            dicts,
            places,
            domain,
        })
    }

    /// The number of distinct keys there can be.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// The key of every row of `sel` over `cols` (parallel to the key
    /// columns), in selection order; [`NO_KEY`] where a value is not in
    /// the keys' dictionary. A column over another dictionary translates
    /// each distinct code it meets once ([`Dict::find_entry`]).
    pub fn keys(&self, cols: &[&Column], sel: &Sel) -> Vec<u64> {
        match sel {
            Sel::Range(s, e) => self.keys_of(cols, *s..*e, Some(*s), e - s),
            Sel::Rows(rows) => {
                self.keys_of(cols, rows.iter().map(|&i| i as usize), None, rows.len())
            }
        }
    }

    /// [`CodeKeys::keys`] of the `n` `rows`, which are `start..start + n`
    /// when `start` is given.
    fn keys_of(
        &self,
        cols: &[&Column],
        rows: impl Iterator<Item = usize> + Clone,
        start: Option<usize>,
        n: usize,
    ) -> Vec<u64> {
        let mut keys = vec![0u64; n];
        let mut absent: Option<Vec<bool>> = None;
        for ((col, dict), &place) in cols.iter().zip(&self.dicts).zip(&self.places) {
            let ColumnData::Str(s) = col.data() else {
                return vec![NO_KEY; n];
            };
            let (codes, nulls) = (s.codes(), col.nulls());
            if Arc::ptr_eq(s.dict(), dict) {
                match (nulls, start) {
                    (None, Some(start)) => {
                        for (k, &code) in keys.iter_mut().zip(&codes[start..start + n]) {
                            *k += (u64::from(code) + 1) * place;
                        }
                    }
                    _ => {
                        for (k, i) in keys.iter_mut().zip(rows.clone()) {
                            let live = !nulls.is_some_and(|nulls| nulls[i]);
                            *k += u64::from(live) * (u64::from(codes[i]) + 1) * place;
                        }
                    }
                }
                continue;
            }
            // Each code's digit here, `0` until it is looked up (a looked
            // up value is never NULL). A dictionary holds fewer than
            // 2³² − 1 entries, so `ABSENT` is no digit.
            let mut digits = vec![0u32; s.dict().len()];
            let absent = absent.get_or_insert_with(|| vec![false; n]);
            for ((k, i), out) in keys.iter_mut().zip(rows.clone()).zip(absent.iter_mut()) {
                if nulls.is_some_and(|nulls| nulls[i]) {
                    continue;
                }
                let digit = &mut digits[codes[i] as usize];
                if *digit == 0 {
                    *digit = dict
                        .find_entry(s.dict(), codes[i])
                        .map_or(ABSENT, |code| code + 1);
                }
                match *digit {
                    ABSENT => *out = true,
                    d => *k += u64::from(d) * place,
                }
            }
        }
        for (k, _) in keys
            .iter_mut()
            .zip(absent.iter().flatten())
            .filter(|(_, &a)| a)
        {
            *k = NO_KEY;
        }
        keys
    }

    /// The key columns' values of `key`.
    fn values(&self, key: u64) -> impl Iterator<Item = Value> + '_ {
        self.dicts
            .iter()
            .zip(&self.places)
            .map(
                move |(dict, &place)| match (key / place) % (dict.len() as u64 + 1) {
                    0 => Value::Null,
                    d => Value::from(dict.entry(d as u32 - 1)),
                },
            )
    }
}

/// Entry ids of `CodeKeys` keys, in insertion order: one slot per key
/// when the domain is small, else a [`RowTable`] of the packed keys, each
/// stored as `code_hash``(key)` — a bijection, so an equal stored hash
/// is the equal key and nothing is verified.
#[derive(Debug)]
pub(crate) enum CodeIds {
    /// `slots[key]` is the key's id + 1, or 0; `len` entries.
    Dense { slots: Vec<u32>, len: u32 },
    /// Sparse keys by their finalized hash.
    Table(RowTable),
}

/// A packed key's slot hash: Fibonacci hashing (the key times 2⁶⁴/φ, an
/// odd number, so a bijection), its high half rotated into the low bits
/// a table indexes by.
#[inline]
fn code_hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32)
}

impl CodeIds {
    /// Ids for keys below `domain`, about `rows` of them: dense slots when
    /// the domain is at most `2 · rows + 1024`.
    pub fn new(domain: u64, rows: usize) -> CodeIds {
        if domain <= 2 * rows as u64 + 1024 {
            CodeIds::Dense {
                slots: vec![0; domain as usize],
                len: 0,
            }
        } else {
            CodeIds::Table(RowTable::with_capacity(rows))
        }
    }

    /// Append the id of each of `keys` (none [`NO_KEY`]) to `ids`,
    /// inserting the new ones; the index of each key that inserted one is
    /// appended to `firsts`, offset by `base`.
    pub fn number(&mut self, keys: &[u64], base: u32, ids: &mut Vec<u32>, firsts: &mut Vec<u32>) {
        match self {
            CodeIds::Dense { slots, len } => {
                for (k, &key) in (base..).zip(keys) {
                    let slot = &mut slots[key as usize];
                    if *slot == 0 {
                        *len += 1;
                        *slot = *len;
                        firsts.push(k);
                    }
                    ids.push(*slot - 1);
                }
            }
            CodeIds::Table(table) => {
                for (k, &key) in (base..).zip(keys) {
                    let (id, new) = table.find_or_insert(code_hash(key), |_| true);
                    if new {
                        firsts.push(k);
                    }
                    ids.push(id);
                }
            }
        }
    }

    /// The id of `key`, if inserted.
    #[inline]
    pub fn find(&self, key: u64) -> Option<u32> {
        match self {
            CodeIds::Dense { slots, .. } => slots.get(key as usize).and_then(|&s| s.checked_sub(1)),
            CodeIds::Table(table) => table.find(code_hash(key), |_| true),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            CodeIds::Dense { len, .. } => *len as usize,
            CodeIds::Table(table) => table.len(),
        }
    }

    /// Approximate footprint in bytes, for memory-budget accounting.
    pub fn approx_bytes(&self) -> usize {
        match self {
            CodeIds::Dense { slots, .. } => slots.len() * 4,
            CodeIds::Table(table) => table.approx_bytes(),
        }
    }
}

/// The distinct keys of a stream of batches over `key_idx`, numbered in
/// first-occurrence order — the state of the streaming `rdup` and `\`.
/// String keys are numbered by their codes in the first batch's
/// dictionaries (`CodeKeys`); a key with another column type, a domain
/// past `u64`, or a later batch holding a value those dictionaries lack
/// is hashed ([`RowTable`] and [`KeyStore`]), the entries so far carried
/// over with their ids.
#[derive(Debug)]
pub struct StreamKeys {
    key_idx: Vec<usize>,
    state: Keyed,
}

#[derive(Debug)]
enum Keyed {
    /// String keys, before the first batch.
    Unset,
    Codes {
        keys: CodeKeys,
        ids: CodeIds,
        /// Every entry's key, by id.
        entries: Vec<u64>,
    },
    Hashed {
        table: RowTable,
        store: KeyStore,
    },
}

impl StreamKeys {
    /// Keys over the `key_idx` columns of a stream of `schema`.
    pub fn new(schema: &Schema, key_idx: Vec<usize>) -> StreamKeys {
        let strings = key_idx
            .iter()
            .all(|&c| schema.attr(c).dtype == tqo_core::value::DataType::Str);
        let state = if strings {
            Keyed::Unset
        } else {
            counters::GROUPINGS_HASHED.incr();
            Keyed::Hashed {
                table: RowTable::default(),
                store: KeyStore::for_keys(schema, &key_idx),
            }
        };
        StreamKeys { key_idx, state }
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        match &self.state {
            Keyed::Unset => 0,
            Keyed::Codes { ids, .. } => ids.len(),
            Keyed::Hashed { table, .. } => table.len(),
        }
    }

    /// True when no key is inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate footprint in bytes, for memory-budget accounting.
    pub fn approx_bytes(&self) -> usize {
        match &self.state {
            Keyed::Unset => 0,
            Keyed::Codes { ids, entries, .. } => ids.approx_bytes() + entries.len() * 8,
            Keyed::Hashed { table, store } => table.approx_bytes() + store.approx_bytes(),
        }
    }

    /// The entry id of every live row of `batch`, in order, inserting the
    /// keys not seen before; the physical ids of the rows that inserted
    /// one are appended to `inserted`, in order.
    pub fn insert(&mut self, batch: &super::Batch, inserted: &mut Vec<u32>) -> Vec<u32> {
        let cols = batch.columns();
        if let Keyed::Unset = self.state {
            let key_cols = self.key_idx.iter().map(|&c| &*cols[c]);
            self.state = match CodeKeys::of(key_cols) {
                Some(keys) => Keyed::Codes {
                    ids: CodeIds::new(keys.domain(), cols[0].len()),
                    keys,
                    entries: Vec::new(),
                },
                None => self.hashed(batch.schema()),
            };
        }
        let key_cols = self.key_cols(batch);
        match &mut self.state {
            Keyed::Unset => unreachable!("set above"),
            Keyed::Codes { keys, ids, entries } => {
                let row_keys = keys.keys(&key_cols, batch.sel());
                if row_keys.contains(&NO_KEY) {
                    self.state = self.hashed(batch.schema());
                    return self.insert(batch, inserted);
                }
                let (mut row_ids, mut firsts) = (Vec::with_capacity(row_keys.len()), Vec::new());
                ids.number(&row_keys, 0, &mut row_ids, &mut firsts);
                let rows: Vec<usize> = match firsts.is_empty() {
                    true => Vec::new(),
                    false => batch.rows().collect(),
                };
                for k in firsts {
                    entries.push(row_keys[k as usize]);
                    inserted.push(rows[k as usize] as u32);
                }
                row_ids
            }
            Keyed::Hashed { table, store } => {
                insert_hashed(table, store, &self.key_idx, batch, inserted)
            }
        }
    }

    /// The entry id of every live row of `batch`, in order, or [`NONE`]
    /// for a key not inserted.
    pub fn find(&self, batch: &super::Batch) -> Vec<u32> {
        let cols = batch.columns();
        match &self.state {
            Keyed::Unset => vec![NONE; batch.num_rows()],
            Keyed::Codes { keys, ids, .. } => keys
                .keys(&self.key_cols(batch), batch.sel())
                .into_iter()
                .map(|key| ids.find(key).unwrap_or(NONE))
                .collect(),
            Keyed::Hashed { table, store } => hash_batch(batch, &self.key_idx)
                .into_iter()
                .zip(batch.rows())
                .map(|(h, i)| {
                    table
                        .find(h, |e| store.eq_row(e, cols, &self.key_idx, i))
                        .unwrap_or(NONE)
                })
                .collect(),
        }
    }

    fn key_cols<'a>(&self, batch: &'a super::Batch) -> Vec<&'a Column> {
        self.key_idx.iter().map(|&c| &**batch.column(c)).collect()
    }

    /// The hashed state holding the entries so far, with their ids.
    fn hashed(&self, schema: &Schema) -> Keyed {
        counters::GROUPINGS_HASHED.incr();
        let mut store = KeyStore::for_keys(schema, &self.key_idx);
        if let Keyed::Codes { keys, entries, .. } = &self.state {
            for &key in entries {
                store.push_values(keys.values(key));
            }
        }
        let mut hashes = vec![0u64; store.len()];
        for col in store.columns() {
            col.hash_range(0, &mut hashes);
        }
        let mut table = RowTable::with_capacity(hashes.len());
        for h in hashes {
            // The entries are distinct keys.
            table.find_or_insert(h, |_| false);
        }
        Keyed::Hashed { table, store }
    }
}

/// [`StreamKeys::insert`] by row hashes, in two phases. Phase 1 resolves
/// each row against the *frozen* table by hash alone and batches the
/// candidates; their keys are then verified column-wise — one dtype
/// dispatch per key column per batch instead of per row. Rows with no
/// hash-equal entry (new keys, intra-batch duplicates of them) and the
/// rare failed candidates (full 64-bit hash collisions) take phase 2: the
/// serial insert-or-find walk, in row order, which is the only phase that
/// mutates the table.
fn insert_hashed(
    table: &mut RowTable,
    store: &mut KeyStore,
    key_idx: &[usize],
    batch: &super::Batch,
    inserted: &mut Vec<u32>,
) -> Vec<u32> {
    let cols = batch.columns();
    let hashes = hash_batch(batch, key_idx);
    let rows: Vec<u32> = batch.rows().map(|i| i as u32).collect();
    let mut ids = vec![NONE; rows.len()];
    let (mut cand, mut cand_rows, mut cand_ids) = (Vec::new(), Vec::new(), Vec::new());
    let mut pending: Vec<usize> = Vec::new();
    for (k, &h) in hashes.iter().enumerate() {
        match table.find_first_hash(h) {
            Some(e) => {
                cand.push(k);
                cand_rows.push(rows[k]);
                cand_ids.push(e);
            }
            None => pending.push(k),
        }
    }
    let mut ok = vec![true; cand.len()];
    for (store_col, &src) in store.columns().iter().zip(key_idx) {
        store_col.eq_pairs(&cand_ids, &cols[src], &cand_rows, &mut ok);
    }
    // Verified candidates are keys of frozen entries. Failed ones rejoin
    // the pending rows, re-sorted into row order (only ever on a genuine
    // 64-bit hash collision).
    let mut failed = false;
    for (j, &k) in cand.iter().enumerate() {
        if ok[j] {
            ids[k] = cand_ids[j];
        } else {
            pending.push(k);
            failed = true;
        }
    }
    if failed {
        pending.sort_unstable();
    }
    for k in pending {
        let i = rows[k] as usize;
        let (id, new) = table.find_or_insert(hashes[k], |e| store.eq_row(e, cols, key_idx, i));
        if new {
            store.push_row(cols, key_idx, i);
            inserted.push(rows[k]);
        }
        ids[k] = id;
    }
    ids
}

/// A linear-probing hash table over externally stored rows.
#[derive(Debug)]
pub struct RowTable {
    slots: Vec<u32>,
    hashes: Vec<u64>,
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
            mask: cap - 1,
        }
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Approximate footprint in bytes (slot array + hashes), for
    /// memory-budget accounting.
    pub fn approx_bytes(&self) -> usize {
        self.slots.len() * 4 + self.hashes.len() * 8
    }

    /// True when no entries have been inserted.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// Find the entry with this hash satisfying `eq`, or insert a new
    /// one. Returns `(entry_id, inserted)`.
    #[inline]
    pub fn find_or_insert(&mut self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> (u32, bool) {
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

    /// Append a key row of values, one per key column.
    pub fn push_values(&mut self, values: impl IntoIterator<Item = Value>) {
        for (store_col, v) in self.columns.iter_mut().zip(values) {
            store_col
                .push(&v)
                .expect("a key value of its column's type");
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
            let (id, inserted) = table.find_or_insert(h, |e| store.eq_row(e, &cols, &keys, row));
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
            let (_, inserted) = table.find_or_insert(h, |e| store.eq_row(e, &cols, &keys, row));
            if inserted {
                store.push_row(&cols, &keys, row);
            }
        }
        assert_eq!(table.len(), 400);
    }
}
