//! Columnar relation storage: one typed vector per attribute.
//!
//! The row layout ([`crate::relation::Relation`]) stores every tuple as its
//! own `Vec<Value>`; each value is a 24-byte tagged enum and every operator
//! touch costs an allocation or an enum dispatch. This module provides the
//! column-major counterpart the batch execution engine in `tqo-exec` runs
//! on: attribute values are unboxed into native vectors (`T1`/`T2` become
//! plain `i64` columns), nulls live in an optional side mask, and a
//! string column is one `u32` code per row into a shared dictionary of
//! unique entries ([`Strings`], [`Dict`]): copying and gathering strings
//! copy codes, value equality within one dictionary compares codes, hashes
//! are read from the entry, and a sorted dictionary's codes order the
//! values exactly (the integer-code execution of Abadi, Madden and
//! Ferreira over order-preserving dictionaries).
//!
//! Row-level semantics (hashing, equality, ordering) exactly mirror
//! [`Value`]'s: within a column the declared [`DataType`] fixes the variant
//! (with `Int`/`Time` interchangeable, both stored as `i64`), so native
//! comparisons agree with `Value::cmp` and native equality with
//! `Value::eq`. Converting a `Relation` to columns and back yields a
//! relation equal (`==`) to the original.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// The unboxed payload of one column.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Booleans.
    Bool(Vec<bool>),
    /// Strings, as codes into a shared dictionary.
    Str(Strings),
    /// Instants, stored as raw `i64`.
    Time(Vec<i64>),
}

/// One attribute's values, with an optional null mask (`None` = no nulls).
/// Null slots hold the dtype's default in the data vector.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: Option<Vec<bool>>,
}

/// 64-bit value finalizer (splitmix64's: two multiplies, three
/// xor-shifts), so every input bit reaches every output bit. Batch hash
/// tables index slots by the low bits (`hash & mask`), and a short string's
/// distinguishing bytes sit high in its word; one multiply never moves them
/// down. Equality is always verified against the stored row, so hash
/// quality costs comparisons and probes, never correctness.
#[inline]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine a finalized value hash into a row hash.
#[inline]
pub fn hash_combine(h: u64, k: u64) -> u64 {
    h.rotate_left(26) ^ k
}

/// What one string costs the row layout beyond its bytes: the `Arc<str>`
/// handle a `Value::Str` holds.
const STR_HANDLE_BYTES: usize = std::mem::size_of::<Arc<str>>();

const NULL_HASH: u64 = 0x9ae1_6a3b_2f90_404f;

#[inline]
fn hash_str(bytes: &[u8]) -> u64 {
    // Eight bytes at a time (fx-style), length folded in so prefixes of
    // padded chunks don't collide trivially.
    // The tail is read as if zero-padded to eight bytes, assembled in a
    // register rather than copied through a buffer.
    let mut h = 0x517c_c1b7_2722_0a95_u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("an eight-byte chunk"));
        h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let word = tail.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
        h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// "No code" in a dictionary's probe table.
const NO_CODE: u32 = u32::MAX;

/// A string column's dictionary: each distinct value ("entry") stored once,
/// with its finalized hash (what [`Column::hash_at`] returns for it), its
/// byte length and, built on first use, the `Arc<str>` every row-layout
/// value of it shares. Entries are unique, so within one dictionary equal
/// codes are equal values; `sorted` records that the entries are strictly
/// ascending, so code order is also value order (UTF-8 byte order is `str`
/// order). Columns share a dictionary through an `Arc`: a gather, copy or
/// filter copies codes, never strings.
#[derive(Debug, Clone)]
pub struct Dict {
    bytes: Vec<u8>,
    /// Entry `c` is `bytes[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    hashes: Vec<u64>,
    shared: Vec<OnceLock<Arc<str>>>,
    sorted: bool,
    /// Open-addressing table of codes by hash, for interning; built by the
    /// first lookup and kept current by appends.
    index: OnceLock<Vec<u32>>,
}

/// The finalized hash of a string value.
#[inline]
fn entry_hash(bytes: &[u8]) -> u64 {
    mix64(hash_str(bytes))
}

/// Enter `code` into a probe table with room for it.
fn index_insert(slots: &mut [u32], hash: u64, code: u32) {
    let mask = slots.len() - 1;
    let mut s = hash as usize & mask;
    while slots[s] != NO_CODE {
        s = (s + 1) & mask;
    }
    slots[s] = code;
}

impl Dict {
    fn new() -> Dict {
        Dict {
            bytes: Vec::new(),
            offsets: vec![0],
            hashes: Vec::new(),
            shared: Vec::new(),
            sorted: true,
            index: OnceLock::new(),
        }
    }

    /// A dictionary of `entries`, which must be strictly ascending.
    pub fn from_ascending<'a>(entries: impl IntoIterator<Item = &'a str>) -> Dict {
        let mut dict = Dict::new();
        for e in entries {
            dict.append(e.as_bytes(), entry_hash(e.as_bytes()));
        }
        debug_assert!(dict.sorted, "entries must be strictly ascending");
        dict
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True when the dictionary holds no entry.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// True when the entries are strictly ascending (code order is value
    /// order).
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// The bytes of entry `code`.
    #[inline]
    pub fn bytes(&self, code: u32) -> &[u8] {
        let c = code as usize;
        &self.bytes[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Entry `code` as a string.
    pub fn entry(&self, code: u32) -> &str {
        std::str::from_utf8(self.bytes(code)).expect("a dictionary holds UTF-8 entries")
    }

    #[inline]
    fn len_of(&self, code: u32) -> usize {
        let c = code as usize;
        self.offsets[c + 1] - self.offsets[c]
    }

    #[inline]
    fn hash(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// The one `Arc<str>` of entry `code`, built on first use.
    pub(crate) fn shared(&self, code: u32) -> Arc<str> {
        Arc::clone(self.shared[code as usize].get_or_init(|| Arc::from(self.entry(code))))
    }

    /// The code here of entry `code` of `other`, if this dictionary holds
    /// its value: one probe of the interning table by the entry's cached
    /// hash, so translating another dictionary's codes rehashes nothing.
    pub fn find_entry(&self, other: &Dict, code: u32) -> Option<u32> {
        self.find(other.bytes(code), other.hash(code))
    }

    /// The code of the entry with these bytes (and this hash), if any.
    fn find(&self, bytes: &[u8], hash: u64) -> Option<u32> {
        let slots = self.index.get_or_init(|| {
            let mut slots = vec![NO_CODE; (2 * self.len() + 2).next_power_of_two()];
            for (c, &h) in self.hashes.iter().enumerate() {
                index_insert(&mut slots, h, c as u32);
            }
            slots
        });
        let mask = slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            match slots[s] {
                NO_CODE => return None,
                c if self.hashes[c as usize] == hash && self.bytes(c) == bytes => return Some(c),
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// Append a new entry (not already present) and return its code.
    fn append(&mut self, bytes: &[u8], hash: u64) -> u32 {
        let code = u32::try_from(self.len())
            .ok()
            .filter(|&c| c != NO_CODE)
            .expect("a dictionary holds fewer than 2^32 - 1 entries");
        if let Some(last) = code.checked_sub(1) {
            self.sorted &= self.bytes(last) < bytes;
        }
        self.bytes.extend_from_slice(bytes);
        self.offsets.push(self.bytes.len());
        self.hashes.push(hash);
        self.shared.push(OnceLock::new());
        if let Some(slots) = self.index.get_mut() {
            if slots.len() < 2 * self.hashes.len() {
                // Rebuilt at twice the size by the next lookup.
                self.index = OnceLock::new();
            } else {
                index_insert(slots, hash, code);
            }
        }
        code
    }
}

/// A string column's payload: one `u32` code per row into a [`Dict`]
/// shared with every column gathered or copied from it. Values compare and
/// hash on codes within one dictionary, and on cached hashes then bytes
/// across two; row-layout values clone the entry's one `Arc<str>`.
#[derive(Debug, Clone)]
pub struct Strings {
    dict: Arc<Dict>,
    codes: Vec<u32>,
    /// Σ entry length over the rows: the bytes the row layout would hold.
    bytes: usize,
}

impl Strings {
    /// An empty payload, over a new dictionary, with room for `rows` values.
    pub fn with_capacity(rows: usize) -> Strings {
        Strings {
            dict: Arc::new(Dict::new()),
            codes: Vec::with_capacity(rows),
            bytes: 0,
        }
    }

    /// A payload of `codes` into `dict`; a code past its entries panics.
    pub fn new(dict: Arc<Dict>, codes: Vec<u32>) -> Strings {
        let mut strings = Strings {
            dict,
            codes,
            bytes: 0,
        };
        strings.bytes = strings.bytes_of(&strings.codes);
        strings
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the payload holds no values.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The dictionary the codes index.
    pub fn dict(&self) -> &Arc<Dict> {
        &self.dict
    }

    /// One code per row.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The bytes of value `i`.
    #[inline]
    pub fn bytes_at(&self, i: usize) -> &[u8] {
        self.dict.bytes(self.codes[i])
    }

    /// Value `i` as a string.
    pub fn str_at(&self, i: usize) -> &str {
        self.dict.entry(self.codes[i])
    }

    /// The summed length of all values.
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }

    /// Append a value.
    pub fn push(&mut self, s: &str) {
        let code = self.intern(s.as_bytes(), entry_hash(s.as_bytes()));
        self.push_code(code);
    }

    #[inline]
    fn push_code(&mut self, code: u32) {
        self.bytes += self.dict.len_of(code);
        self.codes.push(code);
    }

    /// The code of a value in this dictionary, appending it if new. Only
    /// an append copies a dictionary that other columns share.
    fn intern(&mut self, bytes: &[u8], hash: u64) -> u32 {
        match self.dict.find(bytes, hash) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.dict).append(bytes, hash),
        }
    }

    /// Whether `other`'s codes are codes here, adopting its dictionary
    /// while this one is empty (so an output column shares its input's).
    fn shares(&mut self, other: &Strings) -> bool {
        if self.dict.is_empty() {
            self.dict = Arc::clone(&other.dict);
        }
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// Σ entry length over `codes`.
    fn bytes_of(&self, codes: &[u32]) -> usize {
        codes.iter().map(|&c| self.dict.len_of(c)).sum()
    }

    /// Append values `start..end` of `other`: one copy of their codes when
    /// the dictionary is shared, whose byte count is read off the shorter
    /// of the range and the rest of `other`.
    fn extend_range(&mut self, other: &Strings, start: usize, end: usize) {
        if !self.shares(other) {
            return self.translate(other, start..end);
        }
        let range = &other.codes[start..end];
        self.bytes += if 2 * range.len() <= other.len() {
            other.bytes_of(range)
        } else {
            other.bytes
                - other.bytes_of(&other.codes[..start])
                - other.bytes_of(&other.codes[end..])
        };
        self.codes.extend_from_slice(range);
    }

    /// Append the values of `other` at `idx`.
    fn extend_idx(&mut self, other: &Strings, idx: &[u32]) {
        if !self.shares(other) {
            return self.translate(other, idx.iter().map(|&i| i as usize));
        }
        let at = self.codes.len();
        self.codes
            .extend(idx.iter().map(|&i| other.codes[i as usize]));
        self.bytes += self.bytes_of(&self.codes[at..]);
    }

    /// Append the values of `other` at `rows`, another dictionary's:
    /// each value interned once per run of equal codes.
    fn translate(&mut self, other: &Strings, rows: impl ExactSizeIterator<Item = usize>) {
        self.codes.reserve(rows.len());
        let mut last: Option<(u32, u32)> = None;
        for i in rows {
            let theirs = other.codes[i];
            let code = match last {
                Some((t, mine)) if t == theirs => mine,
                _ => {
                    let mine = self.intern(other.dict.bytes(theirs), other.dict.hash(theirs));
                    last = Some((theirs, mine));
                    mine
                }
            };
            self.push_code(code);
        }
    }

    /// The values at `idx`, over this payload's dictionary.
    fn gather(&self, idx: &[u32]) -> Strings {
        let codes: Vec<u32> = idx.iter().map(|&i| self.codes[i as usize]).collect();
        Strings {
            bytes: self.bytes_of(&codes),
            dict: Arc::clone(&self.dict),
            codes,
        }
    }

    /// The entries the rows use, ascending by value, and each row's code
    /// among them. `O(rows + entries used)` when the dictionary is within
    /// a small multiple of the rows; sorts the codes otherwise, so a few
    /// rows of a large dictionary never cost a pass over it.
    pub fn used_ascending(&self) -> (Vec<u32>, Vec<u32>) {
        let dict = &self.dict;
        let by_value = |used: &mut Vec<u32>| {
            if !dict.sorted {
                used.sort_unstable_by(|&a, &b| dict.bytes(a).cmp(dict.bytes(b)));
            }
        };
        if dict.len() <= 2 * self.codes.len() + 64 {
            let mut rank = vec![NO_CODE; dict.len()];
            for &c in &self.codes {
                rank[c as usize] = 0;
            }
            let mut used: Vec<u32> = (0..dict.len() as u32)
                .filter(|&c| rank[c as usize] == 0)
                .collect();
            by_value(&mut used);
            for (r, &c) in used.iter().enumerate() {
                rank[c as usize] = r as u32;
            }
            let codes = self.codes.iter().map(|&c| rank[c as usize]).collect();
            return (used, codes);
        }
        let mut used = self.codes.clone();
        used.sort_unstable();
        used.dedup();
        by_value(&mut used);
        let rank: std::collections::HashMap<u32, u32> = used
            .iter()
            .enumerate()
            .map(|(r, &c)| (c, r as u32))
            .collect();
        let codes = self.codes.iter().map(|c| rank[c]).collect();
        (used, codes)
    }

    /// The same values over a sorted dictionary: this payload when its
    /// dictionary already is, else one of only the entries the rows use.
    pub fn sorted(&self) -> Strings {
        if self.dict.sorted {
            return self.clone();
        }
        let (used, codes) = self.used_ascending();
        let dict = Dict::from_ascending(used.iter().map(|&c| self.dict.entry(c)));
        Strings {
            dict: Arc::new(dict),
            codes,
            bytes: self.bytes,
        }
    }

    /// Value equality: codes within one dictionary, cached hashes and
    /// then bytes across two.
    #[inline]
    fn eq_at(&self, i: usize, other: &Strings, j: usize) -> bool {
        let (a, b) = (self.codes[i], other.codes[j]);
        if Arc::ptr_eq(&self.dict, &other.dict) {
            a == b
        } else {
            self.dict.hash(a) == other.dict.hash(b) && self.dict.bytes(a) == other.dict.bytes(b)
        }
    }

    /// Value order: codes within one sorted dictionary, bytes otherwise.
    #[inline]
    fn cmp_at(&self, i: usize, other: &Strings, j: usize) -> Ordering {
        let (a, b) = (self.codes[i], other.codes[j]);
        if Arc::ptr_eq(&self.dict, &other.dict) && (a == b || self.dict.sorted) {
            a.cmp(&b)
        } else {
            self.dict.bytes(a).cmp(other.dict.bytes(b))
        }
    }

    /// A literal as a key that [`Strings::rank_at`] orders against like
    /// the values themselves: `2·code + 1` for an entry, `2·insertion
    /// point` otherwise, found by binary search in a sorted dictionary.
    /// An unsorted one answers only for an `equality` test, by lookup
    /// (`0`, which no row's key equals, when the literal is no entry).
    pub(crate) fn literal_rank(&self, lit: &[u8], equality: bool) -> Option<u64> {
        let dict = &self.dict;
        if !dict.sorted {
            return equality.then(|| {
                dict.find(lit, entry_hash(lit))
                    .map_or(0, |c| 2 * u64::from(c) + 1)
            });
        }
        let (mut lo, mut hi) = (0, dict.len() as u32);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if dict.bytes(mid) < lit {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let found = (lo as usize) < dict.len() && dict.bytes(lo) == lit;
        Some(2 * u64::from(lo) + u64::from(found))
    }

    /// Row `i`'s ordering key against [`Strings::literal_rank`].
    #[inline]
    pub(crate) fn rank_at(&self, i: usize) -> u64 {
        2 * u64::from(self.codes[i]) + 1
    }
}

impl Column {
    /// An empty column of the given type with reserved capacity.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Column {
        let data = match dtype {
            DataType::Int => ColumnData::Int(Vec::with_capacity(cap)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(cap)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(cap)),
            DataType::Str => ColumnData::Str(Strings::with_capacity(cap)),
            DataType::Time => ColumnData::Time(Vec::with_capacity(cap)),
        };
        Column { data, nulls: None }
    }

    /// A column without nulls over an already built payload.
    pub fn from_data(data: ColumnData) -> Column {
        Column { data, nulls: None }
    }

    /// A column over an already built payload and its null mask (one flag
    /// per value, `true` = NULL). An all-false mask is dropped, so the
    /// column keeps the no-null fast paths.
    pub fn with_nulls(data: ColumnData, nulls: Vec<bool>) -> Column {
        let mut col = Column::from_data(data);
        debug_assert_eq!(nulls.len(), col.len());
        if nulls.contains(&true) {
            col.nulls = Some(nulls);
        }
        col
    }

    /// The null mask (`None` = no nulls; `Some` may still be all false).
    pub fn nulls(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Total bytes of the column's non-null strings (`0` for other dtypes):
    /// the string share of the row layout's footprint.
    pub fn str_bytes(&self) -> usize {
        let ColumnData::Str(v) = &self.data else {
            return 0;
        };
        match &self.nulls {
            None => v.total_bytes(),
            Some(n) => n
                .iter()
                .enumerate()
                .filter(|(_, &null)| !null)
                .map(|(i, _)| v.dict.len_of(v.codes[i]))
                .sum(),
        }
    }

    /// Approximate footprint in bytes (payload vectors, string bytes,
    /// null mask), for memory-budget accounting. A string counts its bytes
    /// plus the row layout's `Arc<str>` handle to them, so budgets read the
    /// same whichever layout holds a relation.
    pub fn approx_bytes(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int(v) | ColumnData::Time(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len() * STR_HANDLE_BYTES + v.total_bytes(),
        };
        data + self.nulls.as_ref().map_or(0, Vec::len)
    }

    /// Approximate footprint of slot `i` alone (payload plus, for
    /// strings, the value's bytes), matching [`Column::approx_bytes`]'s
    /// per-value accounting — summing this over pushed rows keeps an
    /// incremental byte count consistent with a full recount, without
    /// the `O(len)` rescan.
    #[inline]
    pub fn approx_bytes_at(&self, i: usize) -> usize {
        match &self.data {
            ColumnData::Int(_) | ColumnData::Time(_) | ColumnData::Float(_) => 8,
            ColumnData::Bool(_) => 1,
            ColumnData::Str(v) => STR_HANDLE_BYTES + v.dict.len_of(v.codes[i]),
        }
    }

    /// Number of values (null slots included).
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) | ColumnData::Time(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's declared data type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Str(_) => DataType::Str,
            ColumnData::Time(_) => DataType::Time,
        }
    }

    /// The unboxed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    #[inline]
    /// True when slot `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.as_ref().is_some_and(|n| n[i])
    }

    /// True when the column carries a null mask.
    pub fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// The raw `i64` data of an `Int`/`Time` column without nulls — the
    /// zero-cost view the temporal kernels sweep over.
    pub fn as_i64(&self) -> Option<&[i64]> {
        if self.nulls.is_some() {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) | ColumnData::Time(v) => Some(v),
            _ => None,
        }
    }

    /// The strings of a `Str` column without nulls.
    pub(crate) fn as_strs(&self) -> Option<&Strings> {
        if self.nulls.is_some() {
            return None;
        }
        match &self.data {
            ColumnData::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `f64` data of a `Float` column without nulls.
    pub fn as_f64(&self) -> Option<&[f64]> {
        if self.nulls.is_some() {
            return None;
        }
        match &self.data {
            ColumnData::Float(v) => Some(v),
            _ => None,
        }
    }

    /// This string column over a sorted dictionary of only the entries
    /// its rows use; `None` when the column is no string column or its
    /// dictionary is already sorted.
    pub fn sorted_strings(&self) -> Option<Column> {
        match &self.data {
            ColumnData::Str(v) if !v.dict.sorted => Some(Column {
                data: ColumnData::Str(v.sorted()),
                nulls: self.nulls.clone(),
            }),
            _ => None,
        }
    }

    /// Reconstruct the row-layout value at `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Str(v) => Value::Str(v.dict.shared(v.codes[i])),
            ColumnData::Time(v) => Value::Time(v[i]),
        }
    }

    /// The string at `i` (must be a non-null `Str` slot).
    pub fn str_at(&self, i: usize) -> &str {
        match &self.data {
            ColumnData::Str(v) => v.str_at(i),
            _ => panic!("str_at on non-string column"),
        }
    }

    fn mark_null(&mut self, at: usize) {
        let len = self.len().max(at + 1);
        let nulls = self.nulls.get_or_insert_with(Vec::new);
        nulls.resize(len, false);
        nulls[at] = true;
    }

    fn push_null_mark(&mut self, is_null: bool) {
        if let Some(n) = &mut self.nulls {
            n.push(is_null);
        } else if is_null {
            let mut n = vec![false; self.len()];
            n.push(true);
            self.nulls = Some(n);
        }
    }

    /// Append a row-layout value; errors when it does not belong to the
    /// column's domain (`Int` and `Time` are mutually conformant, nulls
    /// belong everywhere).
    pub fn push(&mut self, v: &Value) -> Result<()> {
        let at = self.len();
        match (&mut self.data, v) {
            (_, Value::Null) => {
                match &mut self.data {
                    ColumnData::Int(d) | ColumnData::Time(d) => d.push(0),
                    ColumnData::Float(d) => d.push(0.0),
                    ColumnData::Bool(d) => d.push(false),
                    ColumnData::Str(d) => d.push(""),
                }
                self.mark_null(at);
                return Ok(());
            }
            (ColumnData::Int(d), Value::Int(x))
            | (ColumnData::Int(d), Value::Time(x))
            | (ColumnData::Time(d), Value::Int(x))
            | (ColumnData::Time(d), Value::Time(x)) => d.push(*x),
            (ColumnData::Float(d), Value::Float(x)) => d.push(*x),
            (ColumnData::Bool(d), Value::Bool(x)) => d.push(*x),
            (ColumnData::Str(d), Value::Str(x)) => d.push(x),
            _ => {
                return Err(Error::TypeError {
                    expected: "column dtype",
                    found: v.to_string(),
                    context: "Column::push",
                })
            }
        }
        self.push_null_mark(false);
        Ok(())
    }

    /// Append row `i` of `other` (same dtype family required).
    pub fn push_from(&mut self, other: &Column, i: usize) {
        if other.is_null(i) {
            match &mut self.data {
                ColumnData::Int(d) | ColumnData::Time(d) => d.push(0),
                ColumnData::Float(d) => d.push(0.0),
                ColumnData::Bool(d) => d.push(false),
                ColumnData::Str(d) => d.push(""),
            }
            let at = self.len() - 1;
            self.mark_null(at);
            return;
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Int(d), ColumnData::Int(s))
            | (ColumnData::Int(d), ColumnData::Time(s))
            | (ColumnData::Time(d), ColumnData::Int(s))
            | (ColumnData::Time(d), ColumnData::Time(s)) => d.push(s[i]),
            (ColumnData::Float(d), ColumnData::Float(s)) => d.push(s[i]),
            (ColumnData::Bool(d), ColumnData::Bool(s)) => d.push(s[i]),
            (ColumnData::Str(d), ColumnData::Str(s)) => d.extend_range(s, i, i + 1),
            _ => panic!("push_from across incompatible column dtypes"),
        }
        self.push_null_mark(false);
    }

    /// Append a contiguous physical range of `other` (same dtype family),
    /// vectorized per column rather than per row.
    pub fn extend_range(&mut self, other: &Column, start: usize, end: usize) {
        let pre_len = self.len();
        match (&mut self.data, &other.data) {
            (ColumnData::Int(d), ColumnData::Int(s))
            | (ColumnData::Int(d), ColumnData::Time(s))
            | (ColumnData::Time(d), ColumnData::Int(s))
            | (ColumnData::Time(d), ColumnData::Time(s)) => d.extend_from_slice(&s[start..end]),
            (ColumnData::Float(d), ColumnData::Float(s)) => d.extend_from_slice(&s[start..end]),
            (ColumnData::Bool(d), ColumnData::Bool(s)) => d.extend_from_slice(&s[start..end]),
            (ColumnData::Str(d), ColumnData::Str(s)) => d.extend_range(s, start, end),
            _ => panic!("extend_range across incompatible column dtypes"),
        }
        match &other.nulls {
            None => {
                if let Some(n) = &mut self.nulls {
                    n.resize(pre_len + (end - start), false);
                }
            }
            Some(theirs) => {
                let n = self.nulls.get_or_insert_with(Vec::new);
                n.resize(pre_len, false);
                n.extend_from_slice(&theirs[start..end]);
            }
        }
    }

    /// Append the given physical rows of `other` (same dtype family).
    pub fn extend_idx(&mut self, other: &Column, idx: &[u32]) {
        let pre_len = self.len();
        match (&mut self.data, &other.data) {
            (ColumnData::Int(d), ColumnData::Int(s))
            | (ColumnData::Int(d), ColumnData::Time(s))
            | (ColumnData::Time(d), ColumnData::Int(s))
            | (ColumnData::Time(d), ColumnData::Time(s)) => {
                d.extend(idx.iter().map(|&i| s[i as usize]));
            }
            (ColumnData::Float(d), ColumnData::Float(s)) => {
                d.extend(idx.iter().map(|&i| s[i as usize]));
            }
            (ColumnData::Bool(d), ColumnData::Bool(s)) => {
                d.extend(idx.iter().map(|&i| s[i as usize]));
            }
            (ColumnData::Str(d), ColumnData::Str(s)) => d.extend_idx(s, idx),
            _ => panic!("extend_idx across incompatible column dtypes"),
        }
        match &other.nulls {
            None => {
                if let Some(n) = &mut self.nulls {
                    n.resize(pre_len + idx.len(), false);
                }
            }
            Some(theirs) => {
                let n = self.nulls.get_or_insert_with(Vec::new);
                n.resize(pre_len, false);
                n.extend(idx.iter().map(|&i| theirs[i as usize]));
            }
        }
    }

    /// Push a raw instant (for freshly computed period columns).
    pub fn push_time(&mut self, t: i64) {
        match &mut self.data {
            ColumnData::Int(d) | ColumnData::Time(d) => d.push(t),
            _ => panic!("push_time on non-time column"),
        }
        self.push_null_mark(false);
    }

    /// Gather the given physical rows into a fresh column (a string column
    /// shares this one's dictionary).
    pub fn gather(&self, idx: &[u32]) -> Column {
        fn pick<T: Copy>(s: &[T], idx: &[u32]) -> Vec<T> {
            idx.iter().map(|&i| s[i as usize]).collect()
        }
        let mut out = Column::from_data(match &self.data {
            ColumnData::Int(s) => ColumnData::Int(pick(s, idx)),
            ColumnData::Time(s) => ColumnData::Time(pick(s, idx)),
            ColumnData::Float(s) => ColumnData::Float(pick(s, idx)),
            ColumnData::Bool(s) => ColumnData::Bool(pick(s, idx)),
            ColumnData::Str(s) => ColumnData::Str(s.gather(idx)),
        });
        if let Some(nulls) = &self.nulls {
            if idx.iter().any(|&i| nulls[i as usize]) {
                out.nulls = Some(idx.iter().map(|&i| nulls[i as usize]).collect());
            }
        }
        out
    }

    /// Finalized hash of the value at `i`, consistent with row equality:
    /// equal rows hash equal.
    #[inline]
    pub fn hash_at(&self, i: usize) -> u64 {
        if self.is_null(i) {
            return NULL_HASH;
        }
        match &self.data {
            ColumnData::Int(v) | ColumnData::Time(v) => mix64(v[i] as u64),
            ColumnData::Float(v) => mix64(v[i].to_bits()),
            ColumnData::Bool(v) => mix64(v[i] as u64 + 1),
            ColumnData::Str(v) => v.dict.hash(v.codes[i]),
        }
    }

    /// Combine this column's contribution into per-row hashes for a
    /// contiguous physical range (`hashes.len()` rows starting at
    /// `start`). One dtype dispatch per call, not per row.
    pub fn hash_range(&self, start: usize, hashes: &mut [u64]) {
        match (&self.data, &self.nulls) {
            (ColumnData::Int(v) | ColumnData::Time(v), None) => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    *h = hash_combine(*h, mix64(v[start + k] as u64));
                }
            }
            (ColumnData::Float(v), None) => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    *h = hash_combine(*h, mix64(v[start + k].to_bits()));
                }
            }
            (ColumnData::Str(v), None) => {
                for (h, &c) in hashes.iter_mut().zip(&v.codes[start..]) {
                    *h = hash_combine(*h, v.dict.hash(c));
                }
            }
            _ => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    *h = hash_combine(*h, self.hash_at(start + k));
                }
            }
        }
    }

    /// Combine this column's contribution into per-row hashes for an
    /// explicit index list.
    pub fn hash_idx(&self, idx: &[u32], hashes: &mut [u64]) {
        match (&self.data, &self.nulls) {
            (ColumnData::Int(v) | ColumnData::Time(v), None) => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    *h = hash_combine(*h, mix64(v[idx[k] as usize] as u64));
                }
            }
            (ColumnData::Float(v), None) => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    *h = hash_combine(*h, mix64(v[idx[k] as usize].to_bits()));
                }
            }
            (ColumnData::Str(v), None) => {
                for (h, &i) in hashes.iter_mut().zip(idx) {
                    *h = hash_combine(*h, v.dict.hash(v.codes[i as usize]));
                }
            }
            _ => {
                for (k, h) in hashes.iter_mut().enumerate() {
                    *h = hash_combine(*h, self.hash_at(idx[k] as usize));
                }
            }
        }
    }

    /// Row equality between two columns of the same dtype family, matching
    /// `Value::eq` (nulls equal each other, floats by total order).
    #[inline]
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return true,
            (false, false) => {}
            _ => return false,
        }
        match (&self.data, &other.data) {
            (
                ColumnData::Int(a) | ColumnData::Time(a),
                ColumnData::Int(b) | ColumnData::Time(b),
            ) => a[i] == b[j],
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].to_bits() == b[j].to_bits(),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i] == b[j],
            (ColumnData::Str(a), ColumnData::Str(b)) => a.eq_at(i, b, j),
            _ => panic!("eq_at across incompatible column dtypes"),
        }
    }

    /// Row ordering between two columns of the same dtype family, matching
    /// `Value::cmp` (null first, floats by total order).
    #[inline]
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Less,
            (false, true) => return Ordering::Greater,
            (false, false) => {}
        }
        match (&self.data, &other.data) {
            (
                ColumnData::Int(a) | ColumnData::Time(a),
                ColumnData::Int(b) | ColumnData::Time(b),
            ) => a[i].cmp(&b[j]),
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].total_cmp(&b[j]),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i].cmp(&b[j]),
            (ColumnData::Str(a), ColumnData::Str(b)) => a.cmp_at(i, b, j),
            _ => panic!("cmp_at across incompatible column dtypes"),
        }
    }

    /// Ordering between the value at `i` and a row-layout value, matching
    /// `Value::cmp` (used by vectorized comparisons against literals).
    pub fn cmp_value(&self, i: usize, v: &Value) -> Ordering {
        // Null handling is the caller's job (SQL comparisons against null
        // are null, not ordered); this is pure ordering, null-first. A
        // string against a string literal compares bytes; every other
        // pairing (variant rank, numeric cross-domain) is `Value::cmp`'s.
        match (&self.data, v) {
            (ColumnData::Str(s), Value::Str(lit)) if !self.is_null(i) => {
                s.bytes_at(i).cmp(lit.as_bytes())
            }
            _ => self.value(i).cmp(v),
        }
    }

    /// Order-preserving `u64` prefixes of the values at `rows` (every
    /// value when `None`), in that order, for radix-assisted sorting.
    /// Returns `(prefixes, exact)`. Unsigned ascending order of the
    /// prefixes never contradicts [`Column::cmp_at`]: `prefix[a] <
    /// prefix[b]` implies value `a` orders before value `b`. When `exact`
    /// is true the encoding is also injective on ordering — equal
    /// prefixes mean equal values — so a sort may skip the comparator
    /// entirely. Descending order is the caller's bitwise complement
    /// (`!p`), which flips the whole order including null placement.
    pub fn sort_prefixes(&self, rows: Option<&[u32]>) -> (Vec<u64>, bool) {
        const SIGN: u64 = 1 << 63;
        /// `f` of every row of `rows`, or of `0..n`.
        fn each(n: usize, rows: Option<&[u32]>, f: impl FnMut(usize) -> u64) -> Vec<u64> {
            match rows {
                Some(rows) => rows.iter().map(|&i| i as usize).map(f).collect(),
                None => (0..n).map(f).collect(),
            }
        }
        let n = self.len();
        let (mut out, mut exact): (Vec<u64>, bool) = match &self.data {
            // i64 ascending == unsigned ascending after flipping the sign.
            ColumnData::Int(v) | ColumnData::Time(v) => {
                (each(n, rows, |i| (v[i] as u64) ^ SIGN), true)
            }
            // `total_cmp` order: flip all bits of negatives, the sign bit
            // of non-negatives (IEEE 754 totalOrder as unsigned ints).
            ColumnData::Float(v) => (
                each(n, rows, |i| {
                    let b = v[i].to_bits();
                    if b & SIGN != 0 {
                        !b
                    } else {
                        b ^ SIGN
                    }
                }),
                true,
            ),
            ColumnData::Bool(v) => (each(n, rows, |i| v[i] as u64), true),
            // A sorted dictionary's codes are the order itself: exact, with
            // NULLs first at 0.
            ColumnData::Str(v) if v.dict.sorted => {
                let out = each(n, rows, |i| {
                    if self.is_null(i) {
                        0
                    } else {
                        u64::from(v.codes[i]) + 1
                    }
                });
                return (out, true);
            }
            // First eight bytes, big-endian, zero-padded: exact iff every
            // string fits and is NUL-free (the pad byte must sort strictly
            // below every real byte for padded order == lexicographic).
            ColumnData::Str(v) => {
                let mut exact = true;
                let out = each(n, rows, |i| {
                    let b = v.bytes_at(i);
                    if b.len() > 8 || b.contains(&0) {
                        exact = false;
                    }
                    let mut buf = [0u8; 8];
                    let take = b.len().min(8);
                    buf[..take].copy_from_slice(&b[..take]);
                    u64::from_be_bytes(buf)
                });
                (out, exact)
            }
        };
        if let Some(nulls) = &self.nulls {
            // Null-first: nulls collapse to 0, everything else keeps its
            // order in the upper half. The dropped low bit makes the
            // encoding non-injective, hence inexact.
            for (k, p) in out.iter_mut().enumerate() {
                let row = rows.map_or(k, |rows| rows[k] as usize);
                *p = if nulls[row] { 0 } else { (*p >> 1) | SIGN };
            }
            exact = false;
        }
        debug_assert_eq!(out.len(), rows.map_or(n, <[u32]>::len));
        (out, exact)
    }

    /// Batched pairwise equality: `ok[k] &= self[ids[k]] == other[rows[k]]`
    /// under [`Column::eq_at`] semantics, with the dtype dispatched once
    /// per call instead of per pair — the column-wise verification step of
    /// hash probes that batch their candidates.
    pub fn eq_pairs(&self, ids: &[u32], other: &Column, rows: &[u32], ok: &mut [bool]) {
        debug_assert_eq!(ids.len(), rows.len());
        debug_assert_eq!(ids.len(), ok.len());
        if self.has_nulls() || other.has_nulls() {
            for ((o, &i), &j) in ok.iter_mut().zip(ids).zip(rows) {
                *o &= self.eq_at(i as usize, other, j as usize);
            }
            return;
        }
        match (&self.data, &other.data) {
            (
                ColumnData::Int(a) | ColumnData::Time(a),
                ColumnData::Int(b) | ColumnData::Time(b),
            ) => {
                for ((o, &i), &j) in ok.iter_mut().zip(ids).zip(rows) {
                    *o &= a[i as usize] == b[j as usize];
                }
            }
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                for ((o, &i), &j) in ok.iter_mut().zip(ids).zip(rows) {
                    *o &= a[i as usize].to_bits() == b[j as usize].to_bits();
                }
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => {
                for ((o, &i), &j) in ok.iter_mut().zip(ids).zip(rows) {
                    *o &= a[i as usize] == b[j as usize];
                }
            }
            (ColumnData::Str(a), ColumnData::Str(b)) if Arc::ptr_eq(&a.dict, &b.dict) => {
                for ((o, &i), &j) in ok.iter_mut().zip(ids).zip(rows) {
                    *o &= a.codes[i as usize] == b.codes[j as usize];
                }
            }
            (ColumnData::Str(a), ColumnData::Str(b)) => {
                for ((o, &i), &j) in ok.iter_mut().zip(ids).zip(rows) {
                    *o &= a.eq_at(i as usize, b, j as usize);
                }
            }
            _ => panic!("eq_pairs across incompatible column dtypes"),
        }
    }
}

/// Transpose columns of `rows` values each into row-layout tuples, in
/// physical order. One dtype dispatch per column — not per value — so
/// the row layer's tagged enums are built in tight per-column loops.
pub(crate) fn tuples_from_columns(columns: &[Arc<Column>], rows: usize) -> Vec<Tuple> {
    let arity = columns.len();
    let mut bufs: Vec<Vec<Value>> = (0..rows).map(|_| Vec::with_capacity(arity)).collect();
    for col in columns {
        fill_rows(col, &mut bufs);
    }
    bufs.into_iter().map(Tuple::new).collect()
}

/// Append one value per row buffer from `col` (`out[k]` receives row `k`).
/// Strings clone their dictionary entry's one `Arc<str>`.
fn fill_rows(col: &Column, out: &mut [Vec<Value>]) {
    macro_rules! fill {
        ($v:expr, $wrap:expr) => {
            for (row, x) in out.iter_mut().zip($v.iter()) {
                row.push($wrap(x));
            }
        };
    }
    match &col.data {
        ColumnData::Str(v) => {
            for (k, (row, &code)) in out.iter_mut().zip(&v.codes).enumerate() {
                row.push(if col.is_null(k) {
                    Value::Null
                } else {
                    Value::Str(v.dict.shared(code))
                });
            }
        }
        _ if col.has_nulls() => {
            for (k, row) in out.iter_mut().enumerate() {
                row.push(col.value(k));
            }
        }
        ColumnData::Int(v) => fill!(v, |x: &i64| Value::Int(*x)),
        ColumnData::Time(v) => fill!(v, |x: &i64| Value::Time(*x)),
        ColumnData::Float(v) => fill!(v, |x: &f64| Value::Float(*x)),
        ColumnData::Bool(v) => fill!(v, |x: &bool| Value::Bool(*x)),
    }
}

/// The live rows of a set of columns, in output order, as *physical*
/// indices into the columns.
#[derive(Debug, Clone)]
pub enum Sel {
    /// A contiguous physical window `[start, end)`.
    Range(usize, usize),
    /// An explicit, ordered index list.
    Rows(Arc<Vec<u32>>),
}

impl Sel {
    /// Number of live rows.
    pub fn len(&self) -> usize {
        match self {
            Sel::Range(s, e) => e - s,
            Sel::Rows(v) => v.len(),
        }
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the live physical row indices, in logical order.
    pub fn iter(&self) -> RowIter<'_> {
        match self {
            Sel::Range(s, e) => RowIter::Range(*s..*e),
            Sel::Rows(v) => RowIter::Rows(v.iter()),
        }
    }
}

/// Iterator over a selection's physical row indices.
pub enum RowIter<'a> {
    /// Iterating a contiguous window.
    Range(std::ops::Range<usize>),
    /// Iterating an explicit index list.
    Rows(std::slice::Iter<'a, u32>),
}

impl Iterator for RowIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            RowIter::Range(r) => r.next(),
            RowIter::Rows(it) => it.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RowIter::Range(r) => r.size_hint(),
            RowIter::Rows(it) => it.size_hint(),
        }
    }
}

/// A whole relation in column-major layout. Columns are individually
/// shareable (`Arc`) so projections and batch views are zero-copy.
#[derive(Debug, Clone)]
pub struct ColumnarRelation {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    rows: usize,
}

impl ColumnarRelation {
    /// Assemble from parts; all columns must share one length.
    pub fn new(schema: Arc<Schema>, columns: Vec<Arc<Column>>) -> ColumnarRelation {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        debug_assert_eq!(schema.arity(), columns.len());
        ColumnarRelation {
            schema,
            columns,
            rows,
        }
    }

    /// An empty columnar relation of a schema.
    pub fn empty(schema: Arc<Schema>) -> ColumnarRelation {
        let columns = schema
            .attrs()
            .iter()
            .map(|a| Arc::new(Column::with_capacity(a.dtype, 0)))
            .collect();
        ColumnarRelation::new(schema, columns)
    }

    /// Transpose a row-layout relation. Conformance is already guaranteed
    /// by `Relation`'s invariants, so this cannot fail on valid input.
    pub fn from_relation(r: &Relation) -> Result<ColumnarRelation> {
        let schema = Arc::new(r.schema().clone());
        let mut columns: Vec<Column> = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.dtype, r.len()))
            .collect();
        for t in r.tuples() {
            for (c, v) in columns.iter_mut().zip(t.values()) {
                c.push(v)?;
            }
        }
        Ok(ColumnarRelation {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            rows: r.len(),
        })
    }

    /// The row-layout relation over these columns (shared, not copied; its
    /// tuples are built on first use). The result compares equal (`==`) to
    /// the relation this was built from.
    pub fn to_relation(&self) -> Relation {
        Relation::from_columnar(self.clone())
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All columns, in attribute order.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The column of attribute `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `i` as a row-layout tuple, built alone (for code that visits a
    /// few rows, not the whole list).
    pub fn tuple(&self, i: usize) -> Tuple {
        Tuple::new(self.columns.iter().map(|c| c.value(i)).collect())
    }

    /// Approximate materialized footprint in bytes — the sum of the
    /// column footprints (see [`Column::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// True when the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The `T1`/`T2` columns of a temporal relation as raw `i64` slices.
    pub fn period_columns(&self) -> Result<(&[i64], &[i64])> {
        let (Some(i1), Some(i2)) = (self.schema.t1_index(), self.schema.t2_index()) else {
            return Err(Error::NotTemporal {
                context: "ColumnarRelation::period_columns",
            });
        };
        match (self.columns[i1].as_i64(), self.columns[i2].as_i64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(Error::TypeError {
                expected: "non-null TIME",
                found: "null period endpoint".into(),
                context: "ColumnarRelation::period_columns",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn employee() -> Relation {
        Relation::new(
            Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]),
            vec![
                tuple!["John", "Sales", 1i64, 8i64],
                tuple!["John", "Advertising", 6i64, 11i64],
                tuple!["Anna", "Sales", 2i64, 6i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn string_hash_reads_the_tail_zero_padded() {
        // Every chunk, the last one copied into a zeroed eight-byte word.
        let padded = |s: &str| {
            let mut h = 0x517c_c1b7_2722_0a95_u64 ^ s.len() as u64;
            for chunk in s.as_bytes().chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                h = (h ^ u64::from_le_bytes(buf)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            h
        };
        for s in [
            "",
            "a",
            "e1234",
            "exactly8",
            "nine char",
            "a somewhat longer key",
            "ünïcödé",
        ] {
            assert_eq!(hash_str(s.as_bytes()), padded(s), "{s:?}");
        }
    }

    /// Batch hash tables index slots by a hash's low bits (`hash & mask`),
    /// so every input bit must reach them: short keys that differ only in
    /// their trailing bytes (`emp0` … `emp4999`) must spread over the
    /// slots of an 8 192-slot table, as 5 000 random keys fill ≈ 3 780.
    #[test]
    fn string_hashes_spread_over_the_low_bits() {
        let mut column = Column::with_capacity(DataType::Str, 5000);
        for i in 0..5000 {
            column.push(&Value::from(format!("emp{i}"))).unwrap();
        }
        let mut hashes = vec![0u64; 5000];
        column.hash_range(0, &mut hashes);
        let slots: std::collections::HashSet<u64> =
            hashes.iter().map(|h| h & ((1 << 13) - 1)).collect();
        assert!(slots.len() >= 3000, "{} of 8192 slots", slots.len());
    }

    #[test]
    fn round_trip_preserves_equality() {
        let r = employee();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        assert_eq!(c.rows(), 3);
        assert_eq!(c.to_relation(), r);
    }

    #[test]
    fn period_columns_are_raw_i64() {
        let c = ColumnarRelation::from_relation(&employee()).unwrap();
        let (t1, t2) = c.period_columns().unwrap();
        assert_eq!(t1, &[1, 6, 2]);
        assert_eq!(t2, &[8, 11, 6]);
    }

    #[test]
    fn int_and_time_variants_normalize() {
        // tuple! writes Int values into Time columns; the columnar form
        // stores raw i64 and reconstructs Time, which compares equal.
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 5i64]],
        )
        .unwrap();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        assert_eq!(c.to_relation(), r);
    }

    #[test]
    fn nulls_round_trip_and_compare() {
        let s = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
        let r = Relation::new(
            s,
            vec![
                Tuple::new(vec![Value::Null, Value::from("x")]),
                Tuple::new(vec![Value::Int(3), Value::Null]),
            ],
        )
        .unwrap();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        assert!(c.column(0).is_null(0));
        assert!(!c.column(0).is_null(1));
        assert_eq!(c.to_relation(), r);
        // Null equals null, hashes agree with equality.
        assert!(c.column(0).eq_at(0, c.column(1), 1));
        assert_eq!(c.column(0).hash_at(0), c.column(1).hash_at(1));
    }

    #[test]
    fn hash_eq_cmp_match_value_semantics() {
        let s = Schema::of(&[("F", DataType::Float)]);
        let r = Relation::new(
            s,
            vec![
                tuple![1.5f64],
                tuple![1.5f64],
                tuple![f64::NAN],
                tuple![f64::NAN],
            ],
        )
        .unwrap();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        let col = c.column(0);
        assert!(col.eq_at(0, col, 1));
        assert_eq!(col.hash_at(2), col.hash_at(3));
        assert!(col.eq_at(2, col, 3));
        assert_eq!(col.cmp_at(0, col, 2), Ordering::Less); // NaN sorts last
    }

    #[test]
    fn gather_preserves_values_and_nulls() {
        let s = Schema::of(&[("A", DataType::Int)]);
        let r = Relation::new(
            s,
            vec![tuple![10i64], Tuple::new(vec![Value::Null]), tuple![30i64]],
        )
        .unwrap();
        let c = ColumnarRelation::from_relation(&r).unwrap();
        let g = c.column(0).gather(&[2, 1, 0]);
        assert_eq!(g.value(0), Value::Int(30));
        assert_eq!(g.value(1), Value::Null);
        assert_eq!(g.value(2), Value::Int(10));
    }

    /// Splitmix64: a seeded generator for the differential tests.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn indices(&mut self, len: usize, max: usize) -> Vec<u32> {
            (0..len).map(|_| self.below(max) as u32).collect()
        }
    }

    /// Empty, multi-byte, longer-than-eight and NUL-bearing strings (the
    /// last two leave `sort_prefixes` inexact), some sharing prefixes.
    const WORDS: [&str; 12] = [
        "",
        "a",
        "ab",
        "é",
        "日本",
        "Sales",
        "exactly8",
        "exactly8!",
        "a somewhat longer key",
        "a\u{0}b",
        "a\u{0}",
        "日本語のテキスト",
    ];

    /// `n` string values, NULLs among them when `nullable`; the previous
    /// value repeats often, so runs of equal strings form.
    fn str_values(rng: &mut Rng, n: usize, nullable: bool) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::with_capacity(n);
        for _ in 0..n {
            let v = match (out.last(), rng.below(8)) {
                (_, 0) if nullable => Value::Null,
                (Some(prev), 1 | 2) => prev.clone(),
                _ => Value::from(WORDS[rng.below(WORDS.len())]),
            };
            out.push(v);
        }
        out
    }

    fn str_column(values: &[Value]) -> Column {
        let mut c = Column::with_capacity(DataType::Str, values.len());
        for v in values {
            c.push(v).unwrap();
        }
        c
    }

    fn assert_holds(c: &Column, want: &[Value], what: &str) {
        assert_eq!(c.len(), want.len(), "{what}: length");
        for (i, v) in want.iter().enumerate() {
            assert_eq!(&c.value(i), v, "{what}: value {i}");
        }
    }

    /// Seeded differential property: every `Column` operation on string
    /// columns (with and without NULLs) agrees with the same operation on
    /// the `Value`s the columns hold.
    #[test]
    fn string_columns_agree_with_their_values() {
        let mut rng = Rng(0x5712_1A6E);
        let literals: Vec<Value> = WORDS
            .iter()
            .map(|&w| Value::from(w))
            .chain([Value::Null, Value::Int(3), Value::from("b")])
            .collect();
        for case in 0..300 {
            let n = rng.below(40);
            let a_nullable = rng.below(2) == 0;
            let va = str_values(&mut rng, n, a_nullable);
            let vb = str_values(&mut rng, n, case % 3 == 0);
            let (a, b) = (str_column(&va), str_column(&vb));
            assert_holds(&a, &va, "push");
            if n == 0 {
                continue;
            }

            let picks = rng.below(2 * n) + 1;
            let idx = rng.indices(picks, n);
            let picked: Vec<Value> = idx.iter().map(|&i| va[i as usize].clone()).collect();
            let mut from = Column::with_capacity(DataType::Str, 0);
            for &i in &idx {
                from.push_from(&a, i as usize);
            }
            assert_holds(&from, &picked, "push_from");
            assert_holds(&a.gather(&idx), &picked, "gather");
            // Appending onto a column that already holds values (and, in
            // `b`, NULLs) shifts offsets and masks correctly.
            let mut extended = b.clone();
            extended.extend_idx(&a, &idx);
            assert_holds(&extended, &[vb.clone(), picked].concat(), "extend_idx");
            let (start, end) = {
                let x = rng.below(n + 1);
                let y = rng.below(n + 1);
                (x.min(y), x.max(y))
            };
            let mut ranged = b.clone();
            ranged.extend_range(&a, start, end);
            assert_holds(
                &ranged,
                &[&vb[..], &va[start..end]].concat(),
                "extend_range",
            );

            for (i, x) in va.iter().enumerate() {
                for (j, y) in vb.iter().enumerate() {
                    assert_eq!(a.eq_at(i, &b, j), x == y, "eq_at {i} {j}");
                    assert_eq!(a.cmp_at(i, &b, j), x.cmp(y), "cmp_at {i} {j}");
                    if x == y {
                        assert_eq!(a.hash_at(i), b.hash_at(j), "hash_at {i} {j}");
                    }
                }
                for v in &literals {
                    assert_eq!(a.cmp_value(i, v), x.cmp(v), "cmp_value {i} {v}");
                }
            }
            let rows = rng.indices(idx.len(), n);
            let mut ok = vec![true; idx.len()];
            a.eq_pairs(&idx, &b, &rows, &mut ok);
            for (k, (&i, &j)) in idx.iter().zip(&rows).enumerate() {
                assert_eq!(ok[k], va[i as usize] == vb[j as usize], "eq_pairs {k}");
            }

            let mut ranged_hashes = vec![7u64; end - start];
            a.hash_range(start, &mut ranged_hashes);
            for (k, h) in ranged_hashes.iter().enumerate() {
                assert_eq!(*h, hash_combine(7, a.hash_at(start + k)), "hash_range {k}");
            }
            let mut idx_hashes = vec![7u64; idx.len()];
            a.hash_idx(&idx, &mut idx_hashes);
            for (h, &i) in idx_hashes.iter().zip(&idx) {
                assert_eq!(*h, hash_combine(7, a.hash_at(i as usize)), "hash_idx {i}");
            }

            let (prefixes, exact) = a.sort_prefixes(None);
            let (picked, _) = a.sort_prefixes(Some(&idx));
            let gathered: Vec<u64> = idx.iter().map(|&i| prefixes[i as usize]).collect();
            assert_eq!(picked, gathered, "sort_prefixes of picked rows");
            for (p, x) in prefixes.iter().zip(&va) {
                for (q, y) in prefixes.iter().zip(&va) {
                    if p < q {
                        assert_eq!(x.cmp(y), Ordering::Less, "prefix {x} {y}");
                    }
                    if exact && p == q {
                        assert_eq!(x, y, "exact prefix");
                    }
                }
            }
            // A sorted dictionary's codes are exact; byte prefixes are
            // exact only for short NUL-free strings without NULLs.
            let ColumnData::Str(strings) = a.data() else {
                unreachable!("a string column")
            };
            let claims_exact = strings.dict().is_sorted()
                || va.iter().all(|v| {
                    v.as_str()
                        .is_ok_and(|s| s.len() <= 8 && !s.as_bytes().contains(&0))
                });
            assert_eq!(exact, claims_exact, "exactness");

            let lengths =
                |vs: &[Value]| -> usize { vs.iter().map(|v| v.as_str().map_or(0, str::len)).sum() };
            assert_eq!(a.str_bytes(), lengths(&va), "str_bytes");
            // A frame's null slots may carry bytes: they are no string's.
            let mut filled = Strings::with_capacity(n);
            for v in &va {
                filled.push(v.as_str().unwrap_or("filler"));
            }
            let nulls: Vec<bool> = va.iter().map(Value::is_null).collect();
            let filled = Column::with_nulls(ColumnData::Str(filled), nulls);
            assert_eq!(filled.str_bytes(), lengths(&va), "str_bytes, filled NULLs");
            let mask = if a.has_nulls() { n } else { 0 };
            assert_eq!(
                a.approx_bytes(),
                n * STR_HANDLE_BYTES + lengths(&va) + mask,
                "approx_bytes"
            );
            for (i, v) in va.iter().enumerate() {
                let len = v.as_str().map_or(0, str::len);
                assert_eq!(
                    a.approx_bytes_at(i),
                    STR_HANDLE_BYTES + len,
                    "approx_bytes_at {i}"
                );
            }
            let relation = Relation::new(
                Schema::of(&[("A", DataType::Str), ("B", DataType::Str)]),
                va.iter()
                    .zip(&vb)
                    .map(|(x, y)| Tuple::new(vec![x.clone(), y.clone()]))
                    .collect(),
            )
            .unwrap();
            let tuple_walk: usize = relation.tuples().iter().map(Tuple::approx_bytes).sum();
            let columns = ColumnarRelation::from_relation(&relation)
                .unwrap()
                .to_relation();
            assert_eq!(columns.approx_bytes(), tuple_walk, "relation footprint");
            assert_eq!(columns.tuples(), relation.tuples(), "tuples_from_columns");
        }
    }

    #[test]
    fn equal_strings_share_their_entry_allocation() {
        let r = Relation::new(
            Schema::of(&[("S", DataType::Str)]),
            vec![
                tuple!["Sales"],
                tuple!["Ads"],
                Tuple::new(vec![Value::Null]),
                tuple!["Sales"],
                tuple!["Sales"],
            ],
        )
        .unwrap();
        let rebuilt = ColumnarRelation::from_relation(&r).unwrap().to_relation();
        let handles: Vec<usize> = rebuilt
            .tuples()
            .iter()
            .map(|t| match t.value(0) {
                Value::Str(s) => Arc::strong_count(s),
                _ => 0,
            })
            .collect();
        // One allocation per dictionary entry, held by the entry itself
        // and every value of it: "Sales" three times, "Ads" once.
        assert_eq!(handles, vec![4, 2, 0, 4, 4]);
    }

    #[test]
    fn dictionaries_are_shared_and_copied_only_to_grow() {
        let mut base = Column::with_capacity(DataType::Str, 4);
        for w in ["b", "d", "b"] {
            base.push(&Value::from(w)).unwrap();
        }
        let dict = |c: &Column| match c.data() {
            ColumnData::Str(v) => Arc::clone(v.dict()),
            _ => unreachable!(),
        };
        // Registration sorts: "b" < "d" were appended in order already.
        assert!(base.sorted_strings().is_none());
        let mut next = Column::with_capacity(DataType::Str, 4);
        next.extend_range(&base, 0, 3);
        assert!(Arc::ptr_eq(&dict(&next), &dict(&base)));
        // A value the dictionary holds copies nothing; a new one copies
        // it once, and a value past the last entry keeps it sorted.
        next.push(&Value::from("d")).unwrap();
        assert!(Arc::ptr_eq(&dict(&next), &dict(&base)));
        next.push(&Value::from("e")).unwrap();
        assert!(!Arc::ptr_eq(&dict(&next), &dict(&base)));
        assert!(dict(&next).is_sorted());
        next.push(&Value::from("a")).unwrap();
        assert!(!dict(&next).is_sorted());
        let sorted = next.sorted_strings().unwrap();
        assert!(dict(&sorted).is_sorted());
        for i in 0..next.len() {
            assert_eq!(sorted.value(i), next.value(i));
        }
        assert_eq!(dict(&base).len(), 2);
    }

    #[test]
    fn push_rejects_wrong_domain() {
        let mut c = Column::with_capacity(DataType::Str, 1);
        assert!(c.push(&Value::Int(1)).is_err());
        assert!(c.push(&Value::Null).is_ok());
        let mut i = Column::with_capacity(DataType::Int, 1);
        assert!(i.push(&Value::Time(4)).is_ok()); // Int/Time conformant
    }
}
