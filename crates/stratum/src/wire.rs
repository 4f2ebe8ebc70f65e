//! The transfer wire: relation serialization between the DBMS and the
//! stratum, and for the serving protocol's result frames.
//!
//! Transfers in a layered deployment move results through a client
//! protocol; the dominant cost is serialization and copying. This module
//! performs that work for real (a compact binary encoding via `bytes`), so
//! transfer costs in benchmarks are measured, not modeled. Relations
//! travel column by column ([`encode`]): fixed-width values back to back,
//! a string column as the dictionary entries its rows use (ascending)
//! plus one code per row, so neither side touches a tuple or copies a
//! string per row — a decoded relation is born in columns, over sorted
//! dictionaries, and builds its tuple list only if someone reads it.
//! Single values (request parameters) use the tagged encoding of
//! [`put_value`].

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use tqo_core::columnar::{Column, ColumnData, ColumnarRelation, Dict, Strings};
use tqo_core::context::StridePoll;
use tqo_core::error::{Error, Result};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::value::{DataType, Value};

/// Append one value's tagged binary form to `buf`. Public so other wire
/// speakers (the serving front-end's request/response protocol) encode
/// values identically to transfers.
pub fn put_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64(*i);
        }
        Value::Float(x) => {
            buf.put_u8(3);
            buf.put_f64(*x);
        }
        Value::Time(t) => {
            buf.put_u8(4);
            buf.put_i64(*t);
        }
        Value::Str(s) => {
            buf.put_u8(5);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }
}

/// Decode one value from `buf` (inverse of [`put_value`]); truncations
/// and unknown tags surface as typed `Storage` errors.
pub fn get_value(buf: &mut Bytes) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(Error::Storage {
            reason: "wire: truncated value tag".into(),
        });
    }
    // Fixed-size payloads are guarded too: the Buf accessors panic on
    // underflow (as in the real bytes crate), and a truncated wire must
    // surface as an Err, never a panic.
    let need = |buf: &Bytes, n: usize| -> Result<()> {
        if buf.remaining() < n {
            return Err(Error::Storage {
                reason: "wire: truncated value payload".into(),
            });
        }
        Ok(())
    };
    Ok(match buf.get_u8() {
        0 => Value::Null,
        1 => {
            need(buf, 1)?;
            Value::Bool(buf.get_u8() != 0)
        }
        2 => {
            need(buf, 8)?;
            Value::Int(buf.get_i64())
        }
        3 => {
            need(buf, 8)?;
            Value::Float(buf.get_f64())
        }
        4 => {
            need(buf, 8)?;
            Value::Time(buf.get_i64())
        }
        5 => {
            need(buf, 4)?;
            let len = buf.get_u32() as usize;
            if buf.remaining() < len {
                return Err(Error::Storage {
                    reason: "wire: truncated string".into(),
                });
            }
            let bytes = buf.copy_to_bytes(len);
            let s = std::str::from_utf8(&bytes).map_err(|e| Error::Storage {
                reason: format!("wire: bad utf8: {e}"),
            })?;
            Value::Str(s.into())
        }
        tag => {
            return Err(Error::Storage {
                reason: format!("wire: unknown tag {tag}"),
            })
        }
    })
}

/// Serialize a relation column by column (the schema travels out of
/// band). The layout, big-endian throughout:
///
/// - header: `u32` arity, `u32` rows;
/// - per column, in schema order: a `u8` null flag (`1` = a mask of one
///   `0`/`1` byte per row follows), then the values — eight bytes per row
///   for `Int`/`Time`/`Float` (null slots carry filler), one byte per row
///   for `Bool`, and for `Str` a `u32` entry count, the entries (each
///   `u32` byte length, UTF-8 bytes; strictly ascending, only those the
///   rows use, null slots included), then one code per row indexing them
///   — one byte wide for up to 2⁸ entries, two for up to 2¹⁶, else four.
///
/// Reads the relation's columns, which every engine result has resident;
/// a relation born in tuples is transposed first. A string column costs
/// `O(rows + entries used)`, never a pass over its whole dictionary.
pub fn encode(relation: &Relation) -> Result<Bytes> {
    let mut buf = BytesMut::with_capacity(0);
    encode_into(&mut buf, relation)?;
    Ok(buf.freeze())
}

/// [`encode`] onto the end of `buf`, which grows once, up front, to a
/// bound of the frame's size (untouched capacity costs no pages).
pub fn encode_into(buf: &mut BytesMut, relation: &Relation) -> Result<()> {
    let columnar = relation.columnar()?;
    let rows = columnar.rows();
    let hint: usize = columnar
        .columns()
        .iter()
        .map(|c| {
            let values = match c.data() {
                ColumnData::Int(_) | ColumnData::Time(_) | ColumnData::Float(_) => rows * 8,
                ColumnData::Bool(_) => rows,
                // At most one entry per row, each at most four bytes of
                // length and the value's bytes, and four-byte codes.
                ColumnData::Str(v) => 4 + rows * 8 + v.total_bytes(),
            };
            1 + values + if c.has_nulls() { rows } else { 0 }
        })
        .sum();
    buf.reserve(8 + hint);
    buf.put_u32(wire_len(columnar.columns().len(), "arity")?);
    buf.put_u32(wire_len(rows, "row count")?);
    for col in columnar.columns() {
        put_column(buf, col)?;
    }
    Ok(())
}

/// A length as the frame's `u32`; a relation past that limit fails typed
/// rather than writing a truncated count. Every entry count is at most
/// the row count, so checking that covers them.
fn wire_len(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| storage(format!("wire: {what} {n} exceeds u32")))
}

/// Bytes per code of a string column with `entries` entries.
fn code_width(entries: usize) -> usize {
    match entries {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        _ => 4,
    }
}

fn put_column(buf: &mut BytesMut, col: &Column) -> Result<()> {
    match col.nulls().filter(|mask| mask.contains(&true)) {
        Some(mask) => {
            buf.put_u8(1);
            for &null in mask {
                buf.put_u8(null as u8);
            }
        }
        None => buf.put_u8(0),
    }
    match col.data() {
        ColumnData::Int(v) | ColumnData::Time(v) => {
            for &x in v {
                buf.put_i64(x);
            }
        }
        ColumnData::Float(v) => {
            for &x in v {
                buf.put_f64(x);
            }
        }
        ColumnData::Bool(v) => {
            for &b in v {
                buf.put_u8(b as u8);
            }
        }
        ColumnData::Str(v) => put_strings(buf, v)?,
    }
    Ok(())
}

/// The entries the rows use, ascending, then each row's code among them.
fn put_strings(buf: &mut BytesMut, v: &Strings) -> Result<()> {
    let (used, codes) = v.used_ascending();
    buf.put_u32(wire_len(used.len(), "string entry count")?);
    for &c in &used {
        let entry = v.dict().bytes(c);
        buf.put_u32(wire_len(entry.len(), "string length")?);
        buf.put_slice(entry);
    }
    let width = code_width(used.len());
    for c in codes {
        buf.put_slice(&c.to_be_bytes()[4 - width..]);
    }
    Ok(())
}

fn storage(reason: String) -> Error {
    Error::Storage { reason }
}

/// A read cursor over a payload: every read is bounds-checked and a short
/// payload surfaces as a typed `Storage` error.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(storage(format!("wire: truncated {what}")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u32(&mut self, what: &str) -> Result<usize> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    /// `rows` bytes that must each be `0` or `1`.
    fn flags(&mut self, rows: usize, what: &str, poll: &mut StridePoll) -> Result<Vec<bool>> {
        let raw = self.take(rows, what)?;
        let mut out = Vec::with_capacity(rows);
        for &b in raw {
            poll.poll()?;
            match b {
                0 | 1 => out.push(b == 1),
                _ => return Err(storage(format!("wire: bad {what} byte {b}"))),
            }
        }
        Ok(out)
    }

    /// Eight bytes per row, decoded by `f`.
    fn fixed<T>(
        &mut self,
        rows: usize,
        poll: &mut StridePoll,
        f: impl Fn([u8; 8]) -> T,
    ) -> Result<Vec<T>> {
        let raw = self.take(rows.saturating_mul(8), "fixed-width values")?;
        let mut out = Vec::with_capacity(rows);
        for c in raw.chunks_exact(8) {
            poll.poll()?;
            out.push(f([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]));
        }
        Ok(out)
    }

    /// A string column: its entries, checked UTF-8 and strictly
    /// ascending, then one code per row, checked against the entry count.
    /// Decodes straight into a sorted dictionary; no string is copied per
    /// row, so the frame's own bytes bound what decoding allocates.
    fn strings(&mut self, rows: usize, poll: &mut StridePoll) -> Result<Strings> {
        let count = self.u32("string entry count")?;
        // Every entry is some row's and takes at least four bytes.
        if count > rows || count.saturating_mul(4) > self.buf.len() {
            return Err(storage(format!(
                "wire: {count} string entries for {rows} rows"
            )));
        }
        let mut entries: Vec<&str> = Vec::with_capacity(count);
        for k in 0..count {
            let len = self.u32("string length")?;
            let bytes = self.take(len, "string")?;
            let s =
                std::str::from_utf8(bytes).map_err(|e| storage(format!("wire: bad utf8: {e}")))?;
            if entries.last().is_some_and(|prev| prev.as_bytes() >= bytes) {
                return Err(storage(format!(
                    "wire: string entry {k} is not above its predecessor"
                )));
            }
            entries.push(s);
        }
        let width = code_width(count);
        let raw = self.take(rows.saturating_mul(width), "string codes")?;
        let mut codes = Vec::with_capacity(rows);
        for chunk in raw.chunks_exact(width) {
            poll.poll()?;
            let code = chunk.iter().fold(0u32, |c, &b| c << 8 | u32::from(b));
            if code as usize >= count {
                return Err(storage(format!(
                    "wire: string code {code} past {count} entries"
                )));
            }
            codes.push(code);
        }
        Ok(Strings::new(Arc::new(Dict::from_ascending(entries)), codes))
    }

    fn column(&mut self, dtype: DataType, rows: usize, poll: &mut StridePoll) -> Result<Column> {
        let nulls = match self.take(1, "null flag")?[0] {
            0 => None,
            1 => Some(self.flags(rows, "null mask", poll)?),
            b => return Err(storage(format!("wire: bad null flag {b}"))),
        };
        let data = match dtype {
            DataType::Int => ColumnData::Int(self.fixed(rows, poll, i64::from_be_bytes)?),
            DataType::Time => ColumnData::Time(self.fixed(rows, poll, i64::from_be_bytes)?),
            DataType::Float => ColumnData::Float(self.fixed(rows, poll, f64::from_be_bytes)?),
            DataType::Bool => ColumnData::Bool(self.flags(rows, "bool", poll)?),
            DataType::Str => ColumnData::Str(self.strings(rows, poll)?),
        };
        Ok(match nulls {
            Some(mask) => Column::with_nulls(data, mask),
            None => Column::from_data(data),
        })
    }
}

/// Deserialize a relation against a known schema (inverse of [`encode`]).
/// Columns are built typed, so every value belongs to its attribute's
/// domain by construction; a temporal schema's periods are checked
/// non-null and non-empty column-wise. Truncation, string entries out of
/// order or duplicated, codes past the entries, bad UTF-8 and trailing
/// bytes surface as typed `Storage` errors.
pub fn decode(schema: &Schema, bytes: Bytes) -> Result<Relation> {
    let mut r = Reader { buf: &bytes };
    let arity = r.u32("header")?;
    if arity != schema.arity() {
        return Err(storage(format!(
            "wire: arity {arity} does not match schema {}",
            schema.arity()
        )));
    }
    let rows = r.u32("header")?;
    // Zero-column rows occupy no wire bytes, so nothing on the wire could
    // bound such a claim — and no plan produces such a relation (π keeps
    // at least one item).
    if arity == 0 && rows > 0 {
        return Err(storage(format!(
            "wire: {rows} rows claimed for a zero-column schema"
        )));
    }
    // The row layout's share of the claim is reserved before any column
    // is built — a frame of one-byte string codes describes rows that
    // each cost far more than their bytes — and released if the frame is
    // malformed, so a retried fragment is not charged twice.
    let building = tqo_core::context::reserve_current(Relation::row_layout_bytes(rows, arity))?;
    let mut poll = StridePoll::new();
    let mut columns = Vec::with_capacity(arity);
    for attr in schema.attrs() {
        columns.push(Arc::new(r.column(attr.dtype, rows, &mut poll)?));
    }
    if !r.buf.is_empty() {
        return Err(storage(format!(
            "wire: {} trailing bytes after {rows} rows",
            r.buf.len()
        )));
    }
    if let (Some(i1), Some(i2)) = (schema.t1_index(), schema.t2_index()) {
        let (Some(t1), Some(t2)) = (columns[i1].as_i64(), columns[i2].as_i64()) else {
            return Err(storage("wire: null period endpoint".into()));
        };
        for (&start, &end) in t1.iter().zip(t2) {
            poll.poll()?;
            if start >= end {
                return Err(Error::InvalidPeriod { start, end });
            }
        }
    }
    let relation =
        Relation::from_columnar(ColumnarRelation::new(Arc::new(schema.clone()), columns));
    drop(building);
    // Decoded rows are materialized stratum-side state that lives to the
    // end of the query (fragment results are bound into the local plan's
    // environment): charge them to the query's memory budget, denying
    // gracefully before the engine builds on top of them.
    tqo_core::context::charge_current(relation.approx_bytes())?;
    Ok(relation)
}

/// Round-trip a relation through the wire, returning the payload size —
/// the actual work a transfer performs.
pub fn transfer(relation: &Relation) -> Result<(Relation, usize)> {
    let bytes = encode(relation)?;
    let size = bytes.len();
    let decoded = decode(relation.schema(), bytes)?;
    Ok((decoded, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tqo_core::schema::Schema;
    use tqo_core::tuple;
    use tqo_core::tuple::Tuple;

    #[test]
    fn round_trip_preserves_everything() {
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str), ("N", DataType::Int)]),
            vec![
                tuple!["alpha", 1i64, 2i64, 9i64],
                tuple!["βeta", -5i64, 0i64, 4i64],
            ],
        )
        .unwrap();
        let (decoded, size) = transfer(&r).unwrap();
        // Value::Int vs Value::Time compare equal, so equality holds even
        // though the wire normalizes time columns.
        assert_eq!(decoded.tuples(), r.tuples());
        assert!(size > 16);
    }

    #[test]
    fn nulls_bools_floats() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Float), ("B", DataType::Bool)]),
            vec![
                Tuple::new(vec![Value::Null, Value::Bool(true)]),
                Tuple::new(vec![Value::Float(2.5), Value::Bool(false)]),
            ],
        )
        .unwrap();
        let (decoded, _) = transfer(&r).unwrap();
        assert_eq!(decoded.tuples(), r.tuples());
    }

    #[test]
    fn equal_strings_travel_once_and_decode_into_one_entry() {
        let rows: Vec<Tuple> = (0..100).map(|i| tuple!["Sales", i as i64]).collect();
        let r = Relation::new(
            Schema::of(&[("D", DataType::Str), ("N", DataType::Int)]),
            rows,
        )
        .unwrap();
        let bytes = encode(&r).unwrap();
        // header, then the string column as one entry and 100 one-byte
        // codes, then 100 Ints.
        assert_eq!(bytes.len(), 8 + (1 + 4 + 4 + 5 + 100) + (1 + 100 * 8));
        let decoded = decode(r.schema(), bytes).unwrap();
        let col = decoded.columnar().unwrap();
        let ColumnData::Str(v) = col.column(0).data() else {
            panic!("string column decoded as another dtype");
        };
        assert_eq!(v.len(), 100);
        assert_eq!(v.dict().len(), 1);
        assert!(v.dict().is_sorted());
        assert_eq!(v.total_bytes(), 500);
        assert!((0..100).all(|i| v.str_at(i) == "Sales"));
        assert_eq!(decoded, r);
    }

    /// A few rows of a large dictionary ship only their own entries.
    #[test]
    fn a_string_column_ships_only_the_entries_its_rows_use() {
        let mut names = Column::with_capacity(DataType::Str, 5000);
        for i in 0..5000 {
            names.push(&Value::from(format!("emp{i}"))).unwrap();
        }
        let picked = names.gather(&[4999, 7, 7, 1234]);
        let schema = Arc::new(Schema::of(&[("E", DataType::Str)]));
        let r = Relation::from_columnar(ColumnarRelation::new(
            Arc::clone(&schema),
            vec![Arc::new(picked)],
        ));
        let bytes = encode(&r).unwrap();
        // Three entries of at most seven bytes, and four codes.
        assert!(
            bytes.len() <= 8 + 1 + 4 + 3 * (4 + 7) + 4,
            "{}",
            bytes.len()
        );
        let decoded = decode(&schema, bytes).unwrap();
        let ColumnData::Str(v) = decoded.columnar().unwrap().column(0).data().clone() else {
            panic!("string column decoded as another dtype");
        };
        assert!(v.dict().len() <= 4);
        assert_eq!(decoded, r);
    }

    #[test]
    fn schema_mismatch_detected() {
        let r = Relation::new(Schema::of(&[("A", DataType::Int)]), vec![tuple![1i64]]).unwrap();
        let bytes = encode(&r).unwrap();
        let wrong = Schema::of(&[("A", DataType::Int), ("B", DataType::Int)]);
        assert!(decode(&wrong, bytes).is_err());
    }

    #[test]
    fn truncated_payload_detected() {
        let r = Relation::new(Schema::of(&[("A", DataType::Str)]), vec![tuple!["hello"]]).unwrap();
        let bytes = encode(&r).unwrap();
        let cut = bytes.slice(0..bytes.len() - 3);
        assert!(decode(r.schema(), cut).is_err());
    }

    #[test]
    fn every_truncation_errors_not_panics() {
        // Cut mid-header, mid-flag, mid-i64, mid-f64, mid-bool, mid-mask,
        // mid-run header and mid-string: every read must surface a clean
        // typed Err.
        let rels = [
            Relation::new(Schema::of(&[("A", DataType::Int)]), vec![tuple![42i64]]).unwrap(),
            Relation::new(
                Schema::of(&[("F", DataType::Float), ("B", DataType::Bool)]),
                vec![
                    Tuple::new(vec![Value::Float(1.5), Value::Null]),
                    Tuple::new(vec![Value::Null, Value::Bool(true)]),
                ],
            )
            .unwrap(),
            Relation::new(
                Schema::temporal(&[("S", DataType::Str)]),
                vec![tuple!["ab", 1i64, 2i64], tuple!["cd", 1i64, 3i64]],
            )
            .unwrap(),
        ];
        for r in &rels {
            let bytes = encode(r).unwrap();
            for cut_at in 0..bytes.len() {
                let err = decode(r.schema(), bytes.slice(0..cut_at)).unwrap_err();
                assert!(
                    matches!(err, Error::Storage { .. }),
                    "cut at {cut_at}: {err}"
                );
            }
        }
    }

    #[test]
    fn empty_relation() {
        let r = Relation::empty(Schema::of(&[("A", DataType::Int)]));
        let (decoded, size) = transfer(&r).unwrap();
        assert!(decoded.is_empty());
        // The header, then the column's null flag.
        assert_eq!(size, 9);
    }

    /// A payload over `schema` from raw parts: header, then `body`.
    fn payload(arity: u32, rows: u32, body: &[u8]) -> Bytes {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&arity.to_be_bytes());
        bytes.extend_from_slice(&rows.to_be_bytes());
        bytes.extend_from_slice(body);
        Bytes::from(bytes)
    }

    fn storage_error(schema: &Schema, bytes: Bytes) -> String {
        match decode(schema, bytes) {
            Err(Error::Storage { reason }) => reason,
            other => panic!("expected a Storage error, got {other:?}"),
        }
    }

    #[test]
    fn zero_column_row_claims_are_rejected() {
        let none = Schema::of(&[]);
        assert!(storage_error(&none, payload(0, 100_000_000, &[])).contains("zero-column"));
        assert!(decode(&none, payload(0, 0, &[])).unwrap().is_empty());
    }

    /// A string column's body: no null mask, the entries, then `codes`
    /// one byte each.
    fn strings_body(entries: &[&[u8]], codes: &[u8]) -> Vec<u8> {
        let mut body = vec![0u8];
        body.extend_from_slice(&(entries.len() as u32).to_be_bytes());
        for e in entries {
            body.extend_from_slice(&(e.len() as u32).to_be_bytes());
            body.extend_from_slice(e);
        }
        body.extend_from_slice(codes);
        body
    }

    #[test]
    fn malformed_entries_codes_and_flags_are_typed_errors() {
        let s = Schema::of(&[("S", DataType::Str)]);
        let ok = strings_body(&[b"a", b"ok"], &[1, 0]);
        assert_eq!(
            decode(&s, payload(1, 2, &ok)).unwrap(),
            Relation::new(s.clone(), vec![tuple!["ok"], tuple!["a"]]).unwrap()
        );
        // More entries than rows, a code past the entries, entries out of
        // order, a duplicated entry, codes short of the rows, a string
        // longer than the payload, bad UTF-8, a bad null flag, and
        // trailing bytes.
        let three = strings_body(&[b"a", b"b", b"c"], &[0, 1]);
        assert!(storage_error(&s, payload(1, 2, &three)).contains("3 string entries"));
        let past = strings_body(&[b"a", b"ok"], &[1, 2]);
        assert!(storage_error(&s, payload(1, 2, &past)).contains("code 2 past 2 entries"));
        let unsorted = strings_body(&[b"ok", b"a"], &[1, 0]);
        assert!(storage_error(&s, payload(1, 2, &unsorted)).contains("not above"));
        let duplicated = strings_body(&[b"ok", b"ok"], &[1, 0]);
        assert!(storage_error(&s, payload(1, 2, &duplicated)).contains("not above"));
        let short = strings_body(&[b"a", b"ok"], &[1]);
        assert!(storage_error(&s, payload(1, 2, &short)).contains("truncated string codes"));
        let mut long = ok.clone();
        long[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(storage_error(&s, payload(1, 2, &long)).contains("truncated string"));
        let bad = strings_body(&[&[0xff, 0xfe]], &[0, 0]);
        assert!(storage_error(&s, payload(1, 2, &bad)).contains("utf8"));
        let mut flag = ok.clone();
        flag[0] = 7;
        assert!(storage_error(&s, payload(1, 2, &flag)).contains("null flag"));
        let mut trailing = ok;
        trailing.push(0);
        assert!(storage_error(&s, payload(1, 2, &trailing)).contains("trailing"));
    }

    #[test]
    fn code_width_follows_the_entry_count() {
        for (n, width) in [(0, 1), (256, 1), (257, 2), (65_536, 2), (65_537, 4)] {
            assert_eq!(code_width(n), width, "{n} entries");
        }
        // 300 distinct values travel as two-byte codes and decode back.
        let r = Relation::new(
            Schema::of(&[("S", DataType::Str)]),
            (0..300).map(|i| tuple![format!("v{i}")]).collect(),
        )
        .unwrap();
        let bytes = encode(&r).unwrap();
        let entries: usize = (0..300).map(|i| 4 + format!("v{i}").len()).sum();
        assert_eq!(bytes.len(), 8 + 1 + 4 + entries + 300 * 2);
        assert_eq!(decode(r.schema(), bytes).unwrap(), r);
    }

    #[test]
    fn periods_are_checked_column_wise() {
        let s = Schema::temporal(&[("E", DataType::Int)]);
        let mut body = Vec::new();
        for values in [[7i64], [5], [5]] {
            body.push(0u8);
            body.extend(values.iter().flat_map(|v| v.to_be_bytes()));
        }
        assert_eq!(
            decode(&s, payload(3, 1, &body)).unwrap_err(),
            Error::InvalidPeriod { start: 5, end: 5 }
        );
        // A null endpoint is no period at all.
        let mut nulled = Vec::new();
        nulled.extend_from_slice(&[0u8; 9]);
        nulled.extend_from_slice(&[1u8, 1]);
        nulled.extend_from_slice(&[0u8; 8]);
        nulled.push(0u8);
        nulled.extend_from_slice(&9i64.to_be_bytes());
        assert!(storage_error(&s, payload(3, 1, &nulled)).contains("null period"));
    }

    #[test]
    fn budgets_see_decoded_footprints_and_nothing_of_malformed_frames() {
        use tqo_core::context::{install, QueryContext};
        let r = Relation::new(
            Schema::of(&[("S", DataType::Str)]),
            vec![tuple!["ab"], tuple!["ab"], tuple!["c"]],
        )
        .unwrap();
        let bytes = encode(&r).unwrap();
        let ctx = QueryContext::new().with_memory_limit(1 << 20);
        let _guard = install(&ctx);
        // A cut frame (a fault a retry absorbs) leaves nothing charged.
        assert!(decode(r.schema(), bytes.slice(0..bytes.len() - 1)).is_err());
        assert_eq!(ctx.budget().used(), 0);
        let decoded = decode(r.schema(), bytes).unwrap();
        assert_eq!(ctx.budget().used(), decoded.approx_bytes());
        // A frame claiming more rows than the budget holds is denied
        // before a row is built.
        let mut huge = Vec::new();
        for word in [1, u32::MAX] {
            huge.extend_from_slice(&word.to_be_bytes());
        }
        huge.extend(strings_body(&[b""], &[]));
        let started = std::time::Instant::now();
        let err = decode(r.schema(), Bytes::from(huge)).unwrap_err();
        assert!(matches!(err, Error::MemoryBudget { .. }), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn string_codes_are_charged_as_the_strings_they_expand_to() {
        use tqo_core::context::{install, QueryContext};
        // One 4 KiB entry under 4 096 one-byte codes: an 8 KiB frame that
        // stands for 16 MiB of row-layout strings, denied as such.
        let (rows, text) = (4096u32, [b'x'; 4096]);
        let body = strings_body(&[&text], &vec![0u8; rows as usize]);
        let ctx = QueryContext::new().with_memory_limit(1 << 20);
        let _guard = install(&ctx);
        match decode(
            &Schema::of(&[("S", DataType::Str)]),
            payload(1, rows, &body),
        ) {
            Err(Error::MemoryBudget { requested, .. }) => assert!(requested >= 4096 * 4096),
            other => panic!("expected the string bytes denied, got {other:?}"),
        }
        assert_eq!(ctx.budget().used(), 0);
    }

    const DTYPES: [DataType; 5] = [
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Str,
        DataType::Time,
    ];
    const WORDS: [&str; 5] = ["", "Sales", "Advertising", "βeta", "a\u{0}b"];

    fn random_value(rng: &mut StdRng, dtype: DataType, nullable: bool, prev: &Value) -> Value {
        if nullable && rng.gen_range(0u8..4) == 0 {
            return Value::Null;
        }
        // Repeat the previous row's value often, so equal strings follow
        // each other.
        if !prev.is_null() && rng.gen_range(0u8..3) == 0 {
            return prev.clone();
        }
        match dtype {
            DataType::Int => Value::Int(match rng.gen_range(0u8..4) {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => rng.gen_range(-50i64..50),
            }),
            DataType::Time => Value::Time(rng.gen_range(-50i64..50)),
            DataType::Float => Value::Float(match rng.gen_range(0u8..5) {
                0 => f64::NAN,
                1 => -0.0,
                2 => f64::INFINITY,
                _ => rng.gen_range(-100i64..100) as f64 / 4.0,
            }),
            DataType::Bool => Value::Bool(rng.gen()),
            DataType::Str => Value::from(WORDS[rng.gen_range(0..WORDS.len())]),
        }
    }

    fn random_relation(rng: &mut StdRng) -> Relation {
        let arity = rng.gen_range(1usize..=4);
        let attrs: Vec<(String, DataType)> = (0..arity)
            .map(|i| (format!("A{i}"), DTYPES[rng.gen_range(0..DTYPES.len())]))
            .collect();
        let named: Vec<(&str, DataType)> = attrs.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        let temporal = rng.gen();
        let schema = if temporal {
            Schema::temporal(&named)
        } else {
            Schema::of(&named)
        };
        let nullable = rng.gen();
        let rows = match rng.gen_range(0u8..4) {
            0 => 0,
            1 => rng.gen_range(1usize..4),
            _ => rng.gen_range(1usize..300),
        };
        let mut prev = vec![Value::Null; arity];
        let tuples = (0..rows)
            .map(|_| {
                let mut values: Vec<Value> = named
                    .iter()
                    .zip(&prev)
                    .map(|((_, d), p)| random_value(rng, *d, nullable, p))
                    .collect();
                prev.clone_from(&values);
                if temporal {
                    let start = rng.gen_range(-20i64..20);
                    values.push(Value::Time(start));
                    values.push(Value::Time(start + rng.gen_range(1i64..10)));
                }
                Tuple::new(values)
            })
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    /// Seeded round-trip property over every dtype, with and without
    /// NULLs, repeated strings, temporal schemas and empty relations: the wire
    /// returns the relation it was given, and the footprint a budget is
    /// charged is the same whether a relation is born in columns or in
    /// tuples.
    #[test]
    fn column_frames_round_trip_random_relations() {
        let mut rng = StdRng::seed_from_u64(0x5EED_F4A3E);
        for case in 0..400 {
            let r = random_relation(&mut rng);
            let tuple_walk: usize = r.tuples().iter().map(Tuple::approx_bytes).sum();
            let decoded = decode(r.schema(), encode(&r).unwrap()).unwrap();
            assert_eq!(decoded, r, "case {case}");
            assert_eq!(decoded.len(), r.len(), "case {case}");
            let column_born = ColumnarRelation::from_relation(&r).unwrap().to_relation();
            for (what, rel) in [("decoded", &decoded), ("column-born", &column_born)] {
                assert_eq!(rel.approx_bytes(), tuple_walk, "case {case}: {what}");
            }
            // Re-encoding the decoded relation reproduces the frame.
            assert_eq!(
                &encode(&decoded).unwrap()[..],
                &encode(&r).unwrap()[..],
                "case {case}"
            );
        }
    }
}
