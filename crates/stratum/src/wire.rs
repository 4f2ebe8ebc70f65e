//! The transfer wire: relation serialization between the DBMS and the
//! stratum, and for the serving protocol's result frames.
//!
//! Transfers in a layered deployment move results through a client
//! protocol; the dominant cost is serialization and copying. This module
//! performs that work for real (a compact binary encoding via `bytes`), so
//! transfer costs in benchmarks are measured, not modeled. Relations
//! travel column by column ([`encode`]): fixed-width values back to back,
//! strings as runs of equal values, so neither side touches a tuple —
//! a decoded relation is born in columns and builds its tuple list only
//! if someone reads it. Single values (request parameters) use the
//! tagged encoding of [`put_value`].

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use tqo_core::columnar::{Column, ColumnData, ColumnarRelation, Strings};
use tqo_core::context::{Reservation, StridePoll};
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
///   for `Bool`, and for `Str` a `u32` run count followed by runs of equal
///   strings, each `u32` run length, `u32` byte length, UTF-8 bytes.
///
/// Reads the relation's columns, which every engine result has resident;
/// a relation born in tuples is transposed first.
pub fn encode(relation: &Relation) -> Result<Bytes> {
    let columnar = relation.columnar()?;
    let rows = columnar.rows();
    let hint: usize = columnar
        .columns()
        .iter()
        .map(|c| {
            let values = match c.data() {
                ColumnData::Int(_) | ColumnData::Time(_) | ColumnData::Float(_) => rows * 8,
                ColumnData::Bool(_) => rows,
                // At most one run per row: reserve that, so the buffer
                // never regrows (untouched capacity costs no pages).
                ColumnData::Str(_) => 4 + rows * 8 + c.str_bytes(),
            };
            1 + values + if c.has_nulls() { rows } else { 0 }
        })
        .sum();
    let mut buf = BytesMut::with_capacity(8 + hint);
    buf.put_u32(wire_len(columnar.columns().len(), "arity")?);
    buf.put_u32(wire_len(rows, "row count")?);
    for col in columnar.columns() {
        put_column(&mut buf, col)?;
    }
    Ok(buf.freeze())
}

/// A length as the frame's `u32`; a relation past that limit fails typed
/// rather than writing a truncated count. Every run length and run count
/// is at most the row count, so checking that covers them.
fn wire_len(n: usize, what: &str) -> Result<u32> {
    u32::try_from(n).map_err(|_| storage(format!("wire: {what} {n} exceeds u32")))
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
        ColumnData::Str(v) => put_runs(buf, v)?,
    }
    Ok(())
}

/// Runs of equal strings (byte equality), in one pass: the run count is
/// patched in once the runs are written.
fn put_runs(buf: &mut BytesMut, v: &Strings) -> Result<()> {
    let count_at = buf.len();
    buf.put_u32(0);
    let mut count = 0u32;
    let mut start = 0;
    while start < v.len() {
        let s = v.bytes_at(start);
        let end = start
            + 1
            + (start + 1..v.len())
                .take_while(|&j| v.bytes_at(j) == s)
                .count();
        // A run is at most the row count, which the header checked.
        buf.put_u32((end - start) as u32);
        buf.put_u32(wire_len(s.len(), "string length")?);
        buf.put_slice(s);
        count += 1;
        start = end;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_be_bytes());
    Ok(())
}

fn storage(reason: String) -> Error {
    Error::Storage { reason }
}

/// A read cursor over a payload: every read is bounds-checked and a short
/// payload surfaces as a typed `Storage` error.
struct Reader<'a> {
    buf: &'a [u8],
    /// The budget reservations of the string bytes built so far.
    strings: Vec<Reservation>,
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

    /// A string column's runs. The run headers are read and checked (run
    /// count, run lengths, string lengths, UTF-8) and the bytes the runs
    /// expand to are reserved against the budget before any row is built,
    /// so a lying header costs what its bytes cost; then each run's string
    /// is appended once per row.
    fn runs(&mut self, rows: usize, poll: &mut StridePoll) -> Result<Strings> {
        let count = self.u32("string run count")?;
        // Every run covers at least one row and takes at least eight bytes.
        if count > rows || count.saturating_mul(8) > self.buf.len() {
            return Err(storage(format!(
                "wire: {count} string runs cannot cover {rows} rows"
            )));
        }
        let mut runs = Vec::with_capacity(count);
        let mut covered = 0usize;
        let mut expanded = 0usize;
        for _ in 0..count {
            let n = self.u32("string run length")?;
            if n == 0 || n > rows - covered {
                return Err(storage(format!(
                    "wire: string run of {n} rows at row {covered} of {rows}"
                )));
            }
            covered += n;
            let len = self.u32("string length")?;
            let bytes = self.take(len, "string")?;
            let s =
                std::str::from_utf8(bytes).map_err(|e| storage(format!("wire: bad utf8: {e}")))?;
            expanded = expanded.saturating_add(n.saturating_mul(len));
            runs.push((n, s));
        }
        if covered != rows {
            return Err(storage(format!(
                "wire: string runs cover {covered} of {rows} rows"
            )));
        }
        self.strings
            .extend(tqo_core::context::reserve_current(expanded)?);
        let mut out = Strings::with_capacity(rows, expanded);
        for (n, s) in runs {
            for _ in 0..n {
                poll.poll()?;
                out.push(s);
            }
        }
        Ok(out)
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
            DataType::Str => ColumnData::Str(self.runs(rows, poll)?),
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
/// non-null and non-empty column-wise. Truncation, bad run lengths, bad
/// UTF-8 and trailing bytes surface as typed `Storage` errors.
pub fn decode(schema: &Schema, bytes: Bytes) -> Result<Relation> {
    let mut r = Reader {
        buf: &bytes,
        strings: Vec::new(),
    };
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
    // is built — a frame of long string runs can describe far more rows
    // than it has bytes — and released if the frame is malformed, so a
    // retried fragment is not charged twice.
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
    drop(r);
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
    fn equal_strings_travel_once_and_decode_into_one_buffer() {
        let rows: Vec<Tuple> = (0..100).map(|i| tuple!["Sales", i as i64]).collect();
        let r = Relation::new(
            Schema::of(&[("D", DataType::Str), ("N", DataType::Int)]),
            rows,
        )
        .unwrap();
        let bytes = encode(&r).unwrap();
        // header, then the string column as one run, then 100 Ints.
        assert_eq!(bytes.len(), 8 + (1 + 4 + 8 + 5) + (1 + 100 * 8));
        let decoded = decode(r.schema(), bytes).unwrap();
        let col = decoded.columnar().unwrap();
        let ColumnData::Str(v) = col.column(0).data() else {
            panic!("string column decoded as another dtype");
        };
        // One buffer holds the column: 100 values of five bytes.
        assert_eq!(v.len(), 100);
        assert_eq!(v.total_bytes(), 500);
        assert!((0..100).all(|i| v.str_at(i) == "Sales"));
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

    #[test]
    fn malformed_runs_flags_and_strings_are_typed_errors() {
        let s = Schema::of(&[("S", DataType::Str)]);
        let run = |count: u32, n: u32, text: &[u8]| {
            let mut body = vec![0u8];
            body.extend_from_slice(&count.to_be_bytes());
            body.extend_from_slice(&n.to_be_bytes());
            body.extend_from_slice(&(text.len() as u32).to_be_bytes());
            body.extend_from_slice(text);
            body
        };
        assert!(decode(&s, payload(1, 2, &run(1, 2, b"ok"))).is_ok());
        // More runs than rows, a run past the rows, an empty run, runs
        // short of the rows, a string longer than the payload, bad UTF-8,
        // a bad null flag, and trailing bytes.
        assert!(storage_error(&s, payload(1, 2, &run(3, 2, b"ok"))).contains("runs"));
        assert!(storage_error(&s, payload(1, 2, &run(1, 3, b"ok"))).contains("run of 3"));
        assert!(storage_error(&s, payload(1, 2, &run(1, 0, b"ok"))).contains("run of 0"));
        assert!(storage_error(&s, payload(1, 3, &run(1, 2, b"ok"))).contains("cover 2 of 3"));
        let mut long = run(1, 2, b"ok");
        long[9..13].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(storage_error(&s, payload(1, 2, &long)).contains("truncated string"));
        assert!(storage_error(&s, payload(1, 2, &run(1, 2, &[0xff, 0xfe]))).contains("utf8"));
        let mut flag = run(1, 2, b"ok");
        flag[0] = 7;
        assert!(storage_error(&s, payload(1, 2, &flag)).contains("null flag"));
        let mut trailing = run(1, 2, b"ok");
        trailing.push(0);
        assert!(storage_error(&s, payload(1, 2, &trailing)).contains("trailing"));
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
        // A consistent frame of one long run claims more rows than the
        // budget holds: denied before a row is built.
        let mut huge = Vec::new();
        for word in [1, u32::MAX] {
            huge.extend_from_slice(&word.to_be_bytes());
        }
        huge.push(0);
        for word in [1, u32::MAX, 0] {
            huge.extend_from_slice(&word.to_be_bytes());
        }
        let started = std::time::Instant::now();
        let err = decode(r.schema(), Bytes::from(huge)).unwrap_err();
        assert!(matches!(err, Error::MemoryBudget { .. }), "{err}");
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn string_runs_are_reserved_before_they_expand() {
        use tqo_core::context::{install, QueryContext};
        // One 4 KiB string over 4 096 rows: a 4 KiB frame that expands to
        // 16 MiB of column bytes, denied before any is copied.
        let (rows, text) = (4096u32, [b'x'; 4096]);
        let mut body = vec![0u8];
        for word in [1, rows, text.len() as u32] {
            body.extend_from_slice(&word.to_be_bytes());
        }
        body.extend_from_slice(&text);
        let ctx = QueryContext::new().with_memory_limit(1 << 20);
        let _guard = install(&ctx);
        match decode(
            &Schema::of(&[("S", DataType::Str)]),
            payload(1, rows, &body),
        ) {
            Err(Error::MemoryBudget { requested, .. }) => assert_eq!(requested, 4096 * 4096),
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
        // Repeat the previous row's value often, so string runs form.
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
    /// NULLs, string runs, temporal schemas and empty relations: the wire
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
