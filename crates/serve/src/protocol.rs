//! The serving wire protocol: framed requests and responses.
//!
//! Every message travels as one **frame**: a `u32` big-endian length
//! prefix followed by that many payload bytes — the same length-prefixed
//! discipline the stratum transfer wire uses, so a reader can never
//! desynchronize on a malformed payload (it skips exactly one frame and
//! surfaces a typed error). Request values reuse
//! [`tqo_stratum::wire`]'s tagged binary encoding verbatim; a result
//! relation rides as an inline schema plus a [`wire::encode`] column
//! frame — per column a null flag (and mask), then fixed-width values, one
//! byte per `Bool`, or a string column's used dictionary entries and one
//! code per row — which the client decodes into typed columns without
//! building a tuple (see [`wire::encode`] for the layout).
//!
//! Sessions are sequential per connection: a client writes one request
//! frame and reads exactly one response frame before the next request.
//! Concurrency comes from many connections, not pipelining — which keeps
//! per-query attribution (errors, budgets, cancellation) trivial.
//!
//! Errors cross the wire **typed**: the governance, admission and
//! internal (caught-panic) variants are encoded structurally
//! (variant tag plus fields) and decode back to the exact
//! [`Error`] value; the long tail of planning
//! errors degrades to [`Error::Plan`] with the rendered message.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use tqo_core::error::{Error, Result};
use tqo_core::relation::Relation;
use tqo_core::schema::{Attribute, Schema};
use tqo_core::time::Period;
use tqo_core::value::{DataType, Value};
use tqo_exec::ExecMode;
use tqo_stratum::wire;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Compile, schedule, and execute a SQL query.
    Query {
        /// The SQL text (same dialect as the shell and conformance
        /// corpus).
        sql: String,
        /// The engine the client asked for. Every tag decodes to an alias
        /// of the batch engine, which runs every query; the field stays so
        /// that tags 1 (`Row`) and 2 (`Parallel`) keep decoding.
        mode: ExecMode,
        /// Deadline in milliseconds (`0` = none).
        timeout_ms: u64,
        /// Memory budget in bytes (`0` = unlimited).
        memory_limit: u64,
        /// Deterministically cancel on the n-th governance checkpoint
        /// (`0` = never) — the chaos suites' cancellation hook.
        cancel_polls: u64,
    },
    /// Sequenced insert of one row valid over `period`.
    Insert {
        /// Target table.
        table: String,
        /// Explicit (non-period) attribute values, schema order.
        values: Vec<Value>,
        /// Applicability period.
        period: Period,
    },
    /// Sequenced delete of rows matching `column = value` over `period`.
    Delete {
        /// Target table.
        table: String,
        /// Attribute the equality predicate tests.
        column: String,
        /// Value the predicate compares against.
        value: Value,
        /// Applicability period.
        period: Period,
    },
    /// Ask the server to stop accepting connections and drain.
    Shutdown,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A query's result relation.
    Rows(Relation),
    /// A mutation or shutdown acknowledged.
    Done,
    /// The request failed with a typed error.
    Fail(Error),
}

// --- primitives -----------------------------------------------------------

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(truncated("string length"));
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(truncated("string bytes"));
    }
    let bytes = buf.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|e| Error::Storage {
        reason: format!("serve wire: bad utf8: {e}"),
    })
}

fn get_u8(buf: &mut Bytes, what: &str) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(truncated(what));
    }
    Ok(buf.get_u8())
}

fn get_u64(buf: &mut Bytes, what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(buf.get_u64())
}

fn get_i64(buf: &mut Bytes, what: &str) -> Result<i64> {
    if buf.remaining() < 8 {
        return Err(truncated(what));
    }
    Ok(buf.get_i64())
}

fn truncated(what: &str) -> Error {
    Error::Storage {
        reason: format!("serve wire: truncated {what}"),
    }
}

fn put_period(buf: &mut BytesMut, p: Period) {
    buf.put_i64(p.start);
    buf.put_i64(p.end);
}

fn get_period(buf: &mut Bytes) -> Result<Period> {
    let start = get_i64(buf, "period start")?;
    let end = get_i64(buf, "period end")?;
    Period::new(start, end)
}

fn dtype_code(d: DataType) -> u8 {
    match d {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
        DataType::Time => 4,
    }
}

fn dtype_of(code: u8) -> Result<DataType> {
    Ok(match code {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 => DataType::Time,
        c => {
            return Err(Error::Storage {
                reason: format!("serve wire: unknown dtype code {c}"),
            })
        }
    })
}

fn put_schema(buf: &mut BytesMut, schema: &Schema) {
    buf.put_u32(schema.arity() as u32);
    for a in schema.attrs() {
        put_str(buf, &a.name);
        buf.put_u8(dtype_code(a.dtype));
    }
}

fn get_schema(buf: &mut Bytes) -> Result<Schema> {
    if buf.remaining() < 4 {
        return Err(truncated("schema arity"));
    }
    let arity = buf.get_u32() as usize;
    let mut attrs = Vec::with_capacity(arity.min(64));
    for _ in 0..arity {
        let name = get_str(buf)?;
        let dtype = dtype_of(get_u8(buf, "dtype code")?)?;
        attrs.push(Attribute::new(name, dtype));
    }
    Schema::new(attrs)
}

fn put_mode(buf: &mut BytesMut, mode: ExecMode) {
    match mode {
        ExecMode::Batch => {
            buf.put_u8(0);
            buf.put_u32(0);
        }
        ExecMode::Row => {
            buf.put_u8(1);
            buf.put_u32(0);
        }
        ExecMode::Parallel { threads } => {
            buf.put_u8(2);
            buf.put_u32(threads as u32);
        }
    }
}

fn get_mode(buf: &mut Bytes) -> Result<ExecMode> {
    let tag = get_u8(buf, "exec mode")?;
    if buf.remaining() < 4 {
        return Err(truncated("exec mode threads"));
    }
    let threads = buf.get_u32() as usize;
    Ok(match tag {
        0 => ExecMode::Batch,
        1 => ExecMode::Row,
        2 => ExecMode::Parallel { threads },
        t => {
            return Err(Error::Storage {
                reason: format!("serve wire: unknown exec mode {t}"),
            })
        }
    })
}

// --- errors ---------------------------------------------------------------

fn put_error(buf: &mut BytesMut, e: &Error) {
    match e {
        Error::Cancelled => buf.put_u8(1),
        Error::DeadlineExceeded { limit_ms } => {
            buf.put_u8(2);
            buf.put_u64(*limit_ms);
        }
        Error::MemoryBudget {
            requested,
            used,
            limit,
        } => {
            buf.put_u8(3);
            buf.put_u64(*requested as u64);
            buf.put_u64(*used as u64);
            buf.put_u64(*limit as u64);
        }
        Error::AdmissionRejected { active, limit } => {
            buf.put_u8(4);
            buf.put_u64(*active as u64);
            buf.put_u64(*limit as u64);
        }
        Error::Parse { reason } => {
            buf.put_u8(5);
            put_str(buf, reason);
        }
        Error::Unsupported { construct } => {
            buf.put_u8(6);
            put_str(buf, construct);
        }
        Error::Storage { reason } => {
            buf.put_u8(7);
            put_str(buf, reason);
        }
        Error::Internal { reason } => {
            buf.put_u8(8);
            put_str(buf, reason);
        }
        other => {
            buf.put_u8(0);
            put_str(buf, &other.to_string());
        }
    }
}

fn get_error(buf: &mut Bytes) -> Result<Error> {
    Ok(match get_u8(buf, "error tag")? {
        1 => Error::Cancelled,
        2 => Error::DeadlineExceeded {
            limit_ms: get_u64(buf, "deadline limit")?,
        },
        3 => Error::MemoryBudget {
            requested: get_u64(buf, "budget requested")? as usize,
            used: get_u64(buf, "budget used")? as usize,
            limit: get_u64(buf, "budget limit")? as usize,
        },
        4 => Error::AdmissionRejected {
            active: get_u64(buf, "admission active")? as usize,
            limit: get_u64(buf, "admission limit")? as usize,
        },
        5 => Error::Parse {
            reason: get_str(buf)?,
        },
        6 => Error::Unsupported {
            construct: get_str(buf)?,
        },
        7 => Error::Storage {
            reason: get_str(buf)?,
        },
        8 => Error::Internal {
            reason: get_str(buf)?,
        },
        0 => Error::Plan {
            reason: get_str(buf)?,
        },
        t => {
            return Err(Error::Storage {
                reason: format!("serve wire: unknown error tag {t}"),
            })
        }
    })
}

// --- requests -------------------------------------------------------------

/// Encode a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    match req {
        Request::Ping => buf.put_u8(0),
        Request::Query {
            sql,
            mode,
            timeout_ms,
            memory_limit,
            cancel_polls,
        } => {
            buf.put_u8(1);
            put_str(&mut buf, sql);
            put_mode(&mut buf, *mode);
            buf.put_u64(*timeout_ms);
            buf.put_u64(*memory_limit);
            buf.put_u64(*cancel_polls);
        }
        Request::Insert {
            table,
            values,
            period,
        } => {
            buf.put_u8(2);
            put_str(&mut buf, table);
            buf.put_u32(values.len() as u32);
            for v in values {
                wire::put_value(&mut buf, v);
            }
            put_period(&mut buf, *period);
        }
        Request::Delete {
            table,
            column,
            value,
            period,
        } => {
            buf.put_u8(3);
            put_str(&mut buf, table);
            put_str(&mut buf, column);
            wire::put_value(&mut buf, value);
            put_period(&mut buf, *period);
        }
        Request::Shutdown => buf.put_u8(4),
    }
    buf.freeze()
}

/// Decode a request frame payload.
pub fn decode_request(mut bytes: Bytes) -> Result<Request> {
    Ok(match get_u8(&mut bytes, "request tag")? {
        0 => Request::Ping,
        1 => Request::Query {
            sql: get_str(&mut bytes)?,
            mode: get_mode(&mut bytes)?,
            timeout_ms: get_u64(&mut bytes, "timeout")?,
            memory_limit: get_u64(&mut bytes, "memory limit")?,
            cancel_polls: get_u64(&mut bytes, "cancel polls")?,
        },
        2 => {
            let table = get_str(&mut bytes)?;
            if bytes.remaining() < 4 {
                return Err(truncated("value count"));
            }
            let n = bytes.get_u32() as usize;
            let mut values = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                values.push(wire::get_value(&mut bytes)?);
            }
            Request::Insert {
                table,
                values,
                period: get_period(&mut bytes)?,
            }
        }
        3 => Request::Delete {
            table: get_str(&mut bytes)?,
            column: get_str(&mut bytes)?,
            value: wire::get_value(&mut bytes)?,
            period: get_period(&mut bytes)?,
        },
        4 => Request::Shutdown,
        t => {
            return Err(Error::Storage {
                reason: format!("serve wire: unknown request tag {t}"),
            })
        }
    })
}

// --- responses ------------------------------------------------------------

/// Encode a response into a frame payload. A `Rows` payload is written
/// into the same buffer as the tag and schema, which grows once, up front,
/// to the column frame's size bound.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_response_into(&mut buf, resp);
    buf.freeze()
}

/// [`encode_response`] into `buf`, replacing what it held: a session
/// that keeps one buffer reuses its pages for every response.
pub fn encode_response_into(buf: &mut BytesMut, resp: &Response) {
    encode_response_inner(buf, resp, None);
}

/// [`encode_response`] with a row-payload mutilator (seeded fault
/// injection; tests only drive this through the server's fault config):
/// a `Rows` payload is replaced by the mutilator's copy, and its
/// advertised length shrinks with it, so framing survives and the
/// client's decode fails typed.
pub fn encode_response_faulted(resp: &Response, mutilate: impl FnOnce(Bytes) -> Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_response_inner(&mut buf, resp, Some(Box::new(mutilate)));
    buf.freeze()
}

#[allow(clippy::type_complexity)]
fn encode_response_inner(
    buf: &mut BytesMut,
    resp: &Response,
    mutilate: Option<Box<dyn FnOnce(Bytes) -> Bytes + '_>>,
) {
    buf.clear();
    match resp {
        Response::Pong => buf.put_u8(0),
        Response::Rows(rel) => {
            buf.put_u8(1);
            put_schema(buf, rel.schema());
            let at = buf.len();
            buf.put_u32(0);
            let written = match mutilate {
                None => wire::encode_into(buf, rel),
                Some(f) => wire::encode(rel).map(|payload| buf.put_slice(&f(payload))),
            };
            // A relation that cannot be laid out in columns fails its
            // own query, typed, rather than the connection.
            if let Err(e) = written {
                return encode_response_inner(buf, &Response::Fail(e), None);
            }
            let len = (buf.len() - at - 4) as u32;
            buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
        }
        Response::Done => buf.put_u8(2),
        Response::Fail(e) => {
            buf.put_u8(3);
            put_error(buf, e);
        }
    }
}

/// Decode a response frame payload. A truncated or corrupted row payload
/// surfaces as the decode's typed `Storage` error, never a panic or a
/// desynchronized stream.
pub fn decode_response(mut bytes: Bytes) -> Result<Response> {
    Ok(match get_u8(&mut bytes, "response tag")? {
        0 => Response::Pong,
        1 => {
            let schema = get_schema(&mut bytes)?;
            if bytes.remaining() < 4 {
                return Err(truncated("row payload length"));
            }
            let len = bytes.get_u32() as usize;
            if bytes.remaining() < len {
                return Err(truncated("row payload"));
            }
            let payload = bytes.copy_to_bytes(len);
            Response::Rows(wire::decode(&schema, payload)?)
        }
        2 => Response::Done,
        3 => Response::Fail(get_error(&mut bytes)?),
        t => {
            return Err(Error::Storage {
                reason: format!("serve wire: unknown response tag {t}"),
            })
        }
    })
}

// --- framing --------------------------------------------------------------

/// Write one frame (`u32` length prefix + payload) to `w`.
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::tuple;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Ping,
            Request::Query {
                sql: "VALIDTIME SELECT EmpName FROM EMPLOYEE".into(),
                mode: ExecMode::Parallel { threads: 4 },
                timeout_ms: 250,
                memory_limit: 1 << 20,
                cancel_polls: 3,
            },
            Request::Insert {
                table: "EMPLOYEE".into(),
                values: vec![Value::from("Zoe"), Value::from("Sales")],
                period: Period::of(3, 9),
            },
            Request::Delete {
                table: "EMPLOYEE".into(),
                column: "EmpName".into(),
                value: Value::from("Zoe"),
                period: Period::of(3, 9),
            },
            Request::Shutdown,
        ];
        for req in reqs {
            let decoded = decode_request(encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let rel = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 4i64], tuple!["b", 2i64, 5i64]],
        )
        .unwrap();
        let resps = [
            Response::Pong,
            Response::Rows(rel),
            Response::Done,
            Response::Fail(Error::Cancelled),
            Response::Fail(Error::DeadlineExceeded { limit_ms: 10 }),
            Response::Fail(Error::AdmissionRejected {
                active: 8,
                limit: 8,
            }),
            Response::Fail(Error::MemoryBudget {
                requested: 100,
                used: 5,
                limit: 64,
            }),
            Response::Fail(Error::Parse {
                reason: "bad token".into(),
            }),
            Response::Fail(Error::Unsupported {
                construct: "OUTER JOIN".into(),
            }),
            Response::Fail(Error::Storage {
                reason: "injected".into(),
            }),
            Response::Fail(Error::Internal {
                reason: "stage panicked: index out of bounds".into(),
            }),
        ];
        for resp in resps {
            let decoded = decode_response(encode_response(&resp)).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn lossy_error_tail_degrades_to_plan() {
        let resp = Response::Fail(Error::Arithmetic {
            reason: "division by zero",
        });
        let decoded = decode_response(encode_response(&resp)).unwrap();
        assert_eq!(
            decoded,
            Response::Fail(Error::Plan {
                reason: "arithmetic error: division by zero".into()
            })
        );
    }

    #[test]
    fn a_rows_payload_is_the_tag_schema_and_column_frame_in_one_buffer() {
        let rel = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            vec![tuple!["a", 1i64, 4i64], tuple!["b", 2i64, 5i64]],
        )
        .unwrap();
        let payload = encode_response(&Response::Rows(rel.clone()));
        let mut want = BytesMut::with_capacity(0);
        want.put_u8(1);
        put_schema(&mut want, rel.schema());
        let frame = wire::encode(&rel).unwrap();
        want.put_u32(frame.len() as u32);
        want.put_slice(&frame);
        assert_eq!(&payload[..], &want[..]);
    }

    #[test]
    fn truncated_row_payload_fails_typed_without_desync() {
        let rel = Relation::new(
            Schema::of(&[("A", DataType::Str)]),
            vec![tuple!["hello"], tuple!["world"]],
        )
        .unwrap();
        let framed = encode_response_faulted(&Response::Rows(rel), |b| b.slice(0..b.len() - 3));
        let err = decode_response(framed).unwrap_err();
        assert!(matches!(err, Error::Storage { .. }), "{err}");
    }
}
