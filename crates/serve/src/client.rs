//! A small blocking client for the serving protocol.

use std::io::Read;
use std::net::TcpStream;

use bytes::Bytes;

use tqo_core::error::{Error, Result};
use tqo_core::relation::Relation;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_exec::ExecMode;

use crate::protocol::{decode_response, encode_request, write_frame, Request, Response};

/// Per-query options for [`Client::query_with`].
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Deadline in milliseconds (`0` = none).
    pub timeout_ms: u64,
    /// Memory budget in bytes (`0` = unlimited).
    pub memory_limit: u64,
    /// Deterministically cancel on the n-th checkpoint (`0` = never).
    pub cancel_polls: u64,
}

/// One connection to a serving front-end. Requests are sequential: each
/// call writes one frame and blocks for its one response frame.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server (e.g. the address [`crate::Server::addr`]
    /// reports).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Run `sql` with default options and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<Relation> {
        self.query_with(sql, QueryOpts::default())
    }

    /// Run `sql` with explicit deadline/budget options.
    pub fn query_with(&mut self, sql: &str, opts: QueryOpts) -> Result<Relation> {
        let req = Request::Query {
            sql: sql.to_owned(),
            mode: ExecMode::Batch,
            timeout_ms: opts.timeout_ms,
            memory_limit: opts.memory_limit,
            cancel_polls: opts.cancel_polls,
        };
        match self.roundtrip(&req)? {
            Response::Rows(rel) => Ok(rel),
            Response::Fail(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }

    /// Sequenced insert of one row valid over `period`.
    pub fn insert(&mut self, table: &str, values: Vec<Value>, period: Period) -> Result<()> {
        let req = Request::Insert {
            table: table.to_owned(),
            values,
            period,
        };
        self.ack(&req)
    }

    /// Sequenced delete of rows matching `column = value` over `period`.
    pub fn delete(
        &mut self,
        table: &str,
        column: &str,
        value: Value,
        period: Period,
    ) -> Result<()> {
        let req = Request::Delete {
            table: table.to_owned(),
            column: column.to_owned(),
            value,
            period,
        };
        self.ack(&req)
    }

    /// Ask the server to shut down gracefully (drains before exiting).
    pub fn shutdown(&mut self) -> Result<()> {
        self.ack(&Request::Shutdown)
    }

    fn ack(&mut self, req: &Request) -> Result<()> {
        match self.roundtrip(req)? {
            Response::Done => Ok(()),
            Response::Fail(e) => Err(e),
            other => Err(unexpected(&other)),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &encode_request(req)).map_err(io_err)?;
        let payload = self.read_frame()?;
        decode_response(payload)
    }

    fn read_frame(&mut self) -> Result<Bytes> {
        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header).map_err(io_err)?;
        let len = u32::from_be_bytes(header) as usize;
        let mut payload = vec![0u8; len];
        self.stream.read_exact(&mut payload).map_err(io_err)?;
        Ok(Bytes::from(payload))
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::Storage {
        reason: format!("serve client io: {e}"),
    }
}

fn unexpected(resp: &Response) -> Error {
    Error::Storage {
        reason: format!("serve client: unexpected response {resp:?}"),
    }
}
