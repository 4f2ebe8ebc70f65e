//! Error type shared by all algebra, planning, and optimization code.

use std::fmt;

/// Errors produced by schema validation, expression evaluation, operation
/// application, and plan manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // every variant is documented; field names are self-describing
pub enum Error {
    /// An attribute referenced by an expression or operation is not part of
    /// the schema it is evaluated against.
    UnknownAttribute { name: String, schema: String },
    /// Two schemas that must agree (e.g. the arguments of a difference or
    /// union) do not.
    SchemaMismatch {
        left: String,
        right: String,
        context: &'static str,
    },
    /// A tuple does not conform to its relation's schema.
    MalformedTuple { reason: String },
    /// A temporal operation was applied to a relation without `T1`/`T2`.
    NotTemporal { context: &'static str },
    /// A conventional-only constraint was violated (e.g. a snapshot relation
    /// may not contain attributes named `T1`/`T2`).
    ReservedAttribute { name: String },
    /// Type error during expression evaluation.
    TypeError {
        expected: &'static str,
        found: String,
        context: &'static str,
    },
    /// Division by zero or a similar arithmetic fault.
    Arithmetic { reason: &'static str },
    /// A period with `start > end` or other temporal inconsistency.
    InvalidPeriod { start: i64, end: i64 },
    /// Plan-level structural error (bad child count, unknown node, ...).
    Plan { reason: String },
    /// SQL front-end errors are forwarded through this variant.
    Parse { reason: String },
    /// A syntactically valid construct the engine does not (yet) support.
    /// Distinct from `Parse` so conformance tests can pin the construct
    /// name without depending on free-text error phrasing.
    Unsupported { construct: String },
    /// Catalog / storage errors forwarded from substrates.
    Storage { reason: String },
    /// Enumeration/optimizer budget exhausted.
    BudgetExhausted { budget: usize },
    /// The query was cancelled cooperatively via its
    /// [`QueryContext`](crate::context::QueryContext) token.
    Cancelled,
    /// The query ran past its deadline; `limit_ms` is the configured
    /// timeout in milliseconds.
    DeadlineExceeded { limit_ms: u64 },
    /// A memory reservation was denied: granting `requested` bytes on top
    /// of `used` would exceed the query's `limit`.
    MemoryBudget {
        requested: usize,
        used: usize,
        limit: usize,
    },
    /// A stratum fragment could not be obtained from the DBMS: every
    /// retry failed (or the link is down) and local fallback was
    /// disabled.
    DbmsUnavailable { attempts: u32, reason: String },
    /// The multi-query scheduler declined to admit the query: `active`
    /// queries were already running against an admission limit of
    /// `limit`. Typed so serving front-ends can surface back-pressure
    /// distinctly from execution failures (clients should retry later).
    AdmissionRejected { active: usize, limit: usize },
    /// A bug, not a query outcome: the scheduler caught a panic while
    /// running one of the query's stages, or a serving session caught one
    /// while answering a request. Only that query fails; `reason` is the
    /// panic message.
    Internal { reason: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownAttribute { name, schema } => {
                write!(f, "unknown attribute `{name}` in schema [{schema}]")
            }
            Error::SchemaMismatch {
                left,
                right,
                context,
            } => {
                write!(f, "schema mismatch in {context}: [{left}] vs [{right}]")
            }
            Error::MalformedTuple { reason } => write!(f, "malformed tuple: {reason}"),
            Error::NotTemporal { context } => {
                write!(
                    f,
                    "{context} requires a temporal relation (attributes T1, T2)"
                )
            }
            Error::ReservedAttribute { name } => {
                write!(
                    f,
                    "attribute name `{name}` is reserved for temporal relations"
                )
            }
            Error::TypeError {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type error in {context}: expected {expected}, found {found}"
                )
            }
            Error::Arithmetic { reason } => write!(f, "arithmetic error: {reason}"),
            Error::InvalidPeriod { start, end } => {
                write!(f, "invalid period [{start}, {end})")
            }
            Error::Plan { reason } => write!(f, "plan error: {reason}"),
            Error::Parse { reason } => write!(f, "parse error: {reason}"),
            Error::Unsupported { construct } => {
                write!(f, "unsupported construct: {construct}")
            }
            Error::Storage { reason } => write!(f, "storage error: {reason}"),
            Error::BudgetExhausted { budget } => {
                write!(f, "plan enumeration budget of {budget} plans exhausted")
            }
            Error::Cancelled => write!(f, "query cancelled"),
            Error::DeadlineExceeded { limit_ms } => {
                write!(f, "query deadline of {limit_ms} ms exceeded")
            }
            Error::MemoryBudget {
                requested,
                used,
                limit,
            } => {
                write!(
                    f,
                    "memory budget exhausted: {requested} bytes requested with \
                     {used} of {limit} bytes in use"
                )
            }
            Error::DbmsUnavailable { attempts, reason } => {
                write!(f, "DBMS unavailable after {attempts} attempt(s): {reason}")
            }
            Error::AdmissionRejected { active, limit } => {
                write!(
                    f,
                    "admission rejected: {active} of {limit} concurrent queries already \
                     admitted; retry later"
                )
            }
            Error::Internal { reason } => write!(f, "internal error: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// The [`Error::Internal`] a caught panic becomes, carrying the message
    /// it was raised with (`panic!` payloads are `&str` or `String`).
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Error {
        let reason = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panicked".to_owned()
        };
        Error::Internal { reason }
    }
}

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;
