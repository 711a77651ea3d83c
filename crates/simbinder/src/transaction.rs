//! Binder transactions: a method code plus a request parcel, and the
//! result statuses `libbinder` surfaces to callers.

use crate::parcel::Parcel;
use std::borrow::Cow;
use std::fmt;

/// A request to a Binder service: method `code` plus marshaled arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// Method code (1-based, as AIDL/HIDL stubs number them).
    pub code: u32,
    /// Marshaled arguments.
    pub data: Parcel,
}

impl Transaction {
    /// Builds a transaction.
    pub fn new(code: u32, data: Parcel) -> Self {
        Self { code, data }
    }
}

/// Why a transaction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransactionError {
    /// No method with that code (`UNKNOWN_TRANSACTION`).
    UnknownCode(u32),
    /// Arguments failed to unmarshal (`BAD_VALUE`). Static text is
    /// borrowed, so rejecting a call allocates nothing.
    BadParcel(Cow<'static, str>),
    /// The service rejected the call in its current state
    /// (`INVALID_OPERATION`). Static text is borrowed, as with
    /// [`BadParcel`](Self::BadParcel).
    InvalidOperation(Cow<'static, str>),
    /// The service process crashed mid-call (`DEAD_OBJECT`) — the signal
    /// DroidFuzz's HAL executor treats as a HAL bug.
    DeadObject {
        /// Crash headline for deduplication.
        reason: String,
    },
}

impl TransactionError {
    /// Builds a `DEAD_OBJECT` status — the one binder error that means
    /// the remote *process* is gone rather than the call being bad.
    /// Spontaneous HAL service death (fault injection) and mid-call
    /// crashes both surface through this constructor.
    pub fn dead_object(reason: impl Into<String>) -> Self {
        TransactionError::DeadObject { reason: reason.into() }
    }

    /// Whether this is a `DEAD_OBJECT` status. Callers use this to
    /// separate "the service died" (re-provision / restart territory)
    /// from argument-level rejections that only fail the one call.
    pub fn is_dead_object(&self) -> bool {
        matches!(self, TransactionError::DeadObject { .. })
    }
}

impl fmt::Display for TransactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransactionError::UnknownCode(c) => write!(f, "unknown transaction code {c}"),
            TransactionError::BadParcel(m) => write!(f, "bad parcel: {m}"),
            TransactionError::InvalidOperation(m) => write!(f, "invalid operation: {m}"),
            TransactionError::DeadObject { reason } => write!(f, "dead object: {reason}"),
        }
    }
}

impl std::error::Error for TransactionError {}

impl From<crate::parcel::ReadParcelError> for TransactionError {
    fn from(e: crate::parcel::ReadParcelError) -> Self {
        TransactionError::BadParcel(e.text())
    }
}

/// Result of a transaction: a reply parcel or an error status.
pub type TransactionResult = Result<Parcel, TransactionError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parcel::ReadParcelError;

    #[test]
    fn read_error_converts_to_bad_parcel() {
        let err: TransactionError = ReadParcelError::UnexpectedEnd.into();
        assert!(matches!(err, TransactionError::BadParcel(_)));
        assert!(err.to_string().contains("unexpected end"));
    }

    #[test]
    fn dead_object_carries_reason() {
        let err = TransactionError::DeadObject { reason: "Native crash in Camera HAL".into() };
        assert!(err.to_string().contains("Camera HAL"));
    }

    #[test]
    fn dead_object_classification() {
        assert!(TransactionError::dead_object("service killed").is_dead_object());
        assert!(!TransactionError::UnknownCode(7).is_dead_object());
        assert!(!TransactionError::BadParcel("x".into()).is_dead_object());
        assert!(matches!(
            TransactionError::from(ReadParcelError::UnexpectedEnd),
            TransactionError::BadParcel(Cow::Borrowed(_))
        ));
    }
}
