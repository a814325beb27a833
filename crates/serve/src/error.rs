//! Service-level error taxonomy, shared by the server (which encodes the
//! codes onto the wire) and the client (which decodes them back).

/// Why a request failed. The numeric codes are part of the wire protocol
/// and must stay stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server shed load — either the request did not fit in the job
    /// queue's remaining budget (queue-depth shedding, answered before it
    /// enqueues) or the connection itself was rejected by
    /// the `max_connections` admission cap (wire id 0, since no request
    /// was read). Retry with backoff, ideally against another replica.
    Overloaded,
    /// The request's deadline elapsed before an answer was computed.
    DeadlineExceeded,
    /// The server is draining and no longer accepts new requests.
    ShuttingDown,
    /// The request was structurally valid but semantically wrong (e.g. a
    /// node id outside the graph).
    BadRequest(String),
    /// An unexpected server-side failure.
    Internal(String),
}

impl ServeError {
    /// Stable wire code for this error.
    pub fn code(&self) -> u8 {
        match self {
            ServeError::Overloaded => 1,
            ServeError::DeadlineExceeded => 2,
            ServeError::ShuttingDown => 3,
            ServeError::BadRequest(_) => 4,
            ServeError::Internal(_) => 5,
        }
    }

    /// Reconstructs the error from its wire code and message.
    pub fn from_code(code: u8, message: String) -> Self {
        match code {
            1 => ServeError::Overloaded,
            2 => ServeError::DeadlineExceeded,
            3 => ServeError::ShuttingDown,
            4 => ServeError::BadRequest(message),
            _ => ServeError::Internal(message),
        }
    }

    /// Human-readable detail carried alongside the code.
    pub fn message(&self) -> &str {
        match self {
            ServeError::Overloaded => "request queue full",
            ServeError::DeadlineExceeded => "deadline exceeded",
            ServeError::ShuttingDown => "server shutting down",
            ServeError::BadRequest(m) | ServeError::Internal(m) => m,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "server overloaded: request queue full"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Internal(m) => write!(f, "internal server error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for err in [
            ServeError::Overloaded,
            ServeError::DeadlineExceeded,
            ServeError::ShuttingDown,
            ServeError::BadRequest("node 7 out of range".into()),
            ServeError::Internal("boom".into()),
        ] {
            let back = ServeError::from_code(err.code(), err.message().to_string());
            assert_eq!(back.code(), err.code());
        }
    }
}
