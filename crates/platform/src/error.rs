//! Error type for platform construction and configuration parsing.

use std::fmt;

/// Errors raised while parsing or validating a platform configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformError {
    /// The specification references a site name that does not exist.
    UnknownSite(String),
    /// Two sites (or hosts within a site) share the same name.
    DuplicateName(String),
    /// A numeric parameter is out of range (message explains which).
    InvalidParameter(String),
    /// The platform has no sites.
    EmptyPlatform,
    /// A link references an endpoint that is neither a site nor the main server.
    UnknownEndpoint(String),
    /// Two endpoints are not connected by any sequence of links.
    Unreachable {
        /// Route origin.
        from: String,
        /// Route destination.
        to: String,
    },
    /// JSON (de)serialisation failure.
    Serde(String),
    /// I/O failure while reading or writing a configuration file.
    Io(String),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownSite(name) => write!(f, "unknown site: {name}"),
            PlatformError::DuplicateName(name) => write!(f, "duplicate name: {name}"),
            PlatformError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            PlatformError::EmptyPlatform => write!(f, "platform has no sites"),
            PlatformError::UnknownEndpoint(name) => write!(f, "unknown link endpoint: {name}"),
            PlatformError::Unreachable { from, to } => {
                write!(f, "no route between {from} and {to}")
            }
            PlatformError::Serde(msg) => write!(f, "configuration parse error: {msg}"),
            PlatformError::Io(msg) => write!(f, "configuration I/O error: {msg}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<std::io::Error> for PlatformError {
    fn from(e: std::io::Error) -> Self {
        PlatformError::Io(e.to_string())
    }
}

impl From<serde_json::Error> for PlatformError {
    fn from(e: serde_json::Error) -> Self {
        PlatformError::Serde(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(PlatformError::UnknownSite("BNL".into())
            .to_string()
            .contains("BNL"));
        assert!(PlatformError::Unreachable {
            from: "A".into(),
            to: "B".into()
        }
        .to_string()
        .contains("A"));
        assert!(PlatformError::EmptyPlatform
            .to_string()
            .contains("no sites"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: PlatformError = io.into();
        assert!(matches!(err, PlatformError::Io(_)));
    }
}
