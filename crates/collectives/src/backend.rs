//! Unified communicator-backend selection.
//!
//! One enum decides whether rank groups are in-process threads
//! ([`crate::ThreadComm`]) or ranks over TCP ([`crate::proc::ProcComm`]).
//! Everything that constructs a backend (`xp`, the trainer, tests) names
//! it through here; `KFAC_COMM_BACKEND=thread|proc` reaches it through
//! `kfac_harness::runtime`, which calls [`CommBackend::parse`].

use std::fmt;

/// Which communicator implementation carries collective traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommBackend {
    /// N ranks as threads in one process (`ThreadComm`). The default.
    #[default]
    Thread,
    /// N ranks as processes over localhost TCP (`proc::ProcComm`).
    Proc,
}

impl CommBackend {
    /// Stable name, also the accepted env spelling.
    pub fn name(self) -> &'static str {
        match self {
            CommBackend::Thread => "thread",
            CommBackend::Proc => "proc",
        }
    }

    /// Parse a backend name (case-insensitive).
    pub fn parse(s: &str) -> Result<CommBackend, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "thread" => Ok(CommBackend::Thread),
            "proc" => Ok(CommBackend::Proc),
            other => Err(format!(
                "unknown comm backend {other:?}: expected \"thread\" or \"proc\" \
                 (set via KFAC_COMM_BACKEND or --backend)"
            )),
        }
    }
}

impl fmt::Display for CommBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_backends_case_insensitively() {
        assert_eq!(CommBackend::parse("thread"), Ok(CommBackend::Thread));
        assert_eq!(CommBackend::parse("Proc"), Ok(CommBackend::Proc));
        assert_eq!(CommBackend::parse(" PROC "), Ok(CommBackend::Proc));
    }

    #[test]
    fn rejects_unknown_with_actionable_message() {
        let err = CommBackend::parse("mpi").unwrap_err();
        assert!(err.contains("mpi"), "{err}");
        assert!(err.contains("thread"), "{err}");
        assert!(err.contains("proc"), "{err}");
    }

    #[test]
    fn default_is_thread() {
        assert_eq!(CommBackend::default(), CommBackend::Thread);
    }
}
