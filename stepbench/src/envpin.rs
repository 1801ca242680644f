//! Environment pinning.
//!
//! `TrainConfig::new`/`with_kfac`, `AlgoPolicy::from_env`, the fusion
//! buffer and the worker pool all read `KFAC_*` variables at scattered
//! call sites. A benchmark number must not depend on what the caller's
//! shell happened to export, so the benchmark pins the one variable it
//! needs and refuses to run under any other.

use std::fmt;

/// The only `KFAC_*` variable the benchmark runs under, and its value:
/// one GEMM pool thread per rank, because the ranks are themselves
/// threads and the box has as many cores as ranks.
pub const PINNED: (&str, &str) = ("KFAC_POOL_THREADS", "1");

/// `KFAC_*` variables that would change what the benchmark measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// `NAME=value` of each offending variable, sorted.
    pub offending: Vec<String>,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "refusing to measure with KFAC_* variables set ({}): the training stack reads them \
             and the numbers would describe another configuration; unset them and run again",
            self.offending.join(", ")
        )
    }
}

impl std::error::Error for EnvError {}

/// Check an environment listing: anything named `KFAC_*` other than the
/// pinned variable at its pinned value is an error.
pub fn check(vars: impl IntoIterator<Item = (String, String)>) -> Result<(), EnvError> {
    let mut offending: Vec<String> = vars
        .into_iter()
        .filter(|(k, v)| k.starts_with("KFAC_") && (k.as_str(), v.as_str()) != PINNED)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    offending.sort();
    if offending.is_empty() {
        Ok(())
    } else {
        Err(EnvError { offending })
    }
}

/// Check the process environment, then pin the pool size. Call first
/// thing in `main`, before any thread exists and before the pool's
/// first use (it reads the variable once).
pub fn pin_process_env() -> Result<(), EnvError> {
    check(
        std::env::vars_os()
            .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?))),
    )?;
    std::env::set_var(PINNED.0, PINNED.1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn accepts_a_clean_or_already_pinned_environment() {
        assert_eq!(check(vars(&[("PATH", "/bin"), ("HOME", "/root")])), Ok(()));
        assert_eq!(check(vars(&[("KFAC_POOL_THREADS", "1")])), Ok(()));
    }

    #[test]
    fn lists_every_offending_variable() {
        let err = check(vars(&[
            ("KFAC_POOL_THREADS", "4"),
            ("KFAC_EIG_BACKEND", "jacobi"),
            ("PATH", "/bin"),
        ]))
        .unwrap_err();
        assert_eq!(
            err.offending,
            ["KFAC_EIG_BACKEND=jacobi", "KFAC_POOL_THREADS=4"]
        );
        let msg = err.to_string();
        assert!(
            msg.contains("KFAC_EIG_BACKEND=jacobi") && msg.contains("unset"),
            "{msg}"
        );
    }
}
