//! Centralized parsing of the `PARFAIT_*` environment knobs.
//!
//! Every knob used to be parsed where it was consumed — four crates,
//! four slightly different failure behaviors, two of which silently
//! fell back to a default on garbage. This module is the one place a
//! knob's grammar and default live. Each knob has a **pure** parser
//! (`parse_*(Option<&str>) -> Result<_, String>`, unit-testable) and a
//! **loud** reader (`*_loud()`) that reads the process environment and,
//! on a malformed value, prints one uniform `error:` line and exits 2 —
//! exiting loudly beats a multi-hour verification run with a silently
//! wrong knob.
//!
//! The error message shape is uniform across knobs:
//! `"{VAR} expects {what}, got {value:?}"`.

use std::path::PathBuf;

/// Every knob captured into a [`crate::manifest::RunManifest`], so a
/// bench row records the environment that produced it.
pub const KNOBS: &[&str] = &[
    "PARFAIT_THREADS",
    "PARFAIT_TIMEOUT",
    "PARFAIT_CACHE_DIR",
    "PARFAIT_HEARTBEAT",
    "PARFAIT_VCD_WINDOW",
    "PARFAIT_VCD_DIR",
    "PARFAIT_TRACE",
    "PARFAIT_SOCKET",
];

fn loud<T>(result: Result<T, String>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn read(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// Parse a positive integer with optional `_` separators (`8`,
/// `8_000_000`). The shared grammar of the numeric knobs.
fn parse_positive_u64(var: &str, what: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    match raw {
        None => Ok(None),
        Some(v) => match v.trim().replace('_', "").parse::<u64>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            _ => Err(format!("{var} expects {what}, got {v:?}")),
        },
    }
}

/// `PARFAIT_THREADS`: positive worker count; `None` when unset.
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    Ok(parse_positive_u64("PARFAIT_THREADS", "a positive thread count", raw)?
        .map(|n| n.min(usize::MAX as u64) as usize))
}

/// Loud reader for [`parse_threads`]; `None` when unset.
pub fn threads_loud() -> Option<usize> {
    loud(parse_threads(read("PARFAIT_THREADS").as_deref()))
}

/// `PARFAIT_TIMEOUT`: positive cycle count; `None` when unset (callers
/// apply their own base timeout).
pub fn parse_timeout(raw: Option<&str>) -> Result<Option<u64>, String> {
    parse_positive_u64("PARFAIT_TIMEOUT", "a positive cycle count", raw)
}

/// Loud reader for [`parse_timeout`]; `None` when unset.
pub fn timeout_loud() -> Option<u64> {
    loud(parse_timeout(read("PARFAIT_TIMEOUT").as_deref()))
}

/// Default heartbeat cadence (simulated cycles between progress
/// events).
pub const DEFAULT_HEARTBEAT: u64 = 100_000;

/// `PARFAIT_HEARTBEAT`: cycles between FPS heartbeats; `0` disables
/// heartbeats entirely; default [`DEFAULT_HEARTBEAT`].
pub fn parse_heartbeat(raw: Option<&str>) -> Result<u64, String> {
    match raw {
        None => Ok(DEFAULT_HEARTBEAT),
        Some(v) => match v.trim().replace('_', "").parse::<u64>() {
            Ok(n) => Ok(n),
            _ => Err(format!(
                "PARFAIT_HEARTBEAT expects a cycle count (0 disables heartbeats), got {v:?}"
            )),
        },
    }
}

/// Loud reader for [`parse_heartbeat`].
pub fn heartbeat_loud() -> u64 {
    loud(parse_heartbeat(read("PARFAIT_HEARTBEAT").as_deref()))
}

/// Default VCD capture window (cycles retained before a failure).
pub const DEFAULT_VCD_WINDOW: usize = 1 << 16;

/// `PARFAIT_VCD_WINDOW`: positive retained-cycle count; default
/// [`DEFAULT_VCD_WINDOW`].
pub fn parse_vcd_window(raw: Option<&str>) -> Result<usize, String> {
    Ok(parse_positive_u64("PARFAIT_VCD_WINDOW", "a positive cycle count", raw)?
        .map(|n| n.min(usize::MAX as u64) as usize)
        .unwrap_or(DEFAULT_VCD_WINDOW))
}

/// Loud reader for [`parse_vcd_window`].
pub fn vcd_window_loud() -> usize {
    loud(parse_vcd_window(read("PARFAIT_VCD_WINDOW").as_deref()))
}

/// `PARFAIT_CACHE_DIR`: cache root; unset or empty means "no on-disk
/// cache". (Whether the directory is *usable* is checked by the cache
/// itself when it opens the directory — see `CertCache::at`.)
pub fn parse_cache_dir(raw: Option<&str>) -> Result<Option<PathBuf>, String> {
    match raw {
        None => Ok(None),
        Some(v) if v.trim().is_empty() => Ok(None),
        Some(v) => Ok(Some(PathBuf::from(v))),
    }
}

/// Loud reader for [`parse_cache_dir`]; `None` when unset or empty.
pub fn cache_dir_loud() -> Option<PathBuf> {
    loud(parse_cache_dir(read("PARFAIT_CACHE_DIR").as_deref()))
}

/// `PARFAIT_SOCKET`: path for the serve daemon's Unix socket; unset or
/// empty means "stdin/stdout only".
pub fn parse_socket(raw: Option<&str>) -> Result<Option<PathBuf>, String> {
    match raw {
        None => Ok(None),
        Some(v) if v.trim().is_empty() => Ok(None),
        Some(v) => Ok(Some(PathBuf::from(v))),
    }
}

/// Loud reader for [`parse_socket`]; `None` when unset or empty.
pub fn socket_loud() -> Option<PathBuf> {
    loud(parse_socket(read("PARFAIT_SOCKET").as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_accepts_positive_and_rejects_garbage() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("8")), Ok(Some(8)));
        assert_eq!(parse_threads(Some(" 4 ")), Ok(Some(4)));
        for bad in ["0", "-1", "eight", "1.5", ""] {
            let e = parse_threads(Some(bad)).unwrap_err();
            assert!(e.contains("PARFAIT_THREADS expects"), "{e}");
            assert!(e.contains(&format!("{bad:?}")), "{e}");
        }
    }

    #[test]
    fn timeout_allows_underscores() {
        assert_eq!(parse_timeout(Some("8_000_000")), Ok(Some(8_000_000)));
        assert_eq!(parse_timeout(None), Ok(None));
        assert!(parse_timeout(Some("0")).is_err());
    }

    #[test]
    fn heartbeat_zero_disables_but_garbage_errors() {
        assert_eq!(parse_heartbeat(None), Ok(DEFAULT_HEARTBEAT));
        assert_eq!(parse_heartbeat(Some("0")), Ok(0));
        assert_eq!(parse_heartbeat(Some("250_000")), Ok(250_000));
        let e = parse_heartbeat(Some("fast")).unwrap_err();
        assert!(e.contains("PARFAIT_HEARTBEAT expects"), "{e}");
    }

    #[test]
    fn socket_empty_means_stdio_only() {
        assert_eq!(parse_socket(None), Ok(None));
        assert_eq!(parse_socket(Some("")), Ok(None));
        assert_eq!(parse_socket(Some("/tmp/s.sock")), Ok(Some(PathBuf::from("/tmp/s.sock"))));
    }

    #[test]
    fn cache_dir_empty_means_disabled() {
        assert_eq!(parse_cache_dir(None), Ok(None));
        assert_eq!(parse_cache_dir(Some("")), Ok(None));
        assert_eq!(parse_cache_dir(Some("  ")), Ok(None));
        assert_eq!(parse_cache_dir(Some("/tmp/c")), Ok(Some(PathBuf::from("/tmp/c"))));
    }
}
