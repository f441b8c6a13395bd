//! A minimal levelled logging facade.
//!
//! The system models used to carry ad-hoc `eprintln!` debug paths, each with
//! its own environment flag. This module replaces them with one switchboard:
//! a global level (default `warn`, so normal runs are silent on stderr) that
//! the bench harness sets from `NDPX_LOG` at start-up through
//! [`parse_level`] and [`set_max_level`], and the `ndpx_error!` …
//! `ndpx_trace!` macros that gate formatting on the level check, so disabled
//! statements cost one relaxed atomic load.

use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or surprising conditions.
    Error = 1,
    /// Suspicious conditions worth surfacing by default.
    Warn = 2,
    /// High-level run progress.
    Info = 3,
    /// Per-component diagnostics (allocation dumps, slow legs).
    Debug = 4,
    /// Per-event firehose.
    Trace = 5,
}

impl Level {
    fn label(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

/// Level value meaning "log nothing".
const OFF: u8 = 0;

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Warn as u8);

/// Parses a level name (case-insensitive; numeric forms `0`–`5` too). `off`,
/// `0`, and `none` parse as `None`, which [`set_max_level`] reads as "log
/// nothing".
///
/// # Errors
///
/// A message listing the accepted names.
pub fn parse_level(s: &str) -> Result<Option<Level>, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Ok(None),
        "error" | "1" => Ok(Some(Level::Error)),
        "warn" | "warning" | "2" => Ok(Some(Level::Warn)),
        "info" | "3" => Ok(Some(Level::Info)),
        "debug" | "4" => Ok(Some(Level::Debug)),
        "trace" | "5" => Ok(Some(Level::Trace)),
        _ => Err("not a log level; use one of off, error, warn, info, debug, trace".to_string()),
    }
}

/// Whether messages at `level` are currently emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Overrides the global level (tests and harness binaries; `None` disables
/// logging entirely).
pub fn set_max_level(level: Option<Level>) {
    MAX_LEVEL.store(level.map_or(OFF, |l| l as u8), Ordering::Relaxed);
}

/// Emits one formatted line to stderr. Use through the `ndpx_*!` macros,
/// which perform the level check before formatting.
pub fn log(level: Level, module: &str, args: fmt::Arguments<'_>) {
    // A single write_all keeps concurrent worker-thread lines whole.
    let line = format!("[{:5} {module}] {args}\n", level.label());
    let _ = std::io::stderr().write_all(line.as_bytes());
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! ndpx_error {
    ($($arg:tt)*) => {
        if $crate::telemetry::log::enabled($crate::telemetry::log::Level::Error) {
            $crate::telemetry::log::log(
                $crate::telemetry::log::Level::Error,
                module_path!(),
                format_args!($($arg)*),
            );
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! ndpx_warn {
    ($($arg:tt)*) => {
        if $crate::telemetry::log::enabled($crate::telemetry::log::Level::Warn) {
            $crate::telemetry::log::log(
                $crate::telemetry::log::Level::Warn,
                module_path!(),
                format_args!($($arg)*),
            );
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! ndpx_info {
    ($($arg:tt)*) => {
        if $crate::telemetry::log::enabled($crate::telemetry::log::Level::Info) {
            $crate::telemetry::log::log(
                $crate::telemetry::log::Level::Info,
                module_path!(),
                format_args!($($arg)*),
            );
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! ndpx_debug {
    ($($arg:tt)*) => {
        if $crate::telemetry::log::enabled($crate::telemetry::log::Level::Debug) {
            $crate::telemetry::log::log(
                $crate::telemetry::log::Level::Debug,
                module_path!(),
                format_args!($($arg)*),
            );
        }
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! ndpx_trace {
    ($($arg:tt)*) => {
        if $crate::telemetry::log::enabled($crate::telemetry::log::Level::Trace) {
            $crate::telemetry::log::log(
                $crate::telemetry::log::Level::Trace,
                module_path!(),
                format_args!($($arg)*),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(parse_level("warn"), Ok(Some(Level::Warn)));
        assert_eq!(parse_level("DEBUG"), Ok(Some(Level::Debug)));
        assert_eq!(parse_level("off"), Ok(None));
        assert!(parse_level("bogus").is_err());
    }

    #[test]
    fn explicit_level_gates() {
        set_max_level(Some(Level::Info));
        assert!(enabled(Level::Warn));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_max_level(None);
        assert!(!enabled(Level::Error));
        // Restore the default so other tests see the usual gate.
        set_max_level(Some(Level::Warn));
    }
}
