//! Crash flight recorder: when a rank dies, leave the evidence behind.
//!
//! PR 3's fault injection made ranks die on purpose; everything the
//! in-memory rings and histograms knew died with them. The flight
//! recorder closes that hole: on a typed run error (`PeerLost` /
//! `Aborted`), a panic, or a fatal transport error, it dumps the last
//! seconds of trace events, the sampled time series, and the final
//! runtime stats to one self-describing JSON file *before* the process
//! exits. `ttg-bench analyze` ingests these dumps directly, so the
//! post-mortem workflow is the same as for a healthy trace.
//!
//! Like [`HttpRoutes`](crate::http::HttpRoutes), the content sources
//! are opaque closures: this module knows how to persist evidence, not
//! where it comes from. The live-telemetry glue ([`crate::live`]) supplies
//! closures that peek (never drain) the event rings, so a dump cannot
//! corrupt a concurrent end-of-run export.

use crate::{obj, s};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

/// Top-level marker key identifying a flight dump (value = schema
/// version). `ttg-bench analyze`/`flame` sniff it to tell dumps from
/// plain Chrome traces.
pub const FLIGHT_MARKER: &str = "ttg_flight";

/// Content producers for one dump. Each returns a JSON document (or
/// empty string for "nothing to contribute"); they run at dump time on
/// whichever thread is dying, so they must be non-blocking reads.
pub struct FlightSources {
    /// Chrome trace JSON of the recent event window (peeked, not
    /// drained).
    pub trace_json: Box<dyn Fn() -> String + Send + Sync>,
    /// Time-series JSON.
    pub timeseries_json: Box<dyn Fn() -> String + Send + Sync>,
    /// Final runtime stats JSON.
    pub stats_json: Box<dyn Fn() -> String + Send + Sync>,
}

/// Writes at most one flight dump per process lifetime (the *first*
/// fatal event wins — a panic unwinding into a run error must not
/// overwrite the evidence of the original failure).
pub struct FlightRecorder {
    dir: PathBuf,
    rank: usize,
    sources: FlightSources,
    dumped: AtomicBool,
}

impl FlightRecorder {
    /// Creates a recorder writing into `dir` (created on first dump).
    pub fn new(dir: impl Into<PathBuf>, rank: usize, sources: FlightSources) -> Self {
        FlightRecorder {
            dir: dir.into(),
            rank,
            sources,
            dumped: AtomicBool::new(false),
        }
    }

    /// Creates a recorder if `TTG_OBS_FLIGHT_DIR` is set (the opt-in).
    pub fn from_env(rank: usize, sources: FlightSources) -> Option<Self> {
        let dir = std::env::var("TTG_OBS_FLIGHT_DIR").ok()?;
        if dir.is_empty() {
            return None;
        }
        Some(Self::new(dir, rank, sources))
    }

    /// Rank stamped into dumps and file names.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether a dump has already been written.
    pub fn has_dumped(&self) -> bool {
        self.dumped.load(Ordering::Acquire)
    }

    /// Writes the dump, unless one was already written (returns
    /// `Ok(None)` then). The file is
    /// `<dir>/ttg-flight-<rank>-<unix_ms>.json`.
    pub fn dump(&self, reason: &str) -> std::io::Result<Option<PathBuf>> {
        if self.dumped.swap(true, Ordering::AcqRel) {
            return Ok(None);
        }
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        std::fs::create_dir_all(&self.dir)?;
        let path = self
            .dir
            .join(format!("ttg-flight-{}-{now_ms}.json", self.rank));

        // Embed each source parsed when it is valid JSON so the dump is
        // one coherent document; fall back to embedding the raw text so
        // a half-written source still leaves *something* behind.
        let embed = |text: String| -> Value {
            if text.is_empty() {
                return Value::Null;
            }
            serde_json::from_str(&text).unwrap_or(Value::String(text))
        };
        let doc = obj(vec![
            (FLIGHT_MARKER, Value::UInt(1)),
            ("rank", Value::UInt(self.rank as u64)),
            ("reason", s(reason)),
            ("captured_unix_ms", Value::UInt(now_ms)),
            ("trace", embed((self.sources.trace_json)())),
            ("timeseries", embed((self.sources.timeseries_json)())),
            ("stats", embed((self.sources.stats_json)())),
        ]);
        let json = serde_json::to_string_pretty(&doc).expect("flight serialization");
        std::fs::write(&path, json)?;
        Ok(Some(path))
    }
}

/// Installs a panic hook that writes a flight dump before delegating to
/// the previous hook (so backtraces still print). The recorder's
/// first-dump-wins latch makes the hook idempotent and keeps a panic
/// during error handling from clobbering an earlier dump.
pub fn install_panic_hook(recorder: Arc<FlightRecorder>) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| info.payload().downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic (non-string payload)".to_string());
        let location = info
            .location()
            .map(|l| format!(" at {}:{}", l.file(), l.line()))
            .unwrap_or_default();
        let _ = recorder.dump(&format!("panic: {msg}{location}"));
        prev(info);
    }));
}

/// Metadata and embedded trace pulled out of a flight dump.
pub struct FlightInfo {
    /// Rank that wrote the dump.
    pub rank: u64,
    /// Why it dumped (run error display, panic message, ...).
    pub reason: String,
    /// Wall-clock capture time, unix ms.
    pub captured_unix_ms: u64,
    /// The embedded Chrome trace, re-serialized — feed it to
    /// `analyze_chrome_trace` / `collapse_chrome_trace`.
    pub trace_json: Option<String>,
}

/// Sniffs `json` for the flight-dump marker; returns the extracted
/// info when it is one, `None` for anything else (e.g. a plain Chrome
/// trace). This is how `ttg-bench analyze`/`flame` accept both
/// formats through one file argument.
pub fn extract_flight_trace(json: &str) -> Option<FlightInfo> {
    let v: Value = serde_json::from_str(json).ok()?;
    v.get(FLIGHT_MARKER)?;
    let trace_json = v.get("trace").and_then(|t| match t {
        Value::Null => None,
        other => serde_json::to_string(other).ok(),
    });
    Some(FlightInfo {
        rank: v.get("rank").and_then(|r| r.as_u64()).unwrap_or(0),
        reason: v
            .get("reason")
            .and_then(|r| r.as_str())
            .unwrap_or("unknown")
            .to_string(),
        captured_unix_ms: v
            .get("captured_unix_ms")
            .and_then(|c| c.as_u64())
            .unwrap_or(0),
        trace_json,
    })
}

/// Convenience for CLI tools: read `path`, extract when it is a dump.
pub fn read_flight_file(path: &Path) -> std::io::Result<Option<FlightInfo>> {
    let text = std::fs::read_to_string(path)?;
    Ok(extract_flight_trace(&text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn unique_dir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("ttg-flight-test-{}-{tag}-{n}", std::process::id()))
    }

    fn sources() -> FlightSources {
        FlightSources {
            trace_json: Box::new(|| "{\"traceEvents\":[{\"ph\":\"M\"}]}".to_string()),
            timeseries_json: Box::new(|| "{\"points\":[]}".to_string()),
            stats_json: Box::new(|| "{\"tasks_executed\":7}".to_string()),
        }
    }

    #[test]
    fn dump_writes_marked_document_once() {
        let dir = unique_dir("once");
        let rec = FlightRecorder::new(&dir, 2, sources());
        let path = rec.dump("peer 1 lost").unwrap().expect("first dump");
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("ttg-flight-2-"));
        let text = std::fs::read_to_string(&path).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get(FLIGHT_MARKER).unwrap().as_u64(), Some(1));
        assert_eq!(v.get("rank").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("peer 1 lost"));
        assert!(v.get("trace").unwrap().get("traceEvents").is_some());
        assert_eq!(
            v.get("stats")
                .unwrap()
                .get("tasks_executed")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        // Second dump is suppressed: the first fatal event wins.
        assert!(rec.dump("later").unwrap().is_none());
        assert!(rec.has_dumped());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extract_roundtrip_and_non_flight_rejection() {
        let dir = unique_dir("extract");
        let rec = FlightRecorder::new(&dir, 1, sources());
        let path = rec.dump("aborted: stall").unwrap().unwrap();
        let info = read_flight_file(&path).unwrap().expect("is a flight dump");
        assert_eq!(info.rank, 1);
        assert_eq!(info.reason, "aborted: stall");
        assert!(info.captured_unix_ms > 0);
        let trace = info.trace_json.unwrap();
        let tv: Value = serde_json::from_str(&trace).unwrap();
        assert_eq!(tv.get("traceEvents").unwrap().as_array().unwrap().len(), 1);
        // A plain Chrome trace is not misdetected.
        assert!(extract_flight_trace("{\"traceEvents\":[]}").is_none());
        assert!(extract_flight_trace("not json").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unparseable_source_embeds_as_string() {
        let dir = unique_dir("raw");
        let rec = FlightRecorder::new(
            &dir,
            0,
            FlightSources {
                trace_json: Box::new(|| "{truncated".to_string()),
                timeseries_json: Box::new(String::new),
                stats_json: Box::new(|| "{}".to_string()),
            },
        );
        let path = rec.dump("panic: boom").unwrap().unwrap();
        let v: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v.get("trace").unwrap().as_str(), Some("{truncated"));
        assert!(matches!(v.get("timeseries"), Some(Value::Null)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
