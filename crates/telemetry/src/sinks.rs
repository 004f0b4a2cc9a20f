//! Recorder implementations for the span and heartbeat stream: a
//! human-readable log, a fan-out combinator, and an in-memory buffer
//! for tests. The live matrix view (`progress::MatrixView`) is the
//! other sink the binaries use. Counts are not events: they live in
//! [`crate::metrics`] and reach a bin's `--metrics` manifest.
//!
//! Sinks swallow I/O errors: telemetry must never take down the
//! pipeline it is observing.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use crate::{Event, Recorder};

/// Human-readable indented log.
///
/// ```text
/// [   0.000123s] > fps.run
/// [   0.000150s]   > fps.command
/// [   0.000200s]   < fps.command (50us)
/// [   0.000230s] * fps.heartbeat cycles=100000 cycles_per_s=1512345
/// [   0.000250s] < fps.run (127us)
/// ```
///
/// `>`/`<` open and close spans (indented by nesting depth), `*` is a
/// progress heartbeat.
pub struct LogSink<W: Write + Send> {
    out: W,
}

impl<W: Write + Send> LogSink<W> {
    pub fn new(out: W) -> Self {
        LogSink { out }
    }
}

impl LogSink<io::Stderr> {
    /// Log to standard error.
    pub fn stderr() -> Self {
        LogSink::new(io::stderr())
    }
}

fn stamp(t_us: u64) -> String {
    format!("[{:>10.6}s]", t_us as f64 / 1e6)
}

impl<W: Write + Send> Recorder for LogSink<W> {
    fn record(&mut self, event: &Event<'_>) {
        let _ = match event {
            Event::SpanBegin { name, depth, t_us, .. } => {
                writeln!(self.out, "{} {:indent$}> {name}", stamp(*t_us), "", indent = depth * 2)
            }
            Event::SpanEnd { name, depth, t_us, dur_us, .. } => {
                writeln!(
                    self.out,
                    "{} {:indent$}< {name} ({dur_us}us)",
                    stamp(*t_us),
                    "",
                    indent = depth * 2
                )
            }
            Event::Progress { name, fields, t_us, .. } => {
                let mut line = format!("{} * {name}", stamp(*t_us));
                for (k, v) in *fields {
                    line.push_str(&format!(" {k}={v:.0}"));
                }
                writeln!(self.out, "{line}")
            }
        };
    }

    fn finish(&mut self) {
        let _ = self.out.flush();
    }
}

/// Duplicate every event to several sinks (e.g. a terminal log plus the
/// live matrix view).
pub struct Fanout {
    sinks: Vec<Box<dyn Recorder>>,
}

impl Fanout {
    pub fn new(sinks: Vec<Box<dyn Recorder>>) -> Self {
        Fanout { sinks }
    }
}

impl Recorder for Fanout {
    fn record(&mut self, event: &Event<'_>) {
        for sink in &mut self.sinks {
            sink.record(event);
        }
    }

    fn finish(&mut self) {
        for sink in &mut self.sinks {
            sink.finish();
        }
    }
}

/// A clonable in-memory byte buffer implementing [`Write`], for tests
/// that want to inspect sink output after the run.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// A writer handle feeding this buffer (give it to a sink).
    pub fn writer(&self) -> SharedBuf {
        self.clone()
    }

    /// Snapshot the buffered bytes as UTF-8 and clear the buffer.
    pub fn take_string(&self) -> String {
        let mut buf = self.0.lock().unwrap();
        String::from_utf8(std::mem::take(&mut *buf)).expect("sinks emit UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::Capture;
    use crate::Telemetry;

    #[test]
    fn log_sink_indents_by_depth() {
        let buf = SharedBuf::new();
        let tel = Telemetry::new(Box::new(LogSink::new(buf.writer())));
        {
            let _a = tel.span("outer");
            let _b = tel.span("inner");
        }
        tel.finish();
        let text = buf.take_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].ends_with("> outer"), "{}", lines[0]);
        assert!(lines[1].ends_with("  > inner"), "{}", lines[1]);
        assert!(lines[2].contains("< inner ("), "{}", lines[2]);
        assert!(lines[3].contains("< outer ("), "{}", lines[3]);
    }

    #[test]
    fn fanout_duplicates_events() {
        let a = Capture::default();
        let b = Capture::default();
        let tel =
            Telemetry::new(Box::new(Fanout::new(vec![Box::new(a.clone()), Box::new(b.clone())])));
        tel.progress("x", &[("n", 1.0)]);
        tel.finish();
        assert_eq!(a.lines(), vec!["P x n_fields=1"]);
        assert_eq!(a.lines(), b.lines());
    }
}
