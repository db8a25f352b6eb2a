//! Benchmark-side tracing for the traced run: a span around every client
//! call (name, start, end, parent, `RequestId`), kept in memory and
//! written out when the run ends, plus the first messages seen, which the
//! layer probes replay.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use agreements_grm::RequestId;
use agreements_net::{WireRequest, WireResponse};

/// Messages a connection's driver keeps for the layer probes.
pub const CAPTURE: usize = 2048;

/// Span id of the whole window; connection `c`'s driver is span `c + 2`.
const RUN_SPAN: u64 = 1;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// 0 for client calls (leaves), else the span's own id.
    pub id: u64,
    pub parent: u64,
    pub start: Instant,
    pub end: Instant,
    pub request: Option<RequestId>,
}

impl Span {
    /// One client call on connection `conn`.
    pub fn op(
        name: &'static str,
        conn: u64,
        start: Instant,
        end: Instant,
        request: Option<RequestId>,
    ) -> Span {
        Span { name, id: 0, parent: conn + 2, start, end, request }
    }

    /// The driver loop of connection `conn`.
    pub fn conn(conn: u64, start: Instant, end: Instant) -> Span {
        Span { name: "client.drive", id: conn + 2, parent: RUN_SPAN, start, end, request: None }
    }
}

pub struct TraceBuf {
    origin: Instant,
    pub spans: Vec<Span>,
    pub captured: Vec<(WireRequest, WireResponse)>,
}

impl TraceBuf {
    pub fn new(origin: Instant) -> TraceBuf {
        TraceBuf { origin, spans: Vec::new(), captured: Vec::new() }
    }

    pub fn span(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn merge(&mut self, other: TraceBuf) {
        self.spans.extend(other.spans);
        self.captured.extend(other.captured);
    }

    /// Write the spans as one JSON document, times in ns from the
    /// window's start.
    pub fn write(&self, path: &Path, workload: &str, end: Instant) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = String::with_capacity(self.spans.len() * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"spans\":[\n\
             {{\"name\":\"run\",\"id\":{RUN_SPAN},\"parent\":0,\"start_ns\":0,\"end_ns\":{}}}",
            ns(end)
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.id,
                s.parent,
                ns(s.start),
                ns(s.end)
            );
            if let Some(id) = s.request {
                let _ = write!(out, ",\"request\":\"{}:{}\"", id.client, id.seq);
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
