//! Server-side spans for the traced run.
//!
//! The traced edges are bound by the benchmark itself with
//! `TcpServer::bind_deferred`, wrapping `BinaryParser` and
//! `NodeEdge::defer_handler()`. Each call into those layers is timed and
//! kept in memory keyed by `RequestId`; the spans are written out when the
//! run ends. Client-side codec time is recorded per op by the load
//! generator.

use crate::loadgen::{now_ns, OpRecord};
use bespokv_proto::client::{Request, Response};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_runtime::tcp::{DeferHandler, ParserFactory};
use bespokv_runtime::{Defer, Served};
use bespokv_types::{KvResult, RequestId};
use bytes::BytesMut;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// `ProtocolParser::next_request` on the server.
    ServerDecode,
    /// `NodeEdge` deferred handler call that answered inline.
    HandlerReady,
    /// `NodeEdge` deferred handler call that parked the request.
    HandlerParked,
    /// `ProtocolParser::encode_response` on the server.
    ServerEncode,
}

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::ServerDecode => "server_decode",
            Layer::HandlerReady => "handler_ready",
            Layer::HandlerParked => "handler_parked",
            Layer::ServerEncode => "server_encode",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Request the call served.
    pub rid: RequestId,
    /// Which boundary.
    pub layer: Layer,
    /// Start, ns on [`now_ns`]'s clock.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// In-memory span sink shared by every traced server thread.
pub struct SpanStore {
    spans: Mutex<Vec<Span>>,
}

impl SpanStore {
    /// An empty store with room for `cap` spans.
    pub fn with_capacity(cap: usize) -> Arc<SpanStore> {
        Arc::new(SpanStore {
            spans: Mutex::new(Vec::with_capacity(cap)),
        })
    }

    fn record(&self, rid: RequestId, layer: Layer, start: u64, end: u64) {
        self.spans.lock().push(Span {
            rid,
            layer,
            start,
            end,
        });
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

/// `BinaryParser` with its server-side calls timed.
struct TracedParser {
    inner: BinaryParser,
    store: Arc<SpanStore>,
}

impl ProtocolParser for TracedParser {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn feed(&mut self, bytes: &[u8]) {
        self.inner.feed(bytes)
    }
    fn next_request(&mut self) -> KvResult<Option<Request>> {
        let t0 = now_ns();
        let r = self.inner.next_request();
        if let Ok(Some(req)) = &r {
            self.store.record(req.id, Layer::ServerDecode, t0, now_ns());
        }
        r
    }
    fn next_response(&mut self) -> KvResult<Option<Response>> {
        self.inner.next_response()
    }
    fn encode_request(&mut self, req: &Request, out: &mut BytesMut) {
        self.inner.encode_request(req, out)
    }
    fn encode_response(&mut self, resp: &Response, out: &mut BytesMut) {
        let t0 = now_ns();
        self.inner.encode_response(resp, out);
        self.store
            .record(resp.id, Layer::ServerEncode, t0, now_ns());
    }
}

/// Parser factory producing traced binary parsers.
pub fn traced_parsers(store: &Arc<SpanStore>) -> Arc<ParserFactory> {
    let store = Arc::clone(store);
    Arc::new(move || {
        Box::new(TracedParser {
            inner: BinaryParser::new(),
            store: Arc::clone(&store),
        }) as Box<dyn ProtocolParser>
    })
}

/// Wraps a deferred handler, timing each call and splitting it by whether
/// it answered inline or parked.
pub fn traced_handler(inner: Arc<DeferHandler>, store: &Arc<SpanStore>) -> Arc<DeferHandler> {
    let store = Arc::clone(store);
    Arc::new(move |req: Request, defer: Defer<'_>| {
        let rid = req.id;
        let t0 = now_ns();
        let served = inner(req, defer);
        let layer = match served {
            Served::Ready(_) => Layer::HandlerReady,
            Served::Parked => Layer::HandlerParked,
        };
        store.record(rid, layer, t0, now_ns());
        served
    })
}

/// Per-layer means over the traced ops, all in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Breakdown {
    /// Ops with a complete span set.
    pub ops: usize,
    /// Mean client round trip.
    pub rtt: f64,
    /// Mean client `encode_request`.
    pub client_encode: f64,
    /// Mean client `next_response`.
    pub client_decode: f64,
    /// Mean server `next_request`.
    pub server_decode: f64,
    /// Mean server `encode_response`.
    pub server_encode: f64,
    /// Mean handler call, over ops answered inline.
    pub handler_ready: f64,
    /// Mean handler call, over ops that parked.
    pub handler_parked: f64,
    /// Mean time from a parked handler's return to its reply encode: the
    /// op log, controlet actors and chain, plus the demux wakeup.
    pub park_wait: f64,
    /// Ops that parked.
    pub parked_ops: usize,
    /// Mean round trip minus every visible span: wire, wakeups, actor
    /// queueing.
    pub unattributed: f64,
}

/// Joins the client records with the server spans by request id and
/// averages each layer. Ops missing a span are skipped.
pub fn breakdown(ops: &[OpRecord], spans: &[Span]) -> Breakdown {
    let mut by_rid: HashMap<RequestId, [Option<(u64, u64)>; 4]> = HashMap::new();
    for s in spans {
        let slot = match s.layer {
            Layer::ServerDecode => 0,
            Layer::HandlerReady | Layer::HandlerParked => 1,
            Layer::ServerEncode => 3,
        };
        let e = by_rid.entry(s.rid).or_default();
        e[slot] = Some((s.start, s.end));
        if s.layer == Layer::HandlerParked {
            e[2] = Some((s.start, s.end));
        }
    }
    let mut b = Breakdown::default();
    let mut ready_ops = 0usize;
    for r in ops.iter().filter(|r| r.ok()) {
        let Some([Some(dec), Some(h), parked, Some(enc)]) = by_rid.get(&r.rid) else {
            continue;
        };
        let d = |(s, e): (u64, u64)| e.saturating_sub(s) as f64;
        let visible = r.enc_ns as f64 + r.dec_ns as f64 + d(*dec) + d(*h) + d(*enc);
        let rtt = r.rtt_ns() as f64;
        b.ops += 1;
        b.rtt += rtt;
        b.client_encode += r.enc_ns as f64;
        b.client_decode += r.dec_ns as f64;
        b.server_decode += d(*dec);
        b.server_encode += d(*enc);
        if parked.is_some() {
            b.parked_ops += 1;
            b.handler_parked += d(*h);
            b.park_wait += enc.0.saturating_sub(h.1) as f64;
        } else {
            ready_ops += 1;
            b.handler_ready += d(*h);
        }
        b.unattributed += rtt - visible;
    }
    let n = b.ops.max(1) as f64;
    for v in [
        &mut b.rtt,
        &mut b.client_encode,
        &mut b.client_decode,
        &mut b.server_decode,
        &mut b.server_encode,
        &mut b.unattributed,
    ] {
        *v /= n;
    }
    b.handler_ready /= ready_ops.max(1) as f64;
    b.handler_parked /= b.parked_ops.max(1) as f64;
    b.park_wait /= b.parked_ops.max(1) as f64;
    b
}

/// Writes spans as tab-separated `rid layer start_ns end_ns` lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "rid\tlayer\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(w, "{}\t{}\t{}\t{}", s.rid.0, s.layer.name(), s.start, s.end)?;
    }
    w.flush()
}
