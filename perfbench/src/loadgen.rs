//! The load generator: two connections (head for PUTs, tail for GETs),
//! one sender thread and one receiver thread.
//!
//! * **Open pacing** sends each op at its Poisson due time whatever the
//!   replies do, and times it from that due time, so a stall is charged
//!   to every op queued behind it. How late the sender ran is recorded.
//! * **Window pacing** keeps at most `n` ops outstanding across both
//!   connections (`n = 1` is the probe, `n = 64` saturation).
//!
//! The sender writes with plain std sockets; the receiver waits on both
//! with one epoll set and decodes with the same `ProtocolParser` the
//! server uses.

use crate::host;
use crate::ops::{value_hash, BenchOp, Kind};
use bespokv_proto::client::{Op, Request, RespBody};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_types::{ClientId, KvError, RequestId};
use bytes::BytesMut;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Nanoseconds on the one monotonic clock every timestamp of the run uses
/// (client records and server-side spans alike).
pub fn now_ns() -> u64 {
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// How long the receiver waits for stragglers once the sender is done
/// before counting them as timed out.
const DRAIN_TIMEOUT_NS: u64 = 10_000_000_000;

/// How a phase issues its ops.
#[derive(Clone, Debug)]
pub enum Pace {
    /// Send op `i` at `offsets[i]` ns after the phase starts.
    Open(Vec<u64>),
    /// Keep at most this many ops outstanding, for the phase's duration.
    Window(usize),
}

/// What came back for one op.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// No reply (timed out in drain).
    Missing,
    /// A write or other mutation was acknowledged.
    Done,
    /// A GET returned a value, kept as its length and [`value_hash`] so
    /// a run's records stay small.
    Value {
        /// Value length.
        len: u32,
        /// Hash of the value bytes.
        hash: u64,
    },
    /// The store answered with an error (NotFound included).
    Error(Box<KvError>),
}

/// One op as sent and as answered.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// GET or PUT.
    pub kind: Kind,
    /// Key rank.
    pub rank: u32,
    /// For a PUT, the [`value_hash`] of the value written.
    pub put_value: u64,
    /// Request id sent.
    pub rid: RequestId,
    /// When the op was due (open pacing) or sent (window pacing), ns.
    pub due: u64,
    /// When its bytes were handed to the socket, ns.
    pub sent: u64,
    /// When its reply was read, ns (0 when missing).
    pub recv: u64,
    /// Client-side `encode_request` time, ns (traced runs only).
    pub enc_ns: u32,
    /// Client-side `next_response` time, ns (traced runs only).
    pub dec_ns: u32,
    /// The reply.
    pub outcome: Outcome,
}

impl OpRecord {
    /// Whether the op got a successful reply.
    pub fn ok(&self) -> bool {
        matches!(self.outcome, Outcome::Done | Outcome::Value { .. })
    }
    /// Latency from due time, ns.
    pub fn latency_ns(&self) -> u64 {
        self.recv.saturating_sub(self.due)
    }
    /// Round-trip time from send, ns.
    pub fn rtt_ns(&self) -> u64 {
        self.recv.saturating_sub(self.sent)
    }
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct PhaseRun {
    /// One record per op sent, in send order.
    pub ops: Vec<OpRecord>,
    /// Phase start and end (last reply or drain deadline), ns.
    pub start: u64,
    /// See `start`.
    pub end: u64,
    /// Most ops ever outstanding at once.
    pub max_outstanding: usize,
    /// Bytes written plus bytes read.
    pub bytes: u64,
    /// CPU time of the sender and receiver threads, ns.
    pub cpu_ns: u64,
}

impl PhaseRun {
    /// Ops that got a successful reply.
    pub fn completed(&self) -> usize {
        self.ops.iter().filter(|r| r.ok()).count()
    }
    /// Ops that failed or never got a reply.
    pub fn failed(&self) -> usize {
        self.ops.len() - self.completed()
    }
    /// Wall time of the phase, seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start) as f64 / 1e9
    }
}

/// What a phase leaves behind once its records are checked and dropped.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Ops sent.
    pub attempted: usize,
    /// Ops that failed or never got a reply.
    pub failed: usize,
    /// Successful ops per kind, indexed by [`Kind::idx`].
    pub ok: [usize; 2],
    /// GETs sent.
    pub gets: usize,
    /// Wall time, seconds.
    pub secs: f64,
    /// Bytes written plus bytes read.
    pub bytes: u64,
    /// CPU time of the generator's threads, ns.
    pub cpu_ns: u64,
    /// Latency from due time of each successful op, ns, per kind (kept
    /// only when samples were asked for).
    pub latency: [Vec<f64>; 2],
    /// Round trip of each successful op, ns, per kind (idem).
    pub rtt: [Vec<f64>; 2],
    /// Sender lateness of each op, ns (idem).
    pub late: Vec<f64>,
}

impl Summary {
    /// Ops with a successful reply.
    pub fn completed(&self) -> usize {
        self.ok[0] + self.ok[1]
    }
    /// Successful ops per second of wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.completed() as f64 / self.secs
    }
}

impl PhaseRun {
    /// Condenses the records; `samples` keeps the per-op latencies.
    pub fn summary(&self, samples: bool) -> Summary {
        let mut s = Summary {
            attempted: self.ops.len(),
            secs: self.secs(),
            bytes: self.bytes,
            cpu_ns: self.cpu_ns,
            ..Summary::default()
        };
        for r in &self.ops {
            let k = r.kind.idx();
            s.gets += usize::from(r.kind == Kind::Get);
            if !r.ok() {
                s.failed += 1;
                continue;
            }
            s.ok[k] += 1;
            if samples {
                s.latency[k].push(r.latency_ns() as f64);
                s.rtt[k].push(r.rtt_ns() as f64);
                s.late.push(r.sent.saturating_sub(r.due) as f64);
            }
        }
        s
    }
}

/// The generator's two connections.
pub struct Conns {
    /// Index 0 is the head (writes), index 1 the tail (reads).
    streams: [TcpStream; 2],
    parsers: [BinaryParser; 2],
}

impl Conns {
    /// Connects to the head and tail edges.
    pub fn connect(head: SocketAddr, tail: SocketAddr) -> std::io::Result<Conns> {
        let open = |a| -> std::io::Result<TcpStream> {
            let s = TcpStream::connect(a)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        };
        Ok(Conns {
            streams: [open(head)?, open(tail)?],
            parsers: [BinaryParser::new(), BinaryParser::new()],
        })
    }

    /// Runs one phase: `source` supplies ops (`None` ends the phase early),
    /// `client` stamps the request ids, `pace` sets the schedule, and
    /// `duration` bounds window pacing. `trace` times the client-side
    /// codec calls per op.
    pub fn run(
        &mut self,
        client: ClientId,
        source: &mut (dyn FnMut() -> Option<BenchOp> + Send),
        pace: &Pace,
        duration: Duration,
        trace: bool,
    ) -> std::io::Result<PhaseRun> {
        let shared = Shared {
            outstanding: AtomicUsize::new(0),
            sent_total: AtomicU64::new(0),
            done: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        };
        let start = now_ns();
        let [head, tail] = &self.streams;
        let recv_streams = [head.try_clone()?, tail.try_clone()?];
        let [p_head, p_tail] = &mut self.parsers;
        let (sent, recvd) = std::thread::scope(|s| {
            let sender = std::thread::Builder::new()
                .name("lg-send".into())
                .spawn_scoped(s, || {
                    let cpu0 = host::thread_self_cpu_ns();
                    let r = send_loop(
                        [head, tail],
                        client,
                        source,
                        pace,
                        start,
                        start + duration.as_nanos() as u64,
                        trace,
                        &shared,
                    );
                    shared.done.store(true, Ordering::Release);
                    (r, host::thread_self_cpu_ns() - cpu0)
                })
                .expect("spawn sender");
            let sender_thread = sender.thread().clone();
            let receiver = std::thread::Builder::new()
                .name("lg-recv".into())
                .spawn_scoped(s, {
                    let shared = &shared;
                    move || {
                        let cpu0 = host::thread_self_cpu_ns();
                        let r = recv_loop(
                            recv_streams,
                            [p_head, p_tail],
                            trace,
                            shared,
                            &sender_thread,
                        );
                        (r, host::thread_self_cpu_ns() - cpu0)
                    }
                })
                .expect("spawn receiver");
            let sent = sender.join().expect("sender panicked");
            let recvd = receiver.join().expect("receiver panicked");
            (sent, recvd)
        });
        let ((sent, send_cpu), (recvd, recv_cpu)) = (sent, recvd);
        let (sends, max_outstanding, sent_bytes) = sent?;
        let (mut recvs, end, recv_bytes) = recvd?;
        recvs.resize(sends.len(), Recv::default());
        let ops = sends
            .into_iter()
            .zip(recvs)
            .map(|(s, r)| OpRecord {
                kind: s.kind,
                rank: s.rank,
                put_value: s.put_value,
                rid: RequestId::compose(client, s.seq),
                due: s.due,
                sent: s.sent,
                recv: r.recv,
                enc_ns: s.enc_ns,
                dec_ns: r.dec_ns,
                outcome: r.outcome,
            })
            .collect();
        Ok(PhaseRun {
            ops,
            start,
            end,
            max_outstanding,
            bytes: sent_bytes + recv_bytes,
            cpu_ns: send_cpu + recv_cpu,
        })
    }
}

struct Shared {
    outstanding: AtomicUsize,
    sent_total: AtomicU64,
    done: AtomicBool,
    /// Set by the receiver on a dead connection so the sender stops.
    failed: AtomicBool,
}

struct SendRec {
    kind: Kind,
    rank: u32,
    seq: u32,
    put_value: u64,
    due: u64,
    sent: u64,
    enc_ns: u32,
}

#[derive(Clone)]
struct Recv {
    recv: u64,
    dec_ns: u32,
    outcome: Outcome,
}

impl Default for Recv {
    fn default() -> Self {
        Recv {
            recv: 0,
            dec_ns: 0,
            outcome: Outcome::Missing,
        }
    }
}

/// The connection an op goes out on: PUTs to the head, GETs to the tail.
fn conn_of(kind: Kind) -> usize {
    1 - kind.idx()
}

/// Encodes one op into its connection's buffer and returns its record.
fn encode(
    op: BenchOp,
    client: ClientId,
    seq: u32,
    due: u64,
    trace: bool,
    enc: &mut BinaryParser,
    bufs: &mut [BytesMut; 2],
) -> SendRec {
    let put_value = match &op.op {
        Op::Put { value, .. } => value_hash(value.as_bytes()),
        _ => 0,
    };
    let (kind, rank) = (op.kind, op.rank);
    let req = Request::new(RequestId::compose(client, seq), op.op);
    let buf = &mut bufs[conn_of(kind)];
    let enc_ns = if trace {
        let t0 = now_ns();
        enc.encode_request(&req, buf);
        (now_ns() - t0) as u32
    } else {
        enc.encode_request(&req, buf);
        0
    };
    SendRec {
        kind,
        rank,
        seq,
        put_value,
        due,
        sent: 0,
        enc_ns,
    }
}

/// Writes all of `buf` to a nonblocking socket, backing off briefly while
/// its send buffer is full.
fn write_all_nb(mut stream: &TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

type SendResult = std::io::Result<(Vec<SendRec>, usize, u64)>;

#[allow(clippy::too_many_arguments)]
fn send_loop(
    streams: [&TcpStream; 2],
    client: ClientId,
    source: &mut (dyn FnMut() -> Option<BenchOp> + Send),
    pace: &Pace,
    start: u64,
    deadline: u64,
    trace: bool,
    shared: &Shared,
) -> SendResult {
    let mut enc = BinaryParser::new();
    let mut bufs = [BytesMut::new(), BytesMut::new()];
    let mut sends: Vec<SendRec> = Vec::with_capacity(match pace {
        Pace::Open(offsets) => offsets.len(),
        Pace::Window(_) => 1 << 16,
    });
    let mut max_outstanding = 0;
    let mut bytes = 0u64;
    let mut exhausted = false;
    while !exhausted && !shared.failed.load(Ordering::Acquire) {
        let batch_start = sends.len();
        match pace {
            Pace::Open(offsets) => {
                let Some(&next) = offsets.get(sends.len()) else {
                    break;
                };
                let now = now_ns();
                if start + next > now {
                    std::thread::sleep(Duration::from_nanos(start + next - now));
                    continue;
                }
                // Everything due by now goes out in this batch.
                while let Some(&off) = offsets.get(sends.len()) {
                    if start + off > now {
                        break;
                    }
                    let Some(op) = source() else {
                        exhausted = true;
                        break;
                    };
                    let seq = sends.len() as u32;
                    sends.push(encode(
                        op,
                        client,
                        seq,
                        start + off,
                        trace,
                        &mut enc,
                        &mut bufs,
                    ));
                }
            }
            Pace::Window(window) => {
                let now = now_ns();
                if now >= deadline {
                    break;
                }
                let out = shared.outstanding.load(Ordering::Acquire);
                if out >= *window {
                    std::thread::park_timeout(Duration::from_millis(1));
                    continue;
                }
                for _ in out..*window {
                    let Some(op) = source() else {
                        exhausted = true;
                        break;
                    };
                    let seq = sends.len() as u32;
                    sends.push(encode(op, client, seq, now, trace, &mut enc, &mut bufs));
                }
            }
        }
        let n = sends.len() - batch_start;
        if n == 0 {
            continue;
        }
        let prev = shared.outstanding.fetch_add(n, Ordering::AcqRel);
        max_outstanding = max_outstanding.max(prev + n);
        let sent = now_ns();
        for s in &mut sends[batch_start..] {
            s.sent = sent;
        }
        for (stream, buf) in streams.iter().zip(bufs.iter_mut()) {
            if !buf.is_empty() {
                bytes += buf.len() as u64;
                write_all_nb(stream, buf)?;
                buf.clear();
            }
        }
        shared
            .sent_total
            .store(sends.len() as u64, Ordering::Release);
    }
    Ok((sends, max_outstanding, bytes))
}

type RecvResult = std::io::Result<(Vec<Recv>, u64, u64)>;

fn recv_loop(
    streams: [TcpStream; 2],
    parsers: [&mut BinaryParser; 2],
    trace: bool,
    shared: &Shared,
    sender: &std::thread::Thread,
) -> RecvResult {
    let r = recv_inner(streams, parsers, trace, shared, sender);
    if r.is_err() {
        shared.failed.store(true, Ordering::Release);
        sender.unpark();
    }
    r
}

fn recv_inner(
    streams: [TcpStream; 2],
    mut parsers: [&mut BinaryParser; 2],
    trace: bool,
    shared: &Shared,
    sender: &std::thread::Thread,
) -> RecvResult {
    let mut poll = mio::Poll::new()?;
    let mut events = mio::Events::with_capacity(8);
    let mut streams = streams.map(mio::net::TcpStream::from_std);
    for (i, s) in streams.iter_mut().enumerate() {
        poll.registry()
            .register(s, mio::Token(i), mio::Interest::READABLE)?;
    }
    let mut recvs: Vec<Recv> = Vec::with_capacity(1 << 16);
    let mut got = 0u64;
    let mut bytes = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    let mut done_at: Option<u64> = None;
    let mut last = now_ns();
    loop {
        if shared.done.load(Ordering::Acquire) {
            let total = shared.sent_total.load(Ordering::Acquire);
            if got >= total {
                break;
            }
            let now = now_ns();
            let since = *done_at.get_or_insert(now);
            if now - since > DRAIN_TIMEOUT_NS {
                last = now;
                break;
            }
        }
        poll.poll(&mut events, Some(Duration::from_millis(2)))?;
        // Edge-triggered: drain both sockets whatever the events say.
        for (stream, parser) in streams.iter_mut().zip(parsers.iter_mut()) {
            loop {
                let n = match stream.read(&mut buf) {
                    Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                    Ok(n) => n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                };
                let now = now_ns();
                last = now;
                bytes += n as u64;
                parser.feed(&buf[..n]);
                let mut batch = 0;
                loop {
                    let t0 = if trace { now_ns() } else { 0 };
                    let Some(resp) = parser
                        .next_response()
                        .map_err(|e| std::io::Error::other(e.to_string()))?
                    else {
                        break;
                    };
                    let dec_ns = if trace { (now_ns() - t0) as u32 } else { 0 };
                    let seq = resp.id.seq() as usize;
                    if seq >= recvs.len() {
                        recvs.resize(seq + 1, Recv::default());
                    }
                    let outcome = match resp.result {
                        Ok(RespBody::Value(vv)) => {
                            let v = vv.value.as_bytes();
                            Outcome::Value {
                                len: v.len() as u32,
                                hash: value_hash(v),
                            }
                        }
                        Ok(_) => Outcome::Done,
                        Err(e) => Outcome::Error(Box::new(e)),
                    };
                    recvs[seq] = Recv {
                        recv: now,
                        dec_ns,
                        outcome,
                    };
                    batch += 1;
                }
                if batch > 0 {
                    got += batch as u64;
                    shared.outstanding.fetch_sub(batch, Ordering::AcqRel);
                    sender.unpark();
                }
            }
        }
    }
    Ok((recvs, last, bytes))
}
