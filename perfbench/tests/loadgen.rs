//! Load-generator tests against a bench-local `TcpServer`.

use bespokv_proto::client::{Op, Request, RespBody, Response};
use bespokv_proto::parser::{BinaryParser, ProtocolParser};
use bespokv_runtime::tcp::{ParserFactory, ServerOptions, TcpServer, TransportKind};
use bespokv_types::{ClientId, Value, VersionedValue};
use perfbench::loadgen::{Conns, Pace, PhaseRun};
use perfbench::ops::{poisson_offsets, OpStream, WORKLOADS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn parsers() -> Arc<ParserFactory> {
    Arc::new(|| Box::new(BinaryParser::new()) as Box<dyn ProtocolParser>)
}

/// Answers every request at once: a 32 B value for GETs, `Done` else.
fn answer(req: &Request) -> Response {
    match req.op {
        Op::Get { .. } => Response::ok(
            req.id,
            RespBody::Value(VersionedValue::new(Value::from(vec![7u8; 32]), 1)),
        ),
        _ => Response::ok(req.id, RespBody::Done),
    }
}

fn server(handler: impl Fn(Request) -> Response + Send + Sync + 'static) -> TcpServer {
    TcpServer::bind_with(
        "127.0.0.1:0",
        parsers(),
        Arc::new(handler),
        ServerOptions {
            transport: Some(TransportKind::Reactor),
            reactor_threads: Some(1),
            ..ServerOptions::default()
        },
    )
    .expect("bind")
}

fn conns(s: &TcpServer) -> Conns {
    Conns::connect(s.local_addr(), s.local_addr()).expect("connect")
}

fn open_run(s: &TcpServer, workload: usize, rate: f64, secs: f64, seed: u64) -> PhaseRun {
    let mut stream = OpStream::new(&WORKLOADS[workload], seed, 1);
    conns(s)
        .run(
            ClientId(1),
            &mut || Some(stream.next_op()),
            &Pace::Open(poisson_offsets(rate, secs, seed)),
            Duration::from_secs_f64(secs),
            false,
        )
        .expect("run")
}

#[test]
fn poisson_sender_meets_its_mean_rate() {
    let s = server(|r| answer(&r));
    let run = open_run(&s, 0, 4_000.0, 1.0, 11);
    assert_eq!(run.failed(), 0);
    let first = run.ops.first().expect("ops").sent;
    let last = run.ops.last().expect("ops").sent;
    let rate = (run.ops.len() - 1) as f64 / ((last - first) as f64 / 1e9);
    assert!(
        (rate - 4_000.0).abs() < 4_000.0 * 0.06,
        "sent at {rate:.0}/s"
    );
    s.stop();
}

#[test]
fn due_time_latency_charges_a_stall_to_the_ops_queued_behind_it() {
    const STALL: Duration = Duration::from_millis(60);
    let slept = Arc::new(AtomicBool::new(false));
    let s = {
        let slept = Arc::clone(&slept);
        server(move |r| {
            if r.id.seq() == 500 && !slept.swap(true, Ordering::AcqRel) {
                std::thread::sleep(STALL);
            }
            answer(&r)
        })
    };
    // 2k ops/s: the stall holds ~120 ops behind the stalled one.
    let run = open_run(&s, 2, 2_000.0, 1.0, 5);
    assert!(slept.load(Ordering::Acquire));
    assert_eq!(run.failed(), 0);
    let stalled = &run.ops[500];
    let released = stalled.recv;
    // Every op due during the stall waits until it ends, and is charged
    // from its due time.
    let queued: Vec<_> = run
        .ops
        .iter()
        .filter(|r| r.due > stalled.due && r.due + 10_000_000 < released)
        .collect();
    assert!(
        queued.len() > 50,
        "only {} ops queued behind the stall",
        queued.len()
    );
    for r in &queued {
        assert!(
            r.recv >= released,
            "op due during the stall answered before it ended"
        );
        assert!(r.latency_ns() + 1_000_000 >= released - r.due);
    }
    let slow = run
        .ops
        .iter()
        .filter(|r| r.latency_ns() > STALL.as_nanos() as u64 / 2)
        .count();
    assert!(slow > 40, "the stall reached only {slow} ops");
    s.stop();
}

#[test]
fn closed_window_never_exceeds_its_bound() {
    let s = server(|r| {
        std::thread::sleep(Duration::from_micros(50));
        answer(&r)
    });
    for window in [1, 8] {
        let mut stream = OpStream::new(&WORKLOADS[1], 3, 2);
        let run = conns(&s)
            .run(
                ClientId(2),
                &mut || Some(stream.next_op()),
                &Pace::Window(window),
                Duration::from_millis(300),
                false,
            )
            .expect("run");
        assert_eq!(run.failed(), 0);
        assert!(
            run.max_outstanding <= window,
            "{} > {window}",
            run.max_outstanding
        );
        assert_eq!(run.max_outstanding, window, "window never filled");
    }
    s.stop();
}

#[test]
fn same_seed_sends_the_same_ops_and_another_seed_does_not() {
    let s = server(|r| answer(&r));
    let sent = |seed| -> Vec<(u32, u64)> {
        open_run(&s, 1, 2_000.0, 0.2, seed)
            .ops
            .iter()
            .map(|r| (r.rank, r.put_value))
            .collect()
    };
    let a = sent(21);
    assert!(!a.is_empty());
    assert_eq!(a, sent(21));
    assert_ne!(a, sent(22));
    s.stop();
}
