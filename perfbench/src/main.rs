//! The benchmark binary. Stands up a live MS+SC chain (1 shard x 3 tHT
//! replicas, fast path, write combining, skew engine) behind two epoll
//! reactor TCP edges, loads 100k keys, drives one workload through the
//! `open`, `probe` and `sat` phases, checks every answer, and prints the
//! metrics. The last stdout line is one JSON object.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```

use bespokv_cluster::{ClusterSpec, LiveCluster, NodeEdge};
use bespokv_datalet::{DataletStats, DEFAULT_TABLE};
use bespokv_runtime::tcp::{ServerOptions, TcpServer, TcpServerStats, TransportKind};
use bespokv_types::{ClientId, Mode, NodeId, SkewConfig, SkewSnapshot};
use bespokv_workloads::ycsb::Mix;
use perfbench::check::{replicas_agree, History};
use perfbench::host::{self, ThreadCpu};
use perfbench::loadgen::{now_ns, Conns, OpRecord, Pace, PhaseRun, Summary};
use perfbench::ops::{self, BenchOp, Kind, OpStream, WorkloadSpec, KEYS};
use perfbench::trace::{self, SpanStore};
use perfbench::{median, quantile};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster builds per run (all but one in child processes); `setup_s` is
/// the median over the quieter half of them by host steal.
const SETUPS: usize = 5;
/// Outstanding ops in the load and `sat` phases.
const WINDOW: usize = 64;
/// Rounds of `open`, `probe` and `sat` per run. Each gated figure is a
/// median over rounds (see [`quiet`]), so a neighbour burst spoils a
/// round, not the run.
const ROUNDS: usize = 20;
/// Shares of a round taken by `open`, `probe` and `sat`.
const SHARES: [f64; 3] = [0.35, 0.4, 0.25];
/// Direct datalet calls timed after a traced run.
const DATALET_CALLS: u32 = 20_000;
/// Seed of the schedule of Poisson arrivals, mixed with `--seed`.
const ARRIVAL_SALT: u64 = 0xA771_7A15;

struct Args {
    spec: WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = ops::workload(&name).ok_or_else(|| {
        let names: Vec<_> = ops::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// A running cluster with its head and tail edges.
struct Bench {
    cluster: LiveCluster,
    /// `[head, tail]`, each bound by `LiveCluster::tcp_edge`.
    edges: Vec<(NodeEdge, TcpServer)>,
    /// Edges bound by the benchmark with traced parser and handler.
    traced: Vec<(NodeEdge, TcpServer)>,
}

const HEAD: NodeId = NodeId(0);
const TAIL: NodeId = NodeId(2);

impl Bench {
    fn build(traced: Option<&Arc<SpanStore>>) -> Bench {
        let mut cluster = LiveCluster::build(
            ClusterSpec::new(1, 3, Mode::MS_SC)
                .with_fast_path()
                .with_write_combine()
                .with_skew(SkewConfig::default()),
        );
        let edges = vec![cluster.tcp_edge(HEAD, true), cluster.tcp_edge(TAIL, true)];
        let traced = traced
            .map(|store| {
                [HEAD, TAIL]
                    .into_iter()
                    .map(|node| traced_edge(&mut cluster, node, store))
                    .collect()
            })
            .unwrap_or_default();
        Bench {
            cluster,
            edges,
            traced,
        }
    }

    fn conns(&self, traced: bool) -> std::io::Result<Conns> {
        let e = if traced { &self.traced } else { &self.edges };
        Conns::connect(e[0].1.local_addr(), e[1].1.local_addr())
    }

    fn servers(&self) -> impl Iterator<Item = &TcpServer> {
        self.edges.iter().chain(&self.traced).map(|(_, s)| s)
    }

    fn shutdown(self) {
        for (edge, server) in self.edges.into_iter().chain(self.traced) {
            server.stop();
            drop(edge);
        }
        self.cluster.rt.shutdown();
    }
}

/// The traced twin of `LiveCluster::tcp_edge`: same edge configuration,
/// with the parser and the deferred handler wrapped in span recorders.
fn traced_edge(
    cluster: &mut LiveCluster,
    node: NodeId,
    store: &Arc<SpanStore>,
) -> (NodeEdge, TcpServer) {
    let table = Arc::clone(cluster.fast_path().expect("fast path enabled"));
    let edge =
        NodeEdge::new(node, table, cluster.rt.register_mailbox(), true).with_write_combine(true);
    let server = TcpServer::bind_deferred(
        "127.0.0.1:0",
        trace::traced_parsers(store),
        trace::traced_handler(edge.defer_handler(), store),
        ServerOptions {
            transport: Some(TransportKind::Reactor),
            ..ServerOptions::default()
        },
    )
    .expect("bind traced edge");
    (edge, server)
}

/// Counters and CPU at one instant.
struct Snap {
    t: u64,
    steal: u64,
    cpu: u64,
    threads: ThreadCpu,
    hits: u64,
    fallbacks: u64,
    skew: SkewSnapshot,
    combiner: bespokv::CombinerSnapshot,
    datalets: Vec<DataletStats>,
}

impl Snap {
    fn take(b: &Bench) -> Snap {
        let table = b.cluster.fast_path().expect("fast path enabled");
        Snap {
            t: now_ns(),
            steal: host::steal_ns(),
            cpu: host::process_cpu_ns(),
            threads: host::thread_cpu(),
            hits: table.total_hits(),
            fallbacks: table.total_fallbacks(),
            skew: b.cluster.skew_snapshot(),
            combiner: table.combiner_snapshot(),
            datalets: b.cluster.datalets.iter().map(|d| d.stats()).collect(),
        }
    }

    /// CPU of threads matching `want` between `self` and `later`, ns.
    fn thread_cpu(&self, later: &Snap, want: impl Fn(&str) -> bool) -> u64 {
        host::cpu_delta(&self.threads, &later.threads, want)
    }
}

/// One cluster, built and loaded.
struct Setup {
    bench: Bench,
    conns: Conns,
    /// The load's records.
    loaded: PhaseRun,
    /// Build plus acked load, seconds.
    secs: f64,
    /// Host steal meanwhile, ns.
    steal: u64,
}

impl Setup {
    fn run(store: Option<&Arc<SpanStore>>) -> std::io::Result<Setup> {
        let steal = host::steal_ns();
        let t0 = Instant::now();
        let bench = Bench::build(store);
        let mut conns = bench.conns(false)?;
        let loaded = load(&mut conns, ClientId(100))?;
        let secs = t0.elapsed().as_secs_f64();
        if loaded.failed() > 0 || loaded.ops.len() as u64 != KEYS {
            let msg = format!(
                "load failed: {} of {} acked",
                loaded.completed(),
                loaded.ops.len()
            );
            drop(conns);
            bench.shutdown();
            return Err(std::io::Error::other(msg));
        }
        Ok(Setup {
            bench,
            conns,
            loaded,
            secs,
            steal: host::steal_ns() - steal,
        })
    }
}

/// `--setup-only`: one set-up in this process; prints `setup <secs>
/// <steal_ns>`.
fn setup_child() -> std::io::Result<()> {
    let s = Setup::run(None)?;
    drop(s.conns);
    s.bench.shutdown();
    println!("setup {} {}", s.secs, s.steal);
    Ok(())
}

/// Runs one set-up in a child process of this binary and waits for it.
fn setup_in_child() -> std::io::Result<(f64, u64)> {
    let out = std::process::Command::new(std::env::current_exe()?)
        .arg("--setup-only")
        .stderr(std::process::Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text.lines().last().and_then(|l| {
        let mut f = l.strip_prefix("setup ")?.split(' ');
        Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
    });
    match parsed {
        Some(p) if out.status.success() => Ok(p),
        _ => Err(std::io::Error::other(format!(
            "set-up child failed ({}): {text}",
            out.status
        ))),
    }
}

/// The load phase: every key once, acked, through the head edge.
fn load(conns: &mut Conns, client: ClientId) -> std::io::Result<PhaseRun> {
    let mut rank = 0u32;
    let mut source = move || {
        (u64::from(rank) < KEYS).then(|| {
            rank += 1;
            ops::load_op(rank - 1)
        })
    };
    conns.run(
        client,
        &mut source,
        &Pace::Window(WINDOW),
        Duration::from_secs(120),
        false,
    )
}

/// One round: its three phases and the snapshots around them (before
/// `open`, after `open`, after `probe`, after `sat`).
struct Round {
    open: Summary,
    probe: Summary,
    sat: Summary,
    snaps: [Snap; 4],
    /// For a mix without GETs: a GET-only probe run after `sat`, outside
    /// the snapshots, with its host steal (ns).
    get_probe: Option<(Summary, u64)>,
}

impl Round {
    /// Host steal during the round, ns.
    fn steal(&self) -> u64 {
        self.snaps[SAT + 1].steal - self.snaps[OPEN].steal
    }

    /// Host steal during one phase, ns.
    fn phase_steal(&self, phase: usize) -> u64 {
        self.snaps[phase + 1].steal - self.snaps[phase].steal
    }
}

/// The quieter half of `items` by host steal, in their original order.
/// Gated figures are medians over the rounds whose phase was quiet: a
/// phase in which a neighbour took the CPU is printed, but not counted.
fn quiet<T>(items: &[T], steal: impl Fn(&T) -> u64) -> Vec<&T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    idx.sort_by_key(|&i| (steal(&items[i]), i));
    idx.truncate(items.len().div_ceil(2));
    idx.sort_unstable();
    idx.into_iter().map(|i| &items[i]).collect()
}

/// Phase indices into [`Round::snaps`]: phase `i` runs from `snaps[i]`
/// to `snaps[i + 1]`.
const OPEN: usize = 0;
const PROBE: usize = 1;
const SAT: usize = 2;

/// Checks a phase's answers into `errors` and condenses it.
fn finish(
    run: &PhaseRun,
    history: &mut History,
    errors: &mut Vec<String>,
    samples: bool,
) -> Summary {
    errors.extend(history.check_phase(&run.ops));
    run.summary(samples)
}

fn rounds(
    bench: &Bench,
    conns: &mut Conns,
    args: &Args,
    history: &mut History,
    errors: &mut Vec<String>,
) -> std::io::Result<Vec<Round>> {
    let spec = &args.spec;
    let round_s = args.seconds / ROUNDS as f64;
    let [open_s, probe_s, sat_s] = SHARES.map(|f| f * round_s);
    let mut streams = [1, 2, 3].map(|phase| OpStream::new(spec, args.seed, phase));
    let gets_only = WorkloadSpec {
        mix: Mix::read_write(1.0),
        ..*spec
    };
    let mut get_stream = OpStream::new(&gets_only, args.seed, 4);
    let mut out = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS as u32 {
        let s0 = Snap::take(bench);
        let arrivals = args.seed ^ ARRIVAL_SALT ^ u64::from(r);
        let open = conns.run(
            ClientId(200 + r),
            &mut || Some(streams[OPEN].next_op()),
            &Pace::Open(ops::poisson_offsets(spec.rate, open_s, arrivals)),
            Duration::from_secs_f64(open_s),
            args.trace,
        )?;
        let s1 = Snap::take(bench);
        let probe = conns.run(
            ClientId(300 + r),
            &mut || Some(streams[PROBE].next_op()),
            &Pace::Window(1),
            Duration::from_secs_f64(probe_s),
            args.trace,
        )?;
        let s2 = Snap::take(bench);
        let sat = conns.run(
            ClientId(400 + r),
            &mut || Some(streams[SAT].next_op()),
            &Pace::Window(WINDOW),
            Duration::from_secs_f64(sat_s),
            args.trace,
        )?;
        let s3 = Snap::take(bench);
        let open = finish(&open, history, errors, true);
        let probe = finish(&probe, history, errors, true);
        let sat = finish(&sat, history, errors, false);
        // A mix without GETs still reports GET figures: from a GET-only
        // probe of the same length, outside the round's counters.
        let get_probe = if spec.mix.get == 0.0 {
            let steal = host::steal_ns();
            let run = conns.run(
                ClientId(500 + r),
                &mut || Some(get_stream.next_op()),
                &Pace::Window(1),
                Duration::from_secs_f64(probe_s),
                args.trace,
            )?;
            let steal = host::steal_ns() - steal;
            Some((finish(&run, history, errors, true), steal))
        } else {
            None
        };
        out.push(Round {
            open,
            probe,
            sat,
            snaps: [s0, s1, s2, s3],
            get_probe,
        });
    }
    Ok(out)
}

/// Sum over rounds of `f(snaps[to]) - f(snaps[from])`.
fn delta(rounds: &[Round], from: usize, to: usize, f: impl Fn(&Snap) -> u64) -> f64 {
    rounds
        .iter()
        .map(|r| f(&r.snaps[to]).saturating_sub(f(&r.snaps[from])) as f64)
        .sum()
}

/// CPU of threads matching `want` during phase `phase`, summed over
/// rounds, ns.
fn thread_delta(rounds: &[Round], phase: usize, want: impl Fn(&str) -> bool) -> f64 {
    rounds
        .iter()
        .map(|r| r.snaps[phase].thread_cpu(&r.snaps[phase + 1], &want) as f64)
        .sum()
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The median over chunks of each chunk's `q`-quantile of the samples
/// `pick` selects; chunks without samples are skipped.
fn median_over<'a>(
    chunks: impl IntoIterator<Item = &'a Summary>,
    pick: impl Fn(&Summary) -> &Vec<f64>,
    q: f64,
) -> f64 {
    let mut per: Vec<f64> = chunks
        .into_iter()
        .map(|c| quantile(&mut pick(c).clone(), q))
        .filter(|v| !v.is_nan())
        .collect();
    median(&mut per)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric line: name, value, unit.
struct Metric(&'static str, f64, &'static str);

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|Metric(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    // The benchmark pins the epoll reactor edge; `tcp_edge` resolves the
    // transport from this variable. Set before any thread exists.
    std::env::set_var("BESPOKV_EDGE", "reactor");
    if std::env::args().any(|a| a == "--setup-only") {
        if let Err(e) = setup_child() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> std::io::Result<bool> {
    let slack_ok = host::set_timer_slack_ns(1_000);
    now_ns();
    let spec = &args.spec;
    let probe_s = SHARES[PROBE] * args.seconds / ROUNDS as f64;
    let store = args.trace.then(|| SpanStore::with_capacity(1 << 18));
    let steal0 = host::steal_ns();

    // Set-up: the extra builds run in child processes, so this process
    // holds one cluster's memory; `setup_s` takes every build's time.
    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        setups.push(setup_in_child()?);
    }
    let Setup {
        bench,
        mut conns,
        loaded,
        secs,
        steal,
    } = Setup::run(store.as_ref())?;
    setups.push((secs, steal));
    let mut history = History::default();
    let mut errors: Vec<String> = Vec::new();
    history.absorb(&loaded.ops);
    history.forget_superseded();
    drop(loaded);
    let stray = bench
        .servers()
        .map(TcpServer::transport_kind)
        .find(|&k| k != TransportKind::Reactor);
    if let Some(kind) = stray {
        eprintln!("edge resolved to {kind:?}, not the reactor");
        drop(conns);
        bench.shutdown();
        return Ok(false);
    }

    // Traced runs sample the edges' parked-request tables meanwhile.
    let parked_max = AtomicUsize::new(0);
    let sampling = AtomicBool::new(args.trace);
    let rounds = std::thread::scope(|sc| {
        if args.trace {
            let edges: Vec<&NodeEdge> = bench.edges.iter().map(|(e, _)| e).collect();
            let (parked_max, sampling) = (&parked_max, &sampling);
            std::thread::Builder::new()
                .name("parked-sampler".into())
                .spawn_scoped(sc, move || {
                    while sampling.load(Ordering::Acquire) {
                        let n: usize = edges.iter().map(|e| e.parked()).sum();
                        parked_max.fetch_max(n, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
                .expect("spawn sampler");
        }
        let r = rounds(&bench, &mut conns, args, &mut history, &mut errors);
        sampling.store(false, Ordering::Release);
        r
    })?;

    // Traced probe: chunks alternate between the plain and the traced
    // edges so the two see the same host conditions.
    let mut plain_chunks = Vec::new();
    let mut traced_chunks = Vec::new();
    if let Some(store) = &store {
        store.take();
        let mut traced_conns = bench.conns(true)?;
        let mut stream = OpStream::new(spec, args.seed, 4);
        for c in 0..ROUNDS {
            let traced = c % 2 == 1;
            let cs = if traced {
                &mut traced_conns
            } else {
                &mut conns
            };
            let run = cs.run(
                ClientId(800 + c as u32),
                &mut || Some(stream.next_op()),
                &Pace::Window(1),
                Duration::from_secs_f64(probe_s),
                true,
            )?;
            errors.extend(history.check_phase(&run.ops));
            if traced {
                traced_chunks.push(run);
            } else {
                plain_chunks.push(run);
            }
        }
    }

    // The read-back of every written key from the tail.
    let ranks = history.written_ranks();
    let mut it = ranks.iter().map(|&rank| BenchOp {
        kind: Kind::Get,
        rank,
        op: bespokv_proto::client::Op::Get {
            key: ops::key(rank),
        },
    });
    let run = conns.run(
        ClientId(700),
        &mut || it.next(),
        &Pace::Window(WINDOW),
        Duration::from_secs(120),
        false,
    )?;
    errors.extend(run.ops.iter().filter_map(|r| history.check_final(r).err()));
    if run.ops.len() != ranks.len() {
        errors.push(format!(
            "read-back covered {} of {} written keys",
            run.ops.len(),
            ranks.len()
        ));
    }
    let readback = run.summary(false);
    drop(run);
    // The edges must not have dropped, refused or shed anything.
    for server in bench.servers() {
        let st = server.stats();
        let lost = st.protocol_error_drops
            + st.spawn_failures
            + st.connections_refused
            + st.pipeline_shed
            + st.pool_shed;
        if lost > 0 {
            errors.push(format!(
                "edge at {} dropped or shed: {st:?}",
                server.local_addr()
            ));
        }
    }
    // Replica agreement on every key.
    for rank in 0..KEYS as u32 {
        let key = ops::key(rank);
        let reads: Vec<_> = bench
            .cluster
            .datalets
            .iter()
            .map(|d| {
                d.get(DEFAULT_TABLE, &key)
                    .ok()
                    .map(|vv| (vv.value.as_bytes().to_vec(), vv.version))
            })
            .collect();
        if let Err(e) = replicas_agree(rank, &reads) {
            errors.push(e);
        }
    }

    let steal_ms = (host::steal_ns() - steal0) as f64 / 1e6;
    let mut late: Vec<f64> = rounds.iter().flat_map(|r| r.open.late.clone()).collect();
    let late_p50_us = us(median(&mut late));
    let late_max_us = us(late.last().copied().unwrap_or(0.0));

    let quiet_phases = [OPEN, PROBE, SAT].map(|ph| quiet(&rounds, |r| r.phase_steal(ph)));
    let metrics = if let Some(store) = &store {
        per_layer(&PerLayer {
            bench: &bench,
            rounds: &rounds,
            plain: &plain_chunks,
            traced: &traced_chunks,
            store,
            parked_max: parked_max.load(Ordering::Relaxed),
            late_p50_us,
            late_max_us,
            steal_ms,
            path: format!("perfbench/out/spans-{}-{}.tsv", spec.name, args.seed),
        })?
    } else {
        let metrics = end_to_end(&setups, &rounds, &quiet_phases);
        for Metric(name, v, _) in &metrics {
            if !(v.is_finite() && *v > 0.0) {
                errors.push(format!("{name} has no samples"));
            }
        }
        metrics
    };

    let summaries = rounds
        .iter()
        .flat_map(|r| [&r.open, &r.probe, &r.sat])
        .chain(
            rounds
                .iter()
                .filter_map(|r| r.get_probe.as_ref().map(|(s, _)| s)),
        )
        .chain([&readback]);
    let chunks = plain_chunks.iter().chain(&traced_chunks);
    let attempted = summaries.clone().map(|s| s.attempted).sum::<usize>()
        + chunks.clone().map(|c| c.ops.len()).sum::<usize>();
    let failed =
        summaries.map(|s| s.failed).sum::<usize>() + chunks.map(PhaseRun::failed).sum::<usize>();
    let correct = failed == 0 && errors.is_empty();

    // Host block.
    println!(
        "host: nproc={} transport={:?} commit={} profile={} timer_slack={} steal_ms={:.1} \
         late_p50_us={:.1} late_max_us={:.1}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        bench.edges[0].1.transport_kind(),
        std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        if slack_ok { "1us" } else { "default" },
        steal_ms,
        late_p50_us,
        late_max_us,
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} rate={} ops/s rounds={ROUNDS}",
        spec.name, args.seed, args.seconds, args.trace as u8, spec.rate
    );
    for (i, r) in rounds.iter().enumerate() {
        let counted: String = quiet_phases
            .iter()
            .map(|q| {
                if q.iter().any(|q| std::ptr::eq(*q, r)) {
                    '+'
                } else {
                    '-'
                }
            })
            .collect();
        println!(
            "round {i}: counted={counted} steal_ms={:.0} failed open={}/{} probe={}/{} \
             sat={}/{} sat_ops_per_s={:.0} open_p50_us={:.1}/{:.1} probe_p99_us={:.1}/{:.1}",
            r.steal() as f64 / 1e6,
            r.open.failed,
            r.open.attempted,
            r.probe.failed,
            r.probe.attempted,
            r.sat.failed,
            r.sat.attempted,
            r.sat.ops_per_s(),
            us(median(&mut r.open.latency[0].clone())),
            us(median(&mut r.open.latency[1].clone())),
            us(quantile(&mut r.probe.rtt[0].clone(), 0.99)),
            us(quantile(&mut r.probe.rtt[1].clone(), 0.99)),
        );
    }
    println!(
        "read-back: failed {}/{}",
        readback.failed, readback.attempted
    );
    for e in errors.iter().take(10) {
        println!("check failed: {e}");
    }
    if errors.len() > 10 {
        println!("check failed: ... {} more", errors.len() - 10);
    }

    // Open-loop tails: printed, not gated (host pauses dominate them).
    for kind in [Kind::Get, Kind::Put] {
        let mut v: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.open.latency[kind.idx()].clone())
            .collect();
        if !v.is_empty() {
            println!(
                "open {kind:?}: n={} p50_us={:.1} p99_us={:.1} p999_us={:.1} (p99 and p999 not gated)",
                v.len(),
                us(quantile(&mut v, 0.5)),
                us(quantile(&mut v, 0.99)),
                us(quantile(&mut v, 0.999)),
            );
        }
    }

    for Metric(name, v, unit) in &metrics {
        println!("metric {name} = {v:.4} {unit}");
    }
    drop(conns);
    bench.shutdown();
    println!("{}", json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn end_to_end(
    setups: &[(f64, u64)],
    rounds: &[Round],
    quiet_phases: &[Vec<&Round>; 3],
) -> Vec<Metric> {
    let opens = || quiet_phases[OPEN].iter().map(|r| &r.open);
    let probes = || quiet_phases[PROBE].iter().map(|r| &r.probe);
    let (get, put) = (Kind::Get.idx(), Kind::Put.idx());
    let get_probes: Vec<&(Summary, u64)> =
        rounds.iter().filter_map(|r| r.get_probe.as_ref()).collect();
    let (get_p50, get_rtt_p50, get_rtt_p99) = if get_probes.is_empty() {
        (
            median_over(opens(), |s| &s.latency[get], 0.5),
            median_over(probes(), |s| &s.rtt[get], 0.5),
            median_over(probes(), |s| &s.rtt[get], 0.99),
        )
    } else {
        // write_only_uniform: no GETs in the mix, so the GET figures come
        // from the GET-only probes, one GET outstanding on the tail edge.
        let chunks = || quiet(&get_probes, |c| c.1).into_iter().map(|c| &c.0);
        let p50 = median_over(chunks(), |s| &s.rtt[get], 0.5);
        (p50, p50, median_over(chunks(), |s| &s.rtt[get], 0.99))
    };
    let mut sat: Vec<f64> = quiet_phases[SAT]
        .iter()
        .map(|r| r.sat.ops_per_s())
        .collect();
    let open_ops: usize = opens().map(Summary::completed).sum();
    let open_cpu: f64 = quiet_phases[OPEN]
        .iter()
        .map(|r| (r.snaps[OPEN + 1].cpu - r.snaps[OPEN].cpu) as f64)
        .sum();
    let mut setup: Vec<f64> = quiet(setups, |s| s.1).into_iter().map(|s| s.0).collect();
    vec![
        Metric("setup_s", median(&mut setup), "s"),
        Metric("get_p50_us", us(get_p50), "us"),
        Metric(
            "put_p50_us",
            us(median_over(opens(), |s| &s.latency[put], 0.5)),
            "us",
        ),
        Metric("get_rtt_p50_us", us(get_rtt_p50), "us"),
        Metric("get_rtt_p99_us", us(get_rtt_p99), "us"),
        Metric(
            "put_rtt_p50_us",
            us(median_over(probes(), |s| &s.rtt[put], 0.5)),
            "us",
        ),
        Metric(
            "put_rtt_p99_us",
            us(median_over(probes(), |s| &s.rtt[put], 0.99)),
            "us",
        ),
        Metric("sat_ops_per_s", median(&mut sat), "1/s"),
        Metric("cpu_us_per_op", us(open_cpu) / open_ops.max(1) as f64, "us"),
        Metric("rss_mb", host::vm_hwm_kib() as f64 / 1024.0, "MB"),
    ]
}
struct PerLayer<'a> {
    bench: &'a Bench,
    rounds: &'a [Round],
    plain: &'a [PhaseRun],
    traced: &'a [PhaseRun],
    store: &'a Arc<SpanStore>,
    parked_max: usize,
    late_p50_us: f64,
    late_max_us: f64,
    steal_ms: f64,
    path: String,
}

fn per_layer(p: &PerLayer) -> std::io::Result<Vec<Metric>> {
    let rounds = p.rounds;
    let open_ops = rounds
        .iter()
        .map(|r| r.open.completed())
        .sum::<usize>()
        .max(1) as f64;
    let open_puts = rounds
        .iter()
        .map(|r| r.open.ok[Kind::Put.idx()])
        .sum::<usize>()
        .max(1) as f64;
    let gets = rounds
        .iter()
        .map(|r| r.open.gets + r.probe.gets + r.sat.gets)
        .sum::<usize>() as f64;
    let is_reactor = |n: &str| n.starts_with("bespokv-reac");
    let actor = |node: NodeId| {
        let name = format!("actor-{}", node.raw());
        move |n: &str| n == name
    };

    // Spans: join the traced chunks' records with the server spans.
    let spans = p.store.take();
    trace::write_spans(std::path::Path::new(&p.path), &spans)?;
    let traced_ops: Vec<OpRecord> = p.traced.iter().flat_map(|c| c.ops.clone()).collect();
    let b = trace::breakdown(&traced_ops, &spans);
    let plain_rtt: Vec<f64> = p
        .plain
        .iter()
        .flat_map(|c| c.ops.iter().filter(|r| r.ok()).map(|r| r.rtt_ns() as f64))
        .collect();
    let plain_mean = plain_rtt.iter().sum::<f64>() / plain_rtt.len().max(1) as f64;

    // Counters over every phase of every round.
    let all = |f: fn(&Snap) -> u64| delta(rounds, OPEN, SAT + 1, f);
    let hits = all(|s| s.hits);
    let fallbacks = all(|s| s.fallbacks);
    let comb = |from: usize, to: usize, f: fn(&bespokv::CombinerSnapshot) -> u64| {
        delta(rounds, from, to, |s| f(&s.combiner))
    };
    let batches = comb(OPEN, SAT + 1, |c| c.batches);
    let single = comb(OPEN, SAT + 1, |c| c.ops_per_batch[0]);
    let skew = |f: fn(&SkewSnapshot) -> u64| delta(rounds, OPEN, SAT + 1, |s| f(&s.skew));
    let dl = |f: fn(&DataletStats) -> u64| -> f64 {
        delta(rounds, OPEN, SAT + 1, |s| s.datalets.iter().map(f).sum())
    };
    let server = p
        .bench
        .servers()
        .fold(TcpServerStats::default(), |mut acc, s| {
            let st = s.stats();
            acc.protocol_error_drops += st.protocol_error_drops + st.spawn_failures;
            acc.connections_refused += st.connections_refused;
            acc.pipeline_shed += st.pipeline_shed + st.pool_shed;
            acc
        });
    let sat_wall = delta(rounds, SAT, SAT + 1, |s| s.t);
    let busy_frac_max = [HEAD, NodeId(1), TAIL]
        .into_iter()
        .map(|n| thread_delta(rounds, SAT, actor(n)) / sat_wall)
        .fold(0.0, f64::max);

    // Direct datalet calls on the tail's store; puts go to a scratch table.
    let tail = &p.bench.cluster.datalets[TAIL.raw() as usize];
    let ranks: Vec<u32> = (0..DATALET_CALLS)
        .map(|i| (i * 7919) % KEYS as u32)
        .collect();
    let keys: Vec<_> = ranks.iter().map(|&r| ops::key(r)).collect();
    let values: Vec<_> = ranks.iter().map(|&r| ops::load_value(r)).collect();
    let t0 = now_ns();
    for key in &keys {
        std::hint::black_box(tail.get(DEFAULT_TABLE, key).ok());
    }
    let get_ns = (now_ns() - t0) as f64 / f64::from(DATALET_CALLS);
    let scratch = "perfbench_scratch";
    tail.create_table(scratch).ok();
    let t0 = now_ns();
    for (key, value) in keys.into_iter().zip(values) {
        std::hint::black_box(tail.put(scratch, key, value, 1).ok());
    }
    let put_ns = (now_ns() - t0) as f64 / f64::from(DATALET_CALLS);

    let open_bytes: u64 = rounds.iter().map(|r| r.open.bytes).sum();
    let open_sent: usize = rounds.iter().map(|r| r.open.attempted).sum();
    let open_cpu: u64 = rounds.iter().map(|r| r.open.cpu_ns).sum();
    let sat_ops = rounds
        .iter()
        .map(|r| r.sat.completed())
        .sum::<usize>()
        .max(1) as f64;
    Ok(vec![
        Metric("loadgen.late_p50_us", p.late_p50_us, "us"),
        Metric("loadgen.late_max_us", p.late_max_us, "us"),
        Metric(
            "loadgen.cpu_us_per_op",
            us(open_cpu as f64) / open_ops,
            "us",
        ),
        Metric("host.steal_ms", p.steal_ms, "ms"),
        Metric(
            "process.sat_cpu_us_per_op",
            us(delta(rounds, SAT, SAT + 1, |s| s.cpu)) / sat_ops,
            "us",
        ),
        Metric("proto.encode_ns", b.client_encode, "ns"),
        Metric("proto.decode_ns", b.client_decode, "ns"),
        Metric("proto.server_decode_ns", b.server_decode, "ns"),
        Metric("proto.server_encode_ns", b.server_encode, "ns"),
        Metric(
            "proto.bytes_per_op",
            open_bytes as f64 / open_sent.max(1) as f64,
            "B",
        ),
        Metric(
            "runtime.edge_cpu_us_per_op",
            us(thread_delta(rounds, OPEN, is_reactor)) / open_ops,
            "us",
        ),
        Metric("runtime.drops", server.protocol_error_drops as f64, "count"),
        Metric(
            "runtime.refused",
            server.connections_refused as f64,
            "count",
        ),
        Metric("runtime.shed", server.pipeline_shed as f64, "count"),
        Metric("edge.handler_ready_ns", b.handler_ready, "ns"),
        Metric("edge.handler_parked_ns", b.handler_parked, "ns"),
        Metric("edge.park_wait_us", us(b.park_wait), "us"),
        Metric(
            "edge.fastpath_ratio",
            ratio(hits, hits + fallbacks),
            "ratio",
        ),
        Metric("edge.fastpath_hits", hits, "count"),
        Metric("edge.fastpath_fallbacks", fallbacks, "count"),
        Metric("edge.parked_max", p.parked_max as f64, "count"),
        Metric(
            "skew.sketch_ops_per_get",
            ratio(skew(|s| s.sketch_ops), gets),
            "ratio",
        ),
        Metric(
            "skew.cache_hit_ratio",
            ratio(skew(|s| s.cache_hits), skew(|s| s.hot_lookups)),
            "ratio",
        ),
        Metric("skew.hot_lookups", skew(|s| s.hot_lookups), "count"),
        Metric("skew.cache_hits", skew(|s| s.cache_hits), "count"),
        Metric("skew.coalesced", skew(|s| s.coalesced), "count"),
        Metric("skew.hot_routed", skew(|s| s.hot_routed), "count"),
        Metric(
            "oplog.ops_per_batch",
            ratio(
                comb(OPEN, OPEN + 1, |c| c.ops),
                comb(OPEN, OPEN + 1, |c| c.batches),
            ),
            "ops",
        ),
        Metric(
            "oplog.sat_ops_per_batch",
            ratio(
                comb(SAT, SAT + 1, |c| c.ops),
                comb(SAT, SAT + 1, |c| c.batches),
            ),
            "ops",
        ),
        Metric(
            "oplog.multi_op_batch_share",
            ratio(batches - single, batches),
            "ratio",
        ),
        Metric(
            "oplog.lock_contention",
            comb(OPEN, SAT + 1, |c| c.lock_contention),
            "count",
        ),
        Metric(
            "oplog.window_waits",
            comb(OPEN, SAT + 1, |c| c.window_waits),
            "count",
        ),
        Metric(
            "oplog.shed",
            comb(OPEN, SAT + 1, |c| {
                c.shed_full + c.shed_expired + c.shed_window
            }),
            "count",
        ),
        Metric(
            "controlet.head_cpu_us_per_put",
            us(thread_delta(rounds, OPEN, actor(HEAD))) / open_puts,
            "us",
        ),
        Metric(
            "controlet.mid_cpu_us_per_put",
            us(thread_delta(rounds, OPEN, actor(NodeId(1)))) / open_puts,
            "us",
        ),
        Metric(
            "controlet.tail_cpu_us_per_put",
            us(thread_delta(rounds, OPEN, actor(TAIL))) / open_puts,
            "us",
        ),
        Metric("controlet.busy_frac_max", busy_frac_max, "ratio"),
        Metric("datalet.get_ns", get_ns, "ns"),
        Metric("datalet.put_ns", put_ns, "ns"),
        Metric("datalet.reads", dl(|d| d.reads), "count"),
        Metric("datalet.writes", dl(|d| d.writes), "count"),
        Metric("datalet.stale_writes", dl(|d| d.stale_writes), "count"),
        Metric("trace.ops", b.ops as f64, "count"),
        Metric("trace.rtt_us", us(b.rtt), "us"),
        Metric("trace.unattributed_us", us(b.unattributed), "us"),
        Metric("trace.overhead_us", us(b.rtt - plain_mean), "us"),
    ])
}
