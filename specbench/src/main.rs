//! `specbench`: the Spec-QP benchmark.
//!
//! ```text
//! specbench --workload <xkg|twitter|twitter-live> --seed <n> --seconds <s>
//!           --trace <0|1> --latency-limit-ms <ms>
//! ```
//!
//! Drives `specqp_server` over loopback TCP into a `QueryService`, checks
//! every answer against in-process references, and prints every metric by
//! name with its unit and sample count. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics of an untraced run (`--trace 0`), or the per-layer
//! metrics of a traced one (`--trace 1`). See README.md for the workloads
//! and the metrics.

mod data;
mod metrics;
mod replay;
mod rng;
mod trace;
mod wire;
mod writes;

use data::{Dataset, Inputs, References};
use metrics::{mean, median, peak_rss_mb, percentile, Report};
use replay::{Chain, Replayed};
use rng::Rng;
use specqp::EngineConfig;
use specqp_server::{Server, ServerConfig};
use specqp_service::{ExecMode, LiveGraph, QueryService, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{ReadStream, Reads, Schedule, WriteStream, Writes};
use writes::WriteGen;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Service worker threads.
const WORKERS: usize = 2;
/// The `k` values of the closed-loop workloads, and of `twitter-live`.
const KS: [usize; 3] = [10, 15, 20];
const LIVE_K: usize = 10;
/// `twitter-live`: the nominal read rate, the write-batch rate, and the
/// read-rate ladder of the traced run (multiples of the nominal rate).
const LIVE_READ_QPS: f64 = 12.0;
const LIVE_WRITE_QPS: f64 = 20.0;
const LADDER: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// Where runs keep their snapshot files and span dumps, under the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".specbench";

/// The end-to-end metrics of an untraced run, in report order. Latency
/// enters as Spec-QP's share of TriniT's, both measured interleaved in the
/// same run: the host's speed drifts by a third over minutes, which moves
/// absolute latencies beyond any bound but cancels in the ratio. The run
/// still prints the absolute latencies.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "specqp_trinit_p50_ratio",
    "specqp_trinit_p90_ratio",
    "precision_at_k",
    "peak_rss_mb",
];

/// The per-layer metrics of a traced run, in report order.
const PER_LAYER: [&str; 38] = [
    "sparql.parse_us",
    "core.plan_cold_us",
    "core.plan_hit_us",
    "core.plan_cache_hit_rate",
    "stats.generation_bumps",
    "stats.estimate_us",
    "core.execute_us",
    "core.execute_trinit_us",
    "operators.answers_created",
    "operators.answers_created_trinit",
    "operators.sorted_accesses",
    "operators.random_accesses",
    "operators.heap_pushes",
    "core.spec_trinit_answers_ratio",
    "core.relaxed_share",
    "core.prediction_exact_rate",
    "core.prediction_covering_rate",
    "core.verify_us",
    "core.fallback_stages",
    "core.wasted_answers",
    "kgstore.snapshot_load_ms",
    "kgstore.commit_us",
    "kgstore.compactions",
    "kgstore.compact_ms",
    "kgstore.delta_rows_end",
    "service.queue_wait_us",
    "service.exec_us",
    "service.shed",
    "server.codec_us",
    "server.wire_overhead_us",
    "server.protocol_errors",
    "server.quota_rejected",
    "server.write_p50_ms",
    "server.write_p90_ms",
    "server.max_ok_rate_qps",
    "bench.lateness_ms",
    "bench.trace_overhead",
    "bench.failed_frac",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Xkg,
    Twitter,
    TwitterLive,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "xkg" => Some(Workload::Xkg),
            "twitter" => Some(Workload::Twitter),
            "twitter-live" => Some(Workload::TwitterLive),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Xkg => "xkg",
            Workload::Twitter => "twitter",
            Workload::TwitterLive => "twitter-live",
        }
    }

    fn dataset(self) -> Dataset {
        match self {
            Workload::Xkg => Dataset::Xkg,
            Workload::Twitter | Workload::TwitterLive => Dataset::Twitter,
        }
    }

    fn ks(self) -> &'static [usize] {
        match self {
            Workload::TwitterLive => std::slice::from_ref(&LIVE_K),
            _ => &KS,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    latency_limit_ms: f64,
}

fn usage(msg: &str) -> ! {
    eprintln!("specbench: {msg}");
    eprintln!(
        "usage: specbench --workload <xkg|twitter|twitter-live> --seed <n> --seconds <s> \
         --trace <0|1> --latency-limit-ms <ms>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> String {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .unwrap_or_else(|| usage(&format!("missing {flag}")));
        argv.get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let workload = get("--workload");
    let seed = get("--seed");
    let seconds = get("--seconds");
    let trace = get("--trace");
    let limit = get("--latency-limit-ms");
    Args {
        workload: Workload::parse(&workload)
            .unwrap_or_else(|| usage(&format!("unknown workload {workload:?}"))),
        seed: seed
            .parse()
            .unwrap_or_else(|_| usage(&format!("bad seed {seed:?}"))),
        seconds: seconds
            .parse()
            .ok()
            .filter(|s| (1..=600).contains(s))
            .unwrap_or_else(|| usage(&format!("bad seconds {seconds:?}"))),
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => usage(&format!("bad trace flag {trace:?}")),
        },
        latency_limit_ms: limit
            .parse()
            .ok()
            .filter(|l: &f64| *l > 0.0)
            .unwrap_or_else(|| usage(&format!("bad latency limit {limit:?}"))),
    }
}

/// The served system, as one set-up leaves it.
struct Served {
    service: Arc<QueryService>,
    server: Server,
    /// The served graph when it is static; the reference engine shares it.
    graph: Option<Arc<kgstore::KnowledgeGraph>>,
    live: Option<Arc<LiveGraph>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
        self.service.shutdown();
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig::with_threads(WORKERS)
}

/// One set-up: snapshot load, service and server start, and the warm pass
/// that plans every `(query, k)` shape once.
fn set_up(inputs: &Inputs, workload: Workload, tracer: Option<&Tracer>) -> (Served, Duration) {
    let t0 = Instant::now();
    let root = tracer.map(|t| t.id());
    let span = |name: &'static str, start: Instant| {
        if let (Some(t), Some(root)) = (tracer, root) {
            t.add(Some(root), 0, name, start, Instant::now());
        }
    };
    let s = Instant::now();
    let graph = data::load_graph(inputs);
    span("kgstore.snapshot_load", s);
    let s = Instant::now();
    let registry = Arc::clone(&inputs.registry);
    let (service, graph, live) = if workload == Workload::TwitterLive {
        let live = Arc::new(LiveGraph::new(graph));
        let service = QueryService::live(Arc::clone(&live), registry, service_config());
        (service, None, Some(live))
    } else {
        let graph = Arc::new(graph);
        let service = QueryService::new(Arc::clone(&graph), registry, service_config());
        (service, Some(graph), None)
    };
    let service = Arc::new(service);
    span("service.start", s);
    let s = Instant::now();
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0", ServerConfig::default())
        .expect("bind the loopback server");
    span("server.start", s);
    let engine = service.engine();
    for text in &inputs.texts {
        let s = Instant::now();
        let query =
            sparql::parse_query(text, engine.graph().dictionary()).expect("workload query parses");
        span("sparql.parse", s);
        for &k in workload.ks() {
            let s = Instant::now();
            engine.plan(&query, k);
            span("core.plan_cold", s);
        }
    }
    let elapsed = t0.elapsed();
    if let (Some(t), Some(root)) = (tracer, root) {
        t.record(root, None, 0, "setup", t0, Instant::now());
    }
    (
        Served {
            service,
            server,
            graph,
            live,
        },
        elapsed,
    )
}

/// Refuses to run when a `SPECQP_*` variable is set: `EngineConfig::default`
/// reads them, so the run would measure another configuration than the one
/// the program ships with.
fn refuse_engine_overrides() {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SPECQP_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "specbench: refusing to run with {} set; the benchmark measures the shipped defaults",
            set.join(", ")
        );
        std::process::exit(2);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let args = parse_args();
    refuse_engine_overrides();
    let out_dir = PathBuf::from(OUT_DIR);
    let origin = Instant::now();
    let tracer = Tracer::new(origin);
    let traced = args.trace.then_some(&tracer);
    let w = args.workload;

    let inputs = data::generate(w.dataset(), &out_dir);
    println!(
        "run workload={} seed={} seconds={} trace={} latency_limit_ms={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.latency_limit_ms
    );
    println!(
        "config engine={:?} service={:?} nproc={} dataset={:?} triples={} rules={} queries={} ks={:?}",
        EngineConfig::default(),
        service_config(),
        nproc(),
        inputs.dataset,
        inputs.triples,
        inputs.rules,
        inputs.texts.len(),
        w.ks()
    );

    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPS {
        drop(served.take());
        let (s, dt) = set_up(&inputs, w, traced);
        setup_s.push(dt.as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");

    let ref_graph = served
        .graph
        .clone()
        .unwrap_or_else(|| Arc::new(data::load_graph(&inputs)));
    let refs = data::references(
        ref_graph,
        &inputs,
        EngineConfig::default(),
        w.ks(),
        nproc().clamp(1, 2),
        args.trace,
    );

    let seconds = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    report.add("setup_s", "s", median(&setup_s), setup_s.len());
    let outcome = if args.trace {
        traced_run(
            &args,
            &inputs,
            &served,
            &refs,
            &tracer,
            seconds,
            &mut report,
        )
    } else {
        untraced_run(&args, &inputs, &served, &refs, seconds, &mut report)
    };
    drop(served);
    std::fs::remove_file(&inputs.snapshot).ok();
    if args.trace {
        let path = out_dir.join(format!("trace-{}.tsv", w.name()));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "specbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    report.print_table();
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        report.json_object(names)
    );
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn print_checks(phase: &str, reads: &Reads, writes: &Writes) {
    println!(
        "check {phase}: reads={} mismatches_specqp={} mismatches_trinit={} sheds={} timeouts={} \
         errors={} writes={} write_failures={}",
        reads.attempted,
        reads.mismatches_spec,
        reads.mismatches_trinit,
        reads.sheds,
        reads.timeouts,
        reads.errors,
        writes.attempted,
        writes.failed
    );
}

fn outcome_of(reads: &Reads, writes: &Writes, protocol_errors: u64) -> Outcome {
    Outcome {
        correct: reads.mismatches_spec + reads.mismatches_trinit == 0 && protocol_errors == 0,
        attempted: (reads.attempted + writes.attempted).max(1),
        failed: reads.failed() + writes.failed,
    }
}

/// The seeded streams of the live workload: read arrivals and mix, write
/// arrivals and content.
struct LiveStreams {
    reads: ReadStream,
    writes: WriteStream,
}

impl LiveStreams {
    /// Streams numbered from `base`; each phase of a run uses its own.
    fn new(args: &Args, inputs: &Inputs, base: u64) -> LiveStreams {
        let rng = |n: u64| Rng::new(args.seed, base + n);
        LiveStreams {
            reads: ReadStream::new(
                Schedule::new(LIVE_READ_QPS, rng(0)),
                inputs.texts.len(),
                rng(1),
            ),
            writes: WriteStream {
                schedule: Schedule::new(LIVE_WRITE_QPS, rng(2)),
                gen: WriteGen::new(
                    args.seed,
                    base + 3,
                    &inputs.tag_predicate,
                    &inputs.tags,
                    inputs.min_score,
                ),
            },
        }
    }
}

/// The live workload's open-loop reads and its writes over the wire, side
/// by side, for `duration`.
fn live_phase(
    served: &Served,
    inputs: &Inputs,
    refs: &References,
    duration: Duration,
    streams: &mut LiveStreams,
) -> (Reads, Writes) {
    let addr = served.server.local_addr();
    let live = served
        .live
        .as_ref()
        .expect("the live workload serves a live graph");
    let LiveStreams { reads, writes } = streams;
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| wire::write_stream(addr, live, duration, writes));
        let reads = wire::open_loop(addr, &inputs.texts, LIVE_K, refs, duration, reads);
        (reads, writer.join().expect("write stream thread"))
    })
}

fn untraced_run(
    args: &Args,
    inputs: &Inputs,
    served: &Served,
    refs: &References,
    seconds: Duration,
    report: &mut Report,
) -> Outcome {
    let (reads, writes) = match args.workload {
        Workload::TwitterLive => {
            // Closed-loop reads beside open-loop writes: the read latency
            // is the cost of serving on a graph that changes under the
            // caches, without the queueing of an open loop, whose spread
            // no bound could hold. The traced run drives the open loop.
            let mut streams = LiveStreams::new(args, inputs, 10);
            let addr = served.server.local_addr();
            let live = served
                .live
                .as_ref()
                .expect("the live workload serves a live graph");
            std::thread::scope(|scope| {
                let writer =
                    scope.spawn(|| wire::write_stream(addr, live, seconds, &mut streams.writes));
                let reads =
                    wire::closed_loop(addr, &inputs.texts, &[LIVE_K], refs, args.seed, seconds);
                (reads, writer.join().expect("write stream thread"))
            })
        }
        _ => {
            let reads = wire::closed_loop(
                served.server.local_addr(),
                &inputs.texts,
                args.workload.ks(),
                refs,
                args.seed,
                seconds,
            );
            (reads, Writes::default())
        }
    };
    report.add(
        "specqp_p50_ms",
        "ms",
        median(&reads.spec_ms),
        reads.spec_ms.len(),
    );
    report.add_tail("specqp_p90_ms", "ms", &reads.spec_ms);
    report.add(
        "trinit_p50_ms",
        "ms",
        median(&reads.trinit_ms),
        reads.trinit_ms.len(),
    );
    report.add_tail("trinit_p90_ms", "ms", &reads.trinit_ms);
    let samples = reads.spec_ms.len().min(reads.trinit_ms.len());
    for (name, q) in [
        ("specqp_trinit_p50_ratio", 0.5),
        ("specqp_trinit_p90_ratio", metrics::TAIL),
    ] {
        let ratio = percentile(&reads.spec_ms, q) / percentile(&reads.trinit_ms, q);
        report.add(name, "ratio", ratio, samples);
    }
    report.add(
        "precision_at_k",
        "ratio",
        mean(&reads.precision),
        reads.precision.len(),
    );
    let stats = served.server.stats();
    let outcome = outcome_of(&reads, &writes, stats.protocol_errors);
    report.add(
        "failed_frac",
        "ratio",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.attempted as usize,
    );
    if !writes.latency_ms.is_empty() {
        report.add(
            "write_p50_ms",
            "ms",
            median(&writes.latency_ms),
            writes.latency_ms.len(),
        );
        report.add_tail("write_p90_ms", "ms", &writes.latency_ms);
        report.add("compactions", "count", writes.compact_ms.len() as f64, 1);
    }
    report.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
    print_checks("wire", &reads, &writes);
    outcome
}

/// Nearest-rank tail for a ladder rung: p95 when at least ten samples lie
/// beyond it, otherwise the highest percentile that has ten beyond it.
fn rung_tail(samples: &[f64]) -> f64 {
    let n = samples.len() as f64;
    let q = (1.0 - metrics::MIN_BEYOND as f64 / n.max(1.0)).clamp(0.5, metrics::TAIL);
    percentile(samples, q)
}

/// The traced run: the untraced wire protocol for the first half of the
/// time (for `twitter-live`, as a ladder of read rates), then the traced
/// replay of the same protocol for the second half.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    served: &Served,
    refs: &References,
    tracer: &Tracer,
    seconds: Duration,
    report: &mut Report,
) -> Outcome {
    let half = seconds / 2;
    let engine = served.service.engine();
    let cache0 = served.service.cache_snapshot();
    let gen0 = engine.catalog().generation();
    let live_stats0 = served.live.as_ref().map(|l| l.stats());

    // Part one: untraced, over the wire.
    let mut wire_reads = Reads::default();
    let mut wire_writes = Writes::default();
    let mut nominal_spec_ms = Vec::new();
    let mut max_ok_rate = 0.0;
    let mut ladder_samples = 0;
    let mut streams = LiveStreams::new(args, inputs, 20);
    match args.workload {
        Workload::TwitterLive => {
            let rung_time = half / LADDER.len() as u32;
            let mut rungs = Vec::new();
            for mult in LADDER {
                let rate = LIVE_READ_QPS * mult;
                streams.reads.schedule.rate = rate;
                let (reads, writes) = live_phase(served, inputs, refs, rung_time, &mut streams);
                let tail = rung_tail(&reads.all_ms);
                // A backlog that grew through the rung is still draining a
                // second after its last arrival.
                let all = &reads.all_ms;
                let backlog = reads.drain_ms > 1_000.0;
                let ok = reads.failed() == 0 && !backlog && tail <= args.latency_limit_ms;
                println!(
                    "rung {rate:.1} qps: reads={} tail_ms={tail:.3} backlog={backlog} failed={} ok={ok}",
                    all.len(),
                    reads.failed()
                );
                ladder_samples += all.len();
                if ok {
                    max_ok_rate = rate;
                }
                if mult == 1.0 {
                    nominal_spec_ms = reads.spec_ms.clone();
                }
                rungs.push((rate, reads, writes));
            }
            // Rungs above the highest passing one overload the server by
            // design; their sheds are reported above, not counted as
            // failures of the run.
            let counted = max_ok_rate.max(LIVE_READ_QPS * LADDER[0]);
            for (rate, reads, writes) in rungs {
                if rate <= counted {
                    wire_reads.absorb(reads);
                }
                wire_writes.absorb(writes);
            }
        }
        _ => {
            wire_reads = wire::closed_loop(
                served.server.local_addr(),
                &inputs.texts,
                args.workload.ks(),
                refs,
                args.seed,
                half,
            );
        }
    }
    let cache1 = served.service.cache_snapshot();
    let gen1 = engine.catalog().generation();
    let stats = served.server.stats();

    // Part two: the traced in-process replay.
    let chain = Chain {
        service: &served.service,
        texts: &inputs.texts,
        tracer,
        refs,
    };
    let replayed: Replayed = match args.workload {
        Workload::TwitterLive => {
            let live = served.live.as_ref().expect("live graph");
            let mut s = LiveStreams::new(args, inputs, 30);
            chain.open_loop(LIVE_K, half, live, &mut s.reads, &mut s.writes)
        }
        _ => chain.closed_loop(
            served.server.local_addr(),
            args.workload.ks(),
            args.seed,
            half,
        ),
    };
    let live_stats1 = served.live.as_ref().map(|l| l.stats());

    layer_metrics(report, tracer, &replayed, refs);

    let lookups = cache1.lookups - cache0.lookups;
    let hits = cache1.hits - cache0.hits;
    report.add(
        "core.plan_cache_hit_rate",
        "ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        lookups as usize,
    );
    report.add("stats.generation_bumps", "count", (gen1 - gen0) as f64, 1);
    let (compactions, delta_rows) = match (live_stats0, live_stats1) {
        (Some(a), Some(b)) => ((b.compactions - a.compactions) as f64, b.delta_rows as f64),
        _ => (0.0, 0.0),
    };
    // Commit times come from the replay's `apply_writes` spans; write
    // latencies from the wire half.
    let commits = &replayed.writes;
    report.add(
        "kgstore.commit_us",
        "us",
        median(&commits.commit_us),
        commits.commit_us.len(),
    );
    report.add("kgstore.compactions", "count", compactions, 1);
    report.add(
        "kgstore.compact_ms",
        "ms",
        median(&commits.compact_ms),
        commits.compact_ms.len(),
    );
    report.add("kgstore.delta_rows_end", "count", delta_rows, 1);
    report.add(
        "service.shed",
        "count",
        (wire_reads.sheds + replayed.reads.sheds) as f64,
        (wire_reads.attempted + replayed.reads.attempted) as usize,
    );
    let response_us: Vec<f64> = replayed
        .records
        .iter()
        .filter(|r| r.mode == ExecMode::SpecQp)
        .map(|r| r.response_us)
        .collect();
    // Closed loops pair each request's wire and in-process times; the open
    // loop compares the nominal rung's wire median with the replay's
    // in-process median, so its figure includes in-order delivery.
    if replayed.wire_overhead_us.is_empty() {
        report.add(
            "server.wire_overhead_us",
            "us",
            median(&nominal_spec_ms) * 1e3 - median(&response_us),
            nominal_spec_ms.len().min(response_us.len()),
        );
    } else {
        let v = &replayed.wire_overhead_us;
        report.add("server.wire_overhead_us", "us", median(v), v.len());
    }
    report.add(
        "server.protocol_errors",
        "count",
        stats.protocol_errors as f64,
        1,
    );
    report.add(
        "server.quota_rejected",
        "count",
        stats.quota_rejected as f64,
        1,
    );
    report.add(
        "server.write_p50_ms",
        "ms",
        median(&wire_writes.latency_ms),
        wire_writes.latency_ms.len(),
    );
    report.add(
        "server.write_p90_ms",
        "ms",
        percentile(&wire_writes.latency_ms, metrics::TAIL),
        wire_writes.latency_ms.len(),
    );
    report.add("server.max_ok_rate_qps", "1/s", max_ok_rate, ladder_samples);
    let mut lateness = wire_reads.lateness_ms.clone();
    lateness.extend(&replayed.reads.lateness_ms);
    report.add(
        "bench.lateness_ms",
        "ms",
        percentile(&lateness, metrics::TAIL),
        lateness.len(),
    );

    print_checks("wire", &wire_reads, &wire_writes);
    print_checks("replay", &replayed.reads, &replayed.writes);
    let mut reads = wire_reads;
    reads.absorb(replayed.reads);
    let mut writes = wire_writes;
    writes.absorb(replayed.writes);
    let outcome = outcome_of(&reads, &writes, stats.protocol_errors);
    report.add(
        "bench.failed_frac",
        "ratio",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.attempted as usize,
    );
    report.add("peak_rss_mb", "MB", peak_rss_mb(), 1);
    outcome
}

/// Per-layer metrics from the replay's spans and run reports.
fn layer_metrics(report: &mut Report, tracer: &Tracer, replayed: &Replayed, refs: &References) {
    let spans = tracer.spans();
    let selfs = Tracer::self_times(&spans);
    let self_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect()
    };
    let dur_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    let med = |report: &mut Report, metric: &str, unit: &'static str, v: Vec<f64>, scale: f64| {
        report.add(metric, unit, median(&v) * scale, v.len());
    };
    med(
        report,
        "sparql.parse_us",
        "us",
        self_us("sparql.parse"),
        1.0,
    );
    med(
        report,
        "core.plan_cold_us",
        "us",
        self_us("core.plan_cold"),
        1.0,
    );
    med(
        report,
        "core.plan_hit_us",
        "us",
        self_us("core.plan_hit"),
        1.0,
    );
    med(
        report,
        "stats.estimate_us",
        "us",
        dur_us("stats.estimate"),
        1.0,
    );
    med(report, "core.execute_us", "us", dur_us("core.execute"), 1.0);
    med(
        report,
        "core.execute_trinit_us",
        "us",
        dur_us("core.execute_trinit"),
        1.0,
    );
    med(
        report,
        "kgstore.snapshot_load_ms",
        "ms",
        dur_us("kgstore.snapshot_load"),
        1e-3,
    );
    med(
        report,
        "service.queue_wait_us",
        "us",
        dur_us("service.queue"),
        1.0,
    );
    med(report, "service.exec_us", "us", dur_us("service.exec"), 1.0);

    // Codec time per request: both directions, summed.
    let mut codec: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.name == "server.codec") {
        *codec.entry(s.request).or_default() += selfs[&s.id] as f64 / 1e3;
    }
    let codec: Vec<f64> = codec.into_values().collect();
    report.add("server.codec_us", "us", median(&codec), codec.len());

    // Run-report counters, per request of each mode.
    let reports = |mode: ExecMode| -> Vec<&specqp::RunReport> {
        replayed
            .records
            .iter()
            .filter(|r| r.traced && r.mode == mode)
            .filter_map(|r| r.report.as_ref())
            .collect()
    };
    let spec = reports(ExecMode::SpecQp);
    let trinit = reports(ExecMode::TriniT);
    let per = |v: &[&specqp::RunReport], f: fn(&specqp::RunReport) -> f64| -> Vec<f64> {
        v.iter().map(|r| f(r)).collect()
    };
    let answers_spec = per(&spec, |r| r.answers_created as f64);
    let answers_trinit = per(&trinit, |r| r.answers_created as f64);
    report.add(
        "operators.answers_created",
        "count",
        mean(&answers_spec),
        spec.len(),
    );
    report.add(
        "operators.answers_created_trinit",
        "count",
        mean(&answers_trinit),
        trinit.len(),
    );
    report.add(
        "operators.sorted_accesses",
        "count",
        mean(&per(&spec, |r| r.sorted_accesses as f64)),
        spec.len(),
    );
    report.add(
        "operators.random_accesses",
        "count",
        mean(&per(&spec, |r| r.random_accesses as f64)),
        spec.len(),
    );
    report.add(
        "operators.heap_pushes",
        "count",
        mean(&per(&spec, |r| r.heap_pushes as f64)),
        spec.len(),
    );
    let trinit_total: f64 = answers_trinit.iter().sum();
    report.add(
        "core.spec_trinit_answers_ratio",
        "ratio",
        if trinit_total == 0.0 {
            0.0
        } else {
            (mean(&answers_spec) / mean(&answers_trinit)).max(0.0)
        },
        spec.len().min(trinit.len()),
    );
    let relaxed: Vec<f64> = replayed
        .records
        .iter()
        .filter(|r| r.traced && r.mode == ExecMode::SpecQp)
        .filter_map(|r| r.relaxed_share)
        .collect();
    report.add("core.relaxed_share", "ratio", mean(&relaxed), relaxed.len());
    let p = &refs.predictions;
    let rate = |n: usize| {
        if p.total == 0 {
            0.0
        } else {
            n as f64 / p.total as f64
        }
    };
    report.add(
        "core.prediction_exact_rate",
        "ratio",
        rate(p.exact),
        p.total,
    );
    report.add(
        "core.prediction_covering_rate",
        "ratio",
        rate(p.covering),
        p.total,
    );
    report.add(
        "core.verify_us",
        "us",
        mean(&per(&spec, |r| r.verify.as_secs_f64() * 1e6)),
        spec.len(),
    );
    report.add(
        "core.fallback_stages",
        "count",
        per(&spec, |r| r.fallback_stages as f64).iter().sum(),
        spec.len(),
    );
    report.add(
        "core.wasted_answers",
        "count",
        per(&spec, |r| r.wasted_answers as f64).iter().sum(),
        spec.len(),
    );

    // Tracing overhead: traced over untraced chain time, Spec-QP requests.
    let chain_ms = |traced: bool| -> Vec<f64> {
        replayed
            .records
            .iter()
            .filter(|r| r.traced == traced && r.mode == ExecMode::SpecQp)
            .map(|r| r.total_ms)
            .collect()
    };
    let (on, off) = (chain_ms(true), chain_ms(false));
    report.add(
        "bench.trace_overhead",
        "ratio",
        if off.is_empty() {
            0.0
        } else {
            median(&on) / median(&off)
        },
        on.len().min(off.len()),
    );
}
