//! The traced replay: each workload request as the chain of public layer
//! calls the server makes for it — the codec, `sparql::parse_query`,
//! `Engine::plan`, `QueryService` submit/wait — called in-process by the
//! benchmark, with a span around each call. The service's `Response`
//! splits its part into queue wait and execution, and the outcome's
//! `RunReport` gives the executor's share of that.
//!
//! Every request of the replay runs twice back to back, once with spans
//! and once without, so the cost of tracing is measured on the same
//! requests.

use crate::data::{canonical_wire, Answers, Op, References};
use crate::trace::Tracer;
use crate::wire::{connect, mode_order, pass_order, ReadStream, Reads, WriteStream, Writes};
use crate::writes::to_batch;
use kgstore::LiveGraph;
use specqp::{QueryShape, RunReport};
use specqp_server::protocol::{
    decode_request, decode_response, decode_write, encode_answers, encode_request, encode_write,
};
use specqp_server::{WireAnswer, WireRequest, WireResponse, WireWrite};
use specqp_service::{ExecMode, QueryService, Request, ServiceError, Ticket};
use specqp_stats::{ExactCardinality, ScoreEstimator};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One replayed read.
#[derive(Debug)]
pub struct ReadRecord {
    pub mode: ExecMode,
    pub traced: bool,
    /// The whole chain, in ms (from when the request was due, in the open
    /// loop).
    pub total_ms: f64,
    /// `Response::total` (queue wait + execution), in µs.
    pub response_us: f64,
    pub report: Option<RunReport>,
    /// Share of the query's patterns the executed plan relaxed.
    pub relaxed_share: Option<f64>,
}

/// What a replay phase measured besides its spans.
#[derive(Debug, Default)]
pub struct Replayed {
    pub reads: Reads,
    pub records: Vec<ReadRecord>,
    pub writes: Writes,
    /// Per Spec-QP request of the closed loop: its wire round trip minus
    /// the in-process `Response::total` of the same request, in µs.
    pub wire_overhead_us: Vec<f64>,
}

/// Where a traced call's span goes: its parent and its request.
#[derive(Clone, Copy)]
struct At<'a> {
    tracer: &'a Tracer,
    parent: u64,
    request: u64,
}

fn timed<T>(at: Option<At<'_>>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    if let Some(at) = at {
        at.tracer
            .add(Some(at.parent), at.request, name, t0, Instant::now());
    }
    out
}

/// A request between its admission and its response.
struct Pending {
    op: Op,
    traced: bool,
    request: u64,
    root: u64,
    chain_start: Instant,
    submitted: Instant,
    due: Instant,
}

pub struct Chain<'a> {
    pub service: &'a QueryService,
    pub texts: &'a [String],
    pub tracer: &'a Tracer,
    pub refs: &'a References,
}

impl Chain<'_> {
    fn at(&self, traced: bool, root: u64, request: u64) -> Option<At<'_>> {
        traced.then_some(At {
            tracer: self.tracer,
            parent: root,
            request,
        })
    }

    /// Request side: decode the frame, parse, plan (Spec-QP), build the
    /// service request — what the server's connection reader does before
    /// it submits.
    fn admit(&self, op: &Op, traced: bool, root: u64, request: u64) -> Request {
        let (qi, k, mode) = *op;
        let at = self.at(traced, root, request);
        let wire = timed(at, "server.codec", || {
            let frame = encode_request(&WireRequest {
                request_id: request,
                client_id: 1,
                mode: mode.index() as u8,
                k: k as u32,
                deadline_ms: 0,
                query: self.texts[qi].clone(),
            });
            decode_request(&frame).expect("request frame round-trips")
        });
        let engine = self.service.engine();
        let query = timed(at, "sparql.parse", || {
            sparql::parse_query(&wire.query, engine.graph().dictionary())
                .expect("workload query parses")
        });
        if mode == ExecMode::SpecQp {
            // Whether this call will hit: a lookup at the generation the
            // call will see (pinning first observes any new epoch).
            let hit = {
                let _pinned = engine.graph();
                let generation = engine.catalog().generation();
                engine
                    .plan_cache()
                    .lookup(&QueryShape::of(&query, k), generation)
                    .is_some()
            };
            let name = if hit {
                "core.plan_hit"
            } else {
                "core.plan_cold"
            };
            timed(at, name, || engine.plan(&query, k));
        }
        Request::new(query, k).with_mode(mode).with_client(1)
    }

    /// Response side: resolve, encode and decode the answers, check them,
    /// and record the service's and the executor's spans.
    fn respond(&self, pending: Pending, ticket: Ticket, replayed: &mut Replayed) {
        let response = ticket.wait();
        let waited = Instant::now();
        let Pending {
            op,
            traced,
            request,
            root,
            chain_start,
            submitted,
            due,
        } = pending;
        let at = self.at(traced, root, request);
        if let Some(at) = at {
            let sw = at.tracer.id();
            at.tracer.record(
                sw,
                Some(root),
                request,
                "service.submit_wait",
                submitted,
                waited,
            );
            let queued_end = submitted + response.queued;
            at.tracer
                .add(Some(sw), request, "service.queue", submitted, queued_end);
            let exec_end = queued_end + response.execution;
            let exec = at
                .tracer
                .add(Some(sw), request, "service.exec", queued_end, exec_end);
            if let Ok(outcome) = &response.outcome {
                let start = queued_end + outcome.report.planning;
                let name = if op.2 == ExecMode::TriniT {
                    "core.execute_trinit"
                } else {
                    "core.execute"
                };
                at.tracer.add(
                    Some(exec),
                    request,
                    name,
                    start,
                    start + outcome.report.execution,
                );
            }
        }
        let response_us = response.total().as_secs_f64() * 1e6;
        let outcome = match response.outcome {
            Ok(outcome) => outcome,
            Err(ServiceError::DeadlineExceeded | ServiceError::QueueFull { .. }) => {
                replayed.reads.sheds += 1;
                return;
            }
            Err(_) => {
                replayed.reads.errors += 1;
                return;
            }
        };
        let answers: Answers = timed(at, "server.codec", || {
            let engine = self.service.engine();
            let graph = engine.graph();
            let dict = graph.dictionary();
            let wire: Vec<WireAnswer> = outcome
                .answers
                .iter()
                .map(|a| WireAnswer {
                    score: a.score.value(),
                    bindings: a
                        .binding
                        .iter()
                        .map(|(var, term)| (var.0, dict.name_or_unknown(term).to_string()))
                        .collect(),
                })
                .collect();
            match decode_response(&encode_answers(request, &wire)) {
                Ok(WireResponse::Answers { answers, .. }) => canonical_wire(answers),
                other => panic!("answers frame round-trips, got {other:?}"),
            }
        });
        let end = Instant::now();
        if let Some(at) = at {
            at.tracer
                .record(root, None, request, "request", chain_start, end);
        }
        let total_ms = (end - due).as_secs_f64() * 1e3;
        replayed.reads.check(&op, &answers, self.refs, total_ms);
        replayed.records.push(ReadRecord {
            mode: op.2,
            traced,
            total_ms,
            response_us,
            report: Some(outcome.report),
            relaxed_share: (!outcome.plan.is_empty())
                .then(|| outcome.plan.relaxed_count() as f64 / outcome.plan.len() as f64),
        });
    }

    /// Times `ScoreEstimator::estimate` on the query's original patterns
    /// against the engine's catalog, as a span of its own outside the
    /// request chain. PLANGEN makes many such calls per cold plan.
    fn estimate(&self, qi: usize, request: u64, card: &ExactCardinality) {
        let engine = self.service.engine();
        let graph = engine.graph();
        let query = sparql::parse_query(&self.texts[qi], graph.dictionary())
            .expect("workload query parses");
        let weighted: Vec<_> = query.patterns().iter().map(|p| (*p, 1.0)).collect();
        let t0 = Instant::now();
        let estimate = ScoreEstimator::new(engine.catalog(), card).estimate(&graph, &weighted);
        std::hint::black_box(estimate);
        self.tracer
            .add(None, request, "stats.estimate", t0, Instant::now());
    }

    fn read(&self, op: &Op, traced: bool, request: u64, replayed: &mut Replayed) {
        let root = self.tracer.id();
        let start = Instant::now();
        let req = self.admit(op, traced, root, request);
        let submitted = Instant::now();
        let ticket = match self.service.submit(req) {
            Ok(t) => t,
            Err(_) => {
                replayed.reads.errors += 1;
                return;
            }
        };
        let pending = Pending {
            op: *op,
            traced,
            request,
            root,
            chain_start: start,
            submitted,
            due: start,
        };
        self.respond(pending, ticket, replayed);
    }

    /// The closed loop of `xkg`/`twitter`, replayed: pairs in the seed's
    /// order, both modes, each request once traced and once not. Each
    /// Spec-QP request then also goes over the wire to `addr`, for the
    /// wire's share of its latency.
    pub fn closed_loop(
        &self,
        addr: SocketAddr,
        ks: &[usize],
        seed: u64,
        duration: Duration,
    ) -> Replayed {
        let mut replayed = Replayed::default();
        let mut client = connect(addr);
        let card = ExactCardinality::new();
        let end = Instant::now() + duration;
        let mut request = 0u64;
        // Replay passes use seed streams the wire phase does not.
        for pass in 1_000.. {
            for (i, (qi, k)) in pass_order(self.texts.len(), ks, seed, pass)
                .into_iter()
                .enumerate()
            {
                if Instant::now() >= end {
                    return replayed;
                }
                for mode in mode_order(i) {
                    let op = (qi, k, mode);
                    let first = replayed.records.len();
                    // Two requests per op: alternate which one is traced first.
                    let traced_first = (request / 2) & 1 == 0;
                    for traced in [traced_first, !traced_first] {
                        request += 1;
                        replayed.reads.attempted += 1;
                        self.read(&op, traced, request, &mut replayed);
                    }
                    if mode == ExecMode::SpecQp {
                        self.estimate(qi, request, &card);
                        let untraced = replayed.records[first..].iter().find(|r| !r.traced);
                        let in_process_us = untraced.map(|r| r.response_us);
                        replayed.reads.attempted += 1;
                        let t0 = Instant::now();
                        let response = client.roundtrip(&self.texts[qi], mode, k as u32, 0, 1);
                        let wire_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let ok = matches!(response, Ok(WireResponse::Answers { .. }));
                        replayed.reads.record(&op, response, self.refs, wire_ms);
                        if let (true, Some(us)) = (ok, in_process_us) {
                            replayed.wire_overhead_us.push(wire_ms * 1e3 - us);
                        }
                    }
                }
            }
        }
        replayed
    }

    /// The open loop of `twitter-live`, replayed: `reads` admitted on one
    /// thread (non-blocking submits, as the server's reader does) and
    /// answered on another, every other pair of requests traced; `writes`
    /// beside them through `apply_writes`.
    pub fn open_loop(
        &self,
        k: usize,
        duration: Duration,
        live: &LiveGraph,
        reads: &mut ReadStream,
        writes: &mut WriteStream,
    ) -> Replayed {
        let (tx, rx) = mpsc::channel::<(Pending, Ticket)>();
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| self.write_stream(live, duration, writes));
            let drain = scope.spawn(move || {
                let mut replayed = Replayed::default();
                for (pending, ticket) in rx {
                    self.respond(pending, ticket, &mut replayed);
                }
                replayed
            });
            let mut card_epoch = live.epoch();
            let mut fresh_card = ExactCardinality::new();
            let start = Instant::now();
            let mut due = start;
            let mut lateness = Vec::new();
            let mut attempted = 0u64;
            let mut sheds = 0u64;
            loop {
                due = reads.schedule.next(due);
                if due >= start + duration {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let chain_start = Instant::now();
                lateness.push((chain_start - due).as_secs_f64() * 1e3);
                let (qi, mode) = reads.next_op();
                attempted += 1;
                let request = attempted;
                // Traced and untraced requests alternate in pairs, so both
                // halves see the same mix of modes.
                let traced = (attempted / 2) & 1 == 0;
                let op = (qi, k, mode);
                let root = self.tracer.id();
                let req = self.admit(&op, traced, root, request);
                let submitted = Instant::now();
                match self.service.try_submit(req) {
                    Ok(ticket) => {
                        let pending = Pending {
                            op,
                            traced,
                            request,
                            root,
                            chain_start,
                            submitted,
                            due,
                        };
                        tx.send((pending, ticket)).expect("response drain alive");
                    }
                    Err(_) => sheds += 1,
                }
                if traced && mode == ExecMode::SpecQp {
                    // Cardinalities are cached per graph version.
                    if live.epoch() != card_epoch {
                        card_epoch = live.epoch();
                        fresh_card = ExactCardinality::new();
                    }
                    self.estimate(op.0, request, &fresh_card);
                }
            }
            drop(tx);
            let mut replayed = drain.join().expect("replay drain thread");
            replayed.reads.attempted = attempted;
            replayed.reads.sheds += sheds;
            replayed.reads.lateness_ms = lateness;
            replayed.writes = writer.join().expect("replay writer thread");
            replayed
        })
    }

    /// Write batches through the codec and `QueryService::apply_writes`.
    fn write_stream(
        &self,
        live: &LiveGraph,
        duration: Duration,
        stream: &mut WriteStream,
    ) -> Writes {
        let mut writes = Writes::default();
        let start = Instant::now();
        let mut due = start;
        let mut request = 1u64 << 40;
        loop {
            due = stream.schedule.next(due);
            if due >= start + duration {
                return writes;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            request += 1;
            let root = self.tracer.id();
            let at = Some(At {
                tracer: self.tracer,
                parent: root,
                request,
            });
            let t0 = Instant::now();
            let ops = stream.gen.batch();
            let batch = timed(at, "server.codec_write", || {
                let frame = encode_write(&WireWrite {
                    request_id: request,
                    client_id: 2,
                    ops,
                });
                to_batch(&decode_write(&frame).expect("write frame round-trips").ops)
            });
            let before = live.stats().compactions;
            writes.attempted += 1;
            let c0 = Instant::now();
            let result = timed(at, "kgstore.commit", || self.service.apply_writes(&batch));
            let commit = c0.elapsed();
            self.tracer
                .record(root, None, request, "write", t0, Instant::now());
            match result {
                Ok(_) => {
                    let latency = due.elapsed().as_secs_f64() * 1e3;
                    writes.latency_ms.push(latency);
                    writes.commit_us.push(commit.as_secs_f64() * 1e6);
                    if live.stats().compactions > before {
                        writes.compact_ms.push(commit.as_secs_f64() * 1e3);
                    }
                }
                Err(_) => writes.failed += 1,
            }
        }
    }
}
