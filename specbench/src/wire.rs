//! Load over loopback TCP through `specqp_server`, as clients send it:
//! the closed loop of `xkg`/`twitter`, and the open-loop reads and the
//! write stream of `twitter-live`.

use crate::data::{canonical_wire, precision_at_k, Answers, Op, References};
use crate::rng::Rng;
use crate::writes::WriteGen;
use kgstore::LiveGraph;
use specqp_server::{ErrorCode, SpecQpClient, WireError, WireResponse};
use specqp_service::ExecMode;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a client waits for any one response before counting it as
/// timed out.
pub const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// What the reads of one phase returned.
#[derive(Debug, Default)]
pub struct Reads {
    /// Latencies of executed requests, in ms, per mode.
    pub spec_ms: Vec<f64>,
    pub trinit_ms: Vec<f64>,
    /// Both modes, in completion order.
    pub all_ms: Vec<f64>,
    /// Precision@k of every checked Spec-QP answer list.
    pub precision: Vec<f64>,
    pub attempted: u64,
    pub mismatches_spec: u64,
    pub mismatches_trinit: u64,
    /// Refused with `RetryAfter` (queue full or quota) or shed at the
    /// service for an expired deadline.
    pub sheds: u64,
    pub timeouts: u64,
    pub errors: u64,
    /// How late the open-loop generator sent each request, in ms.
    pub lateness_ms: Vec<f64>,
    /// How long the last open-loop responses took to arrive after the
    /// schedule ended, in ms: a backlog that grew during the run.
    pub drain_ms: f64,
}

impl Reads {
    pub fn failed(&self) -> u64 {
        self.mismatches_spec + self.mismatches_trinit + self.sheds + self.timeouts + self.errors
    }

    pub fn absorb(&mut self, other: Reads) {
        self.spec_ms.extend(&other.spec_ms);
        self.trinit_ms.extend(&other.trinit_ms);
        self.all_ms.extend(&other.all_ms);
        self.precision.extend(&other.precision);
        self.absorb_counts(other);
    }

    /// Adds `other`'s counts and lateness, but not its latencies.
    pub fn absorb_counts(&mut self, other: Reads) {
        self.attempted += other.attempted;
        self.mismatches_spec += other.mismatches_spec;
        self.mismatches_trinit += other.mismatches_trinit;
        self.sheds += other.sheds;
        self.timeouts += other.timeouts;
        self.errors += other.errors;
        self.lateness_ms.extend(other.lateness_ms);
    }

    /// Checks one executed answer list against its reference and records
    /// its latency.
    pub fn check(&mut self, op: &Op, answers: &Answers, refs: &References, latency_ms: f64) {
        let (qi, k, mode) = *op;
        let expected = refs.get(op);
        let matches = answers == expected;
        self.all_ms.push(latency_ms);
        match mode {
            ExecMode::TriniT => {
                self.trinit_ms.push(latency_ms);
                self.mismatches_trinit += u64::from(!matches);
            }
            _ => {
                self.spec_ms.push(latency_ms);
                self.mismatches_spec += u64::from(!matches);
                let truth = refs.get(&(qi, k, ExecMode::TriniT));
                self.precision.push(precision_at_k(answers, truth, k));
            }
        }
    }

    pub fn record(
        &mut self,
        op: &Op,
        response: Result<WireResponse, WireError>,
        refs: &References,
        latency_ms: f64,
    ) {
        match response {
            Ok(WireResponse::Answers { answers, .. }) => {
                self.check(op, &canonical_wire(answers), refs, latency_ms);
            }
            Ok(WireResponse::Error {
                code: ErrorCode::RetryAfter | ErrorCode::DeadlineExceeded,
                ..
            }) => self.sheds += 1,
            Err(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                self.timeouts += 1
            }
            Ok(_) | Err(_) => self.errors += 1,
        }
    }
}

pub fn connect(addr: SocketAddr) -> SpecQpClient {
    let client = SpecQpClient::connect(addr).expect("connect to the loopback server");
    client
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .expect("set the client read timeout");
    client
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The `(query, k)` pairs of one closed-loop pass, in the seed's order for
/// that pass.
pub fn pass_order(queries: usize, ks: &[usize], seed: u64, pass: u64) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = (0..queries)
        .flat_map(|qi| ks.iter().map(move |&k| (qi, k)))
        .collect();
    Rng::new(seed, 0x100 + pass).shuffle(&mut pairs);
    pairs
}

/// Mode order for the `i`-th pair: Spec-QP and TriniT alternate going
/// first, so neither always runs on the caches the other warmed.
pub fn mode_order(i: usize) -> [ExecMode; 2] {
    if i & 1 == 0 {
        [ExecMode::SpecQp, ExecMode::TriniT]
    } else {
        [ExecMode::TriniT, ExecMode::SpecQp]
    }
}

/// One connection, one request in flight: every `(query, k)` of the
/// workload in both modes, pass after pass in seeded order, until
/// `duration` has elapsed.
///
/// Latencies and precision come from complete passes only, so every run
/// samples the same mix of requests however far its last pass got; the
/// unfinished pass still counts its requests and checks its answers.
pub fn closed_loop(
    addr: SocketAddr,
    texts: &[String],
    ks: &[usize],
    refs: &References,
    seed: u64,
    duration: Duration,
) -> Reads {
    let mut client = connect(addr);
    let mut reads = Reads::default();
    let end = Instant::now() + duration;
    for pass in 0.. {
        let mut this_pass = Reads::default();
        for (i, (qi, k)) in pass_order(texts.len(), ks, seed, pass)
            .into_iter()
            .enumerate()
        {
            if Instant::now() >= end {
                if pass == 0 {
                    reads.absorb(this_pass);
                } else {
                    reads.absorb_counts(this_pass);
                }
                return reads;
            }
            for mode in mode_order(i) {
                this_pass.attempted += 1;
                let t0 = Instant::now();
                let response = client.roundtrip(&texts[qi], mode, k as u32, 0, 1);
                let latency = ms(t0.elapsed());
                this_pass.record(&(qi, k, mode), response, refs, latency);
            }
        }
        reads.absorb(this_pass);
    }
    reads
}

/// Poisson arrivals at `rate` per second, from a seeded generator.
#[derive(Debug)]
pub struct Schedule {
    pub rate: f64,
    rng: Rng,
}

impl Schedule {
    pub fn new(rate: f64, rng: Rng) -> Schedule {
        Schedule { rate, rng }
    }

    /// The arrival after one due at `due`.
    pub fn next(&mut self, due: Instant) -> Instant {
        due + Duration::from_secs_f64(self.rng.exp_gap(self.rate))
    }
}

/// The open loop's reads: their arrival schedule, and a request mix of
/// every workload query in both modes, in a seeded order that is shuffled
/// again after each round, so every stretch of the run offers the same mix.
#[derive(Debug)]
pub struct ReadStream {
    pub schedule: Schedule,
    rng: Rng,
    items: Vec<(usize, ExecMode)>,
    pos: usize,
}

impl ReadStream {
    pub fn new(schedule: Schedule, queries: usize, rng: Rng) -> ReadStream {
        let items = (0..queries)
            .flat_map(|qi| [(qi, ExecMode::SpecQp), (qi, ExecMode::TriniT)])
            .collect::<Vec<_>>();
        let pos = items.len();
        ReadStream {
            schedule,
            rng,
            items,
            pos,
        }
    }

    pub fn next_op(&mut self) -> (usize, ExecMode) {
        if self.pos == self.items.len() {
            self.rng.shuffle(&mut self.items);
            self.pos = 0;
        }
        self.pos += 1;
        self.items[self.pos - 1]
    }
}

/// The write batches and their arrival schedule.
#[derive(Debug)]
pub struct WriteStream {
    pub schedule: Schedule,
    pub gen: WriteGen,
}

/// The open-loop reads of `twitter-live`: `stream`'s arrivals for
/// `duration`, each its next request at `k`, sent on one connection by one
/// thread while another drains the responses. Each request is timed from
/// when it was due, not when it was sent, so a stalled generator shows in
/// the latencies.
pub fn open_loop(
    addr: SocketAddr,
    texts: &[String],
    k: usize,
    refs: &References,
    duration: Duration,
    stream: &mut ReadStream,
) -> Reads {
    let mut sender = connect(addr);
    let mut receiver = sender.try_clone().expect("clone the client connection");
    let (tx, rx) = mpsc::channel::<(Instant, Op)>();
    std::thread::scope(|scope| {
        let drain = scope.spawn(move || {
            let mut reads = Reads::default();
            for (due, op) in rx {
                let response = receiver.recv();
                let latency = ms(due.elapsed());
                reads.record(&op, response, refs, latency);
            }
            reads
        });
        let start = Instant::now();
        let mut due = start;
        let mut lateness = Vec::new();
        let mut attempted = 0u64;
        let mut send_errors = 0u64;
        loop {
            due = stream.schedule.next(due);
            if due >= start + duration {
                break;
            }
            sleep_until(due);
            lateness.push(ms(due.elapsed()));
            let (qi, mode) = stream.next_op();
            attempted += 1;
            match sender.send(&texts[qi], mode, k as u32, 0, 1) {
                Ok(_) => tx.send((due, (qi, k, mode))).expect("response drain alive"),
                Err(_) => send_errors += 1,
            }
        }
        drop(tx);
        let mut reads = drain.join().expect("response drain thread");
        reads.attempted = attempted;
        reads.errors += send_errors;
        reads.lateness_ms = lateness;
        reads.drain_ms = ms(Instant::now().saturating_duration_since(start + duration));
        reads
    })
}

/// What the write stream of one phase measured.
#[derive(Debug, Default)]
pub struct Writes {
    /// Write latency from when the batch was due, in ms.
    pub latency_ms: Vec<f64>,
    /// Latencies of the commits that compacted the overlay, in ms.
    pub compact_ms: Vec<f64>,
    /// `QueryService::apply_writes` time, in µs (in-process writes only).
    pub commit_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Writes {
    pub fn absorb(&mut self, other: Writes) {
        self.latency_ms.extend(other.latency_ms);
        self.compact_ms.extend(other.compact_ms);
        self.commit_us.extend(other.commit_us);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// `stream`'s write batches for `duration` on a connection of their own.
/// `live` is only read, to tell which commits compacted.
pub fn write_stream(
    addr: SocketAddr,
    live: &LiveGraph,
    duration: Duration,
    stream: &mut WriteStream,
) -> Writes {
    let mut client = connect(addr);
    let mut writes = Writes::default();
    let start = Instant::now();
    let mut due = start;
    loop {
        due = stream.schedule.next(due);
        if due >= start + duration {
            return writes;
        }
        sleep_until(due);
        let ops = stream.gen.batch();
        let before = live.stats().compactions;
        writes.attempted += 1;
        match client.apply_writes(ops, 2) {
            Ok(_) => {
                let latency = ms(due.elapsed());
                writes.latency_ms.push(latency);
                if live.stats().compactions > before {
                    writes.compact_ms.push(latency);
                }
            }
            Err(_) => writes.failed += 1,
        }
    }
}
