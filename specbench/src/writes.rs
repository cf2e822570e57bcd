//! Write batches of the `twitter-live` workload.
//!
//! Each batch asserts fresh tweets, each with one of the workload's own
//! tags, and retracts some tweets earlier batches asserted. A fresh tweet
//! scores a millionth of the graph's smallest score, so it sits below the
//! floor of every list and can never displace an existing top-k answer:
//! the static reference answers stay valid at every epoch, and every read
//! can still be checked.

use crate::rng::Rng;
use specqp_server::WireWriteOp;

pub const ASSERTS_PER_BATCH: usize = 64;
pub const RETRACTS_PER_BATCH: usize = 16;

#[derive(Debug)]
pub struct WriteGen {
    rng: Rng,
    prefix: String,
    predicate: String,
    tags: Vec<String>,
    max_score: f64,
    next: u64,
    alive: Vec<(String, String)>,
}

impl WriteGen {
    pub fn new(seed: u64, stream: u64, predicate: &str, tags: &[String], min_score: f64) -> Self {
        assert!(!tags.is_empty(), "the workload has tags to write to");
        WriteGen {
            rng: Rng::new(seed, stream),
            prefix: format!("specbench-tweet-{seed}-{stream}-"),
            predicate: predicate.to_string(),
            tags: tags.to_vec(),
            max_score: min_score * 1e-6,
            next: 0,
            alive: Vec::new(),
        }
    }

    pub fn batch(&mut self) -> Vec<WireWriteOp> {
        let mut ops = Vec::with_capacity(ASSERTS_PER_BATCH + RETRACTS_PER_BATCH);
        for _ in 0..RETRACTS_PER_BATCH.min(self.alive.len()) {
            let (s, o) = self.alive.swap_remove(self.rng.below(self.alive.len()));
            ops.push(WireWriteOp::Retract {
                s,
                p: self.predicate.clone(),
                o,
            });
        }
        for _ in 0..ASSERTS_PER_BATCH {
            let s = format!("{}{}", self.prefix, self.next);
            self.next += 1;
            let o = self.tags[self.rng.below(self.tags.len())].clone();
            let score = self.max_score * (0.5 + 0.5 * self.rng.unit());
            self.alive.push((s.clone(), o.clone()));
            ops.push(WireWriteOp::Assert {
                s,
                p: self.predicate.clone(),
                o,
                score,
            });
        }
        ops
    }
}

/// The same operations as a service-level batch.
pub fn to_batch(ops: &[WireWriteOp]) -> specqp_service::WriteBatch {
    let mut batch = specqp_service::WriteBatch::new();
    for op in ops {
        match op {
            WireWriteOp::Assert { s, p, o, score } => {
                batch.assert(s, p, o, *score);
            }
            WireWriteOp::Retract { s, p, o } => {
                batch.retract(s, p, o);
            }
        }
    }
    batch
}
