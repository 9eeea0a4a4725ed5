//! The off-clock correctness gate.
//!
//! Every recorded reply is checked, in sequence order, against an oracle
//! that shares no code path with the server's answer: `analyze` and `event`
//! replies against per-structure [`MarketMode::Full`] mirrors (a full
//! re-reduction after every event), the `everdict` echoed hash against the
//! mirror's own fold, and `analyzespec` replies against
//! [`Reducer::run_naive`] on the freshly built graph.

use trustseq_core::{EdgeColor, Reducer, SequencingGraph};
use trustseq_dist::{RejectReason, ServiceReply};
use trustseq_service::market_op;
use trustseq_workloads::{fnv_fold, MarketMode, Stall, FNV_OFFSET};

use crate::workload::{server_config, Entry};

/// What the load generator recorded for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// No reply arrived.
    Missing,
    /// A `verdict` frame.
    Verdict {
        /// Feasibility.
        feasible: bool,
        /// Edges left at the impasse.
        remaining: u32,
        /// Red edges among them.
        red: u32,
    },
    /// An `everdict` frame.
    Event {
        /// Feasibility.
        feasible: bool,
        /// Edges left at the impasse.
        remaining: u32,
        /// The server's running verdict-stream hash for the structure.
        hash: u64,
    },
    /// A typed rejection.
    Rejected(RejectReason),
}

impl Reply {
    /// The record for a reply frame; `None` for a `stats` reply, which
    /// never answers a load request.
    pub fn of(reply: &ServiceReply) -> Option<Reply> {
        Some(match *reply {
            ServiceReply::Verdict {
                feasible,
                remaining,
                remaining_red,
                ..
            } => Reply::Verdict {
                feasible,
                remaining,
                red: remaining_red,
            },
            ServiceReply::EventVerdict {
                feasible,
                remaining,
                hash,
                ..
            } => Reply::Event {
                feasible,
                remaining,
                hash,
            },
            ServiceReply::Rejected { reason, .. } => Reply::Rejected(reason),
            ServiceReply::Stats { .. } => return None,
        })
    }
}

/// Counts over the checked replies.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Replies whose verdict the oracle confirmed.
    pub verified: u64,
    /// Typed rejections (shed load; counted as failed, never hidden).
    pub rejected: u64,
    /// Requests that got no reply.
    pub unanswered: u64,
    /// Replies whose verdict disagrees with the oracle.
    pub wrong: u64,
    /// `everdict` echoed hashes that differ from the mirror's fold.
    pub hash_mismatches: u64,
    /// The first problem seen, for the failure message.
    pub first_problem: Option<String>,
}

impl Tally {
    /// Requests checked.
    pub fn sent(&self) -> u64 {
        self.verified + self.rejected + self.unanswered + self.wrong + self.hash_mismatches
    }

    /// Requests that did not end in a verified answer.
    pub fn failed(&self) -> u64 {
        self.sent() - self.verified
    }

    /// The gate: a wrong verdict, a hash mismatch or an unanswered request
    /// fails the run.
    pub fn gate(&self) -> Result<(), String> {
        if self.wrong + self.hash_mismatches + self.unanswered == 0 {
            return Ok(());
        }
        Err(format!(
            "{} wrong verdicts, {} hash mismatches, {} unanswered requests; first: {}",
            self.wrong,
            self.hash_mismatches,
            self.unanswered,
            self.first_problem.as_deref().unwrap_or("-")
        ))
    }

    fn problem(&mut self, seq: u64, what: String) {
        if self.first_problem.is_none() {
            self.first_problem = Some(format!("seq {seq}: {what}"));
        }
    }
}

/// The expected answer to one inline spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    feasible: bool,
    remaining: u32,
    red: u32,
}

/// The independent oracle, fed every request in sequence order.
#[derive(Debug)]
pub struct Oracle<'a> {
    pool: &'a [String],
    mirrors: Vec<Option<(Stall, u64)>>,
    specs: Vec<Option<Option<Expected>>>,
}

impl<'a> Oracle<'a> {
    /// An oracle for streams over `pool`, with the population the server
    /// boots from (mirrors are generated on first use).
    pub fn new(pool: &'a [String]) -> Self {
        Oracle {
            pool,
            mirrors: Vec::new(),
            specs: vec![None; pool.len()],
        }
    }

    fn mirror(&mut self, id: u64) -> &mut (Stall, u64) {
        let id = id as usize;
        if self.mirrors.len() <= id {
            self.mirrors.resize_with(id + 1, || None);
        }
        self.mirrors[id].get_or_insert_with(|| {
            let cfg = server_config();
            let stall = Stall::generate(
                cfg.seed.wrapping_add(id as u64),
                &cfg.base,
                MarketMode::Full,
                None,
            );
            (stall, FNV_OFFSET)
        })
    }

    fn spec(&mut self, index: u32) -> Option<Expected> {
        let pool = self.pool;
        *self.specs[index as usize].get_or_insert_with(|| {
            let spec = trustseq_lang::parse_spec(&pool[index as usize]).ok()?;
            let graph = SequencingGraph::from_spec(&spec).ok()?;
            let outcome = Reducer::new(graph.clone()).run_naive();
            let red = outcome
                .remaining_edges
                .iter()
                .filter(|&&e| graph.edge(e).color == EdgeColor::Red)
                .count() as u32;
            Some(Expected {
                feasible: outcome.feasible,
                remaining: outcome.remaining_edges.len() as u32,
                red,
            })
        })
    }

    /// Checks the reply to request `seq` (`entry`) and advances the
    /// mirrors exactly as the server advanced its resident state.
    pub fn check(&mut self, seq: u64, entry: Entry, reply: Reply, tally: &mut Tally) {
        match reply {
            Reply::Missing => {
                tally.unanswered += 1;
                tally.problem(seq, format!("{entry:?} was never answered"));
                return;
            }
            // A rejected request had no effect on the server's state.
            Reply::Rejected(_) => {
                tally.rejected += 1;
                return;
            }
            _ => {}
        }
        let ok = match (entry, reply) {
            (
                Entry::Analyze { id },
                Reply::Verdict {
                    feasible,
                    remaining,
                    ..
                },
            ) => {
                let (m, _) = self.mirror(u64::from(id));
                m.feasible() == feasible && m.remaining_edges() == remaining as usize
            }
            (
                Entry::Event { id, op, slot },
                Reply::Event {
                    feasible,
                    remaining,
                    hash,
                },
            ) => {
                let (m, fold) = self.mirror(id);
                if m.apply(market_op(op), slot as usize).is_err() {
                    false
                } else {
                    let (want_f, want_r) = (m.feasible(), m.remaining_edges());
                    *fold = fnv_fold(fnv_fold(*fold, u64::from(want_f)), want_r as u64);
                    if *fold != hash {
                        let fold = *fold;
                        tally.hash_mismatches += 1;
                        tally.problem(seq, format!("echoed hash {hash} != mirror fold {fold}"));
                        return;
                    }
                    want_f == feasible && want_r == remaining as usize
                }
            }
            (
                Entry::Spec { index },
                Reply::Verdict {
                    feasible,
                    remaining,
                    red,
                },
            ) => {
                self.spec(index)
                    == Some(Expected {
                        feasible,
                        remaining,
                        red,
                    })
            }
            _ => false,
        };
        if ok {
            tally.verified += 1;
        } else {
            tally.wrong += 1;
            tally.problem(seq, format!("{entry:?} answered {reply:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{spec_pool, Shape, Stream, Workload};

    /// Answers `entries` the way a correct server does, from delta-mode
    /// stalls and a cached analysis, sharing nothing with the oracle.
    fn honest_replies(entries: &[Entry], pool: &[String]) -> Vec<Reply> {
        let cfg = server_config();
        let cache = trustseq_core::AnalysisCache::new();
        let mut stalls: Vec<(Stall, u64)> = (0..1024u64)
            .map(|id| {
                let s = Stall::generate(cfg.seed + id, &cfg.base, MarketMode::Delta, None);
                (s, FNV_OFFSET)
            })
            .collect();
        entries
            .iter()
            .map(|e| match *e {
                Entry::Analyze { id } => {
                    let v = cache.verdict(stalls[id as usize].0.graph());
                    Reply::Verdict {
                        feasible: v.feasible,
                        remaining: v.remaining_edges as u32,
                        red: v.remaining_red,
                    }
                }
                Entry::Event { id, op, slot } => {
                    let (s, h) = &mut stalls[id as usize];
                    s.apply(market_op(op), slot as usize).unwrap();
                    *h = fnv_fold(
                        fnv_fold(*h, u64::from(s.feasible())),
                        s.remaining_edges() as u64,
                    );
                    Reply::Event {
                        feasible: s.feasible(),
                        remaining: s.remaining_edges() as u32,
                        hash: *h,
                    }
                }
                Entry::Spec { index } => {
                    let spec = trustseq_lang::parse_spec(&pool[index as usize]).unwrap();
                    let graph = SequencingGraph::from_spec(&spec).unwrap();
                    let v = cache.verdict(&graph);
                    Reply::Verdict {
                        feasible: v.feasible,
                        remaining: v.remaining_edges as u32,
                        red: v.remaining_red,
                    }
                }
            })
            .collect()
    }

    fn check_all(entries: &[Entry], replies: &[Reply], pool: &[String]) -> Tally {
        let mut oracle = Oracle::new(pool);
        let mut tally = Tally::default();
        for (seq, (e, r)) in entries.iter().zip(replies).enumerate() {
            oracle.check(seq as u64, *e, *r, &mut tally);
        }
        tally
    }

    fn case(workload: Workload) -> (Vec<Entry>, Vec<String>) {
        let cfg = server_config();
        let shapes: Vec<Shape> = (0..1024u64)
            .map(|id| {
                Shape::of(&Stall::generate(
                    cfg.seed + id,
                    &cfg.base,
                    MarketMode::Full,
                    None,
                ))
            })
            .collect();
        let pool = spec_pool(5, 40);
        let entries = Stream::new(workload, 5, &shapes, pool.len())
            .take(3000)
            .collect();
        (entries, pool)
    }

    #[test]
    fn honest_streams_pass_the_gate() {
        for w in Workload::ALL {
            let (entries, pool) = case(w);
            let replies = honest_replies(&entries, &pool);
            let tally = check_all(&entries, &replies, &pool);
            assert_eq!(
                tally.verified,
                entries.len() as u64,
                "{}: {tally:?}",
                w.name()
            );
            tally.gate().unwrap();
        }
    }

    #[test]
    fn one_flipped_verdict_fails_the_gate() {
        for w in Workload::ALL {
            let (entries, pool) = case(w);
            let mut replies = honest_replies(&entries, &pool);
            match &mut replies[1234] {
                Reply::Verdict { feasible, .. } | Reply::Event { feasible, .. } => {
                    *feasible = !*feasible
                }
                other => panic!("unexpected {other:?}"),
            }
            let tally = check_all(&entries, &replies, &pool);
            assert_eq!(tally.wrong, 1, "{}: {tally:?}", w.name());
            assert!(tally.gate().is_err());
        }
    }

    #[test]
    fn one_dropped_reply_fails_the_gate() {
        let (entries, pool) = case(Workload::Certify);
        let mut replies = honest_replies(&entries, &pool);
        replies[77] = Reply::Missing;
        let tally = check_all(&entries, &replies, &pool);
        assert_eq!(tally.unanswered, 1);
        assert!(tally.gate().is_err());
    }

    #[test]
    fn a_wrong_echoed_hash_fails_the_gate_and_rejections_only_count() {
        let (entries, pool) = case(Workload::Events);
        let mut replies = honest_replies(&entries, &pool);
        if let Reply::Event { hash, .. } = &mut replies[10] {
            *hash ^= 1;
        }
        let tally = check_all(&entries, &replies, &pool);
        assert_eq!(tally.hash_mismatches, 1);
        assert!(tally.gate().is_err());

        // A rejected analyze changed nothing: it is counted, not failed.
        let (entries, pool) = case(Workload::Certify);
        let mut replies = honest_replies(&entries, &pool);
        let i = entries
            .iter()
            .position(|e| matches!(e, Entry::Analyze { .. }))
            .unwrap();
        replies[i] = Reply::Rejected(RejectReason::Overloaded);
        let tally = check_all(&entries, &replies, &pool);
        assert_eq!((tally.rejected, tally.failed()), (1, 1));
        tally.gate().unwrap();
    }
}
