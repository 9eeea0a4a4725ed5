//! The three seeded request streams and the server configuration they run
//! against.
//!
//! Every stream is a pure function of the workload seed and the
//! population's static shape, so the load generator, the off-clock
//! verifier and the traced replay all regenerate the identical sequence
//! instead of storing it.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use trustseq_dist::{ServiceOp, ServiceRequest};
use trustseq_service::ServiceConfig;
use trustseq_workloads::{random_exchange, RandomConfig, Stall};

/// Population seed handed to the server (the shipped `serve` default). The
/// workload seed only shapes the request streams, so runs under different
/// seeds load the same resident structures.
pub const POPULATION_SEED: u64 = 42;
/// Resident structures at boot (the shipped `serve` default).
pub const BOOT_STRUCTURES: usize = 32;
/// Share of `certify` requests that are `event` writes.
const CERTIFY_EVENT_SHARE: f64 = 0.1;
/// `events` admits one new structure (an `event post` on an id the server
/// has not seen) every this many requests, until the server's cap.
const GROW_EVERY: u64 = 512;
/// Distinct exchanges in the `specs` pool: four times the server's
/// 4096-entry cache, cycled in order, so every lookup of a structure
/// finds it already evicted.
pub const SPEC_POOL: usize = 16_384;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 90% `analyze`, 10% `event` on the boot population: cache hit path.
    Certify,
    /// Pure `event` stream with hot admission: delta maintenance.
    Events,
    /// `analyzespec` over structurally distinct exchanges: parse, build,
    /// canonicalisation and reduction, with cache eviction.
    Specs,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Certify, Workload::Events, Workload::Specs];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Certify => "certify",
            Workload::Events => "events",
            Workload::Specs => "specs",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate of the open-loop `rate` phase, in requests per second.
    /// A fixed number, so a later change is measured at the same offered
    /// load: about a quarter of the `sat` goodput the parent commit of this
    /// benchmark reached on a 2-core x86-64 Linux container.
    pub fn offered_rps(self) -> f64 {
        match self {
            Workload::Certify => 80_000.0,
            Workload::Events => 120_000.0,
            Workload::Specs => 1_000.0,
        }
    }

    /// Requests the traced in-process replay runs untraced to reach a
    /// steady state, then measures.
    pub fn replay_requests(self) -> (u64, u64) {
        match self {
            Workload::Certify | Workload::Events => (100_000, 100_000),
            Workload::Specs => (5_000, 10_000),
        }
    }
}

/// The server configuration every run uses: one worker and the shipped
/// `serve` defaults (4096-entry cache with a 300 s TTL, 1024 queue slots,
/// 32 boot structures, a 1024-structure admission cap).
pub fn server_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        structures: BOOT_STRUCTURES,
        seed: POPULATION_SEED,
        cache_ttl: Some(Duration::from_secs(300)),
        ..ServiceConfig::default()
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Re-certify resident structure `id`.
    Analyze {
        /// Structure id.
        id: u32,
    },
    /// Apply one marketplace event to structure `id`.
    Event {
        /// Structure id (may be past the boot population for a `post`).
        id: u64,
        /// Lifecycle op.
        op: ServiceOp,
        /// Pair or deal slot.
        slot: u32,
    },
    /// Analyze spec `index` of the spec pool inline.
    Spec {
        /// Index into the spec pool.
        index: u32,
    },
}

impl Entry {
    /// The wire request for this entry under sequence number `seq`.
    pub fn request(&self, seq: u64, pool: &[String]) -> ServiceRequest {
        match *self {
            Entry::Analyze { id } => ServiceRequest::Analyze { seq, id },
            Entry::Event { id, op, slot } => ServiceRequest::Event { seq, id, op, slot },
            Entry::Spec { index } => ServiceRequest::AnalyzeSpec {
                seq,
                spec: pool[index as usize].clone(),
            },
        }
    }
}

/// Trust-pair and deal counts of a structure: the only population facts a
/// schedule needs to pick valid slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Slots for accept/cancel.
    pub pairs: u32,
    /// Slots for post/expire.
    pub deals: u32,
}

impl Shape {
    /// The shape of `stall`.
    pub fn of(stall: &Stall) -> Shape {
        Shape {
            pairs: stall.pairs() as u32,
            deals: stall.deals() as u32,
        }
    }
}

/// An endless, deterministic request stream for one workload.
#[derive(Debug)]
pub struct Stream {
    workload: Workload,
    rng: StdRng,
    shapes: Vec<Shape>,
    /// Ids that may be addressed: boot structures with at least one slot,
    /// plus every id already admitted by its opening `post`.
    eligible: Vec<u64>,
    /// Next id past the boot population that `events` will admit.
    next_admit: u64,
    issued: u64,
    pool_len: u32,
}

impl Stream {
    /// The stream for `workload` under `seed`. `shapes` covers every id
    /// the stream may address (the boot population, plus the admission
    /// range for `events`); `pool_len` is the spec-pool size.
    pub fn new(workload: Workload, seed: u64, shapes: &[Shape], pool_len: usize) -> Stream {
        let eligible = (0..BOOT_STRUCTURES.min(shapes.len()) as u64)
            .filter(|&id| {
                let s = shapes[id as usize];
                s.pairs + s.deals > 0
            })
            .collect();
        Stream {
            workload,
            rng: StdRng::seed_from_u64(seed ^ 0x5eb0_0000_0000_0000),
            shapes: shapes.to_vec(),
            eligible,
            next_admit: BOOT_STRUCTURES as u64,
            issued: 0,
            pool_len: pool_len as u32,
        }
    }

    /// One valid lifecycle op on `id`: the kind is drawn uniformly and
    /// falls back to a family with slots when the drawn one has none.
    fn lifecycle(&mut self, id: u64) -> Entry {
        let shape = self.shapes[id as usize];
        let kind = self.rng.random_range(0..4u8);
        let (op, limit) = match kind {
            0 => (ServiceOp::Accept, shape.pairs),
            1 => (ServiceOp::Cancel, shape.pairs),
            2 => (ServiceOp::Post, shape.deals),
            _ => (ServiceOp::Expire, shape.deals),
        };
        let (op, limit) = match (limit, shape.pairs) {
            (0, 0) => (ServiceOp::Post, shape.deals),
            (0, pairs) => (ServiceOp::Accept, pairs),
            _ => (op, limit),
        };
        Entry::Event {
            id,
            op,
            slot: self.rng.random_range(0..limit),
        }
    }

    fn pick(&mut self) -> u64 {
        self.eligible[self.rng.random_range(0..self.eligible.len())]
    }
}

impl Iterator for Stream {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        let issued = self.issued;
        self.issued += 1;
        Some(match self.workload {
            Workload::Certify => {
                let id = self.pick();
                if self.rng.random_bool(CERTIFY_EVENT_SHARE) {
                    self.lifecycle(id)
                } else {
                    Entry::Analyze { id: id as u32 }
                }
            }
            Workload::Events => {
                let admit = self.next_admit;
                if issued % GROW_EVERY == GROW_EVERY - 1 && (admit as usize) < self.shapes.len() {
                    self.next_admit += 1;
                    // Hot admission: a `post` on an id the server has not
                    // seen materialises it under the population law. An id
                    // without deals cannot open with a post and is skipped.
                    let deals = self.shapes[admit as usize].deals;
                    if deals > 0 {
                        self.eligible.push(admit);
                        return Some(Entry::Event {
                            id: admit,
                            op: ServiceOp::Post,
                            slot: self.rng.random_range(0..deals),
                        });
                    }
                }
                let id = self.pick();
                self.lifecycle(id)
            }
            Workload::Specs => Entry::Spec {
                index: (issued % u64::from(self.pool_len)) as u32,
            },
        })
    }
}

/// Generates the `specs` pool: exchanges of width 3–6, chain depth up to
/// 4–8 and trust density 0–0.6, with shared escrows and bridges, printed
/// in the spec language. Deterministic in `seed`. Narrower or shallower
/// exchanges repeat: at width 1–4 and depth 1–6 only 55% of a 16 384-spec
/// pool is distinct as labelled structures; at these sizes about 99% is.
pub fn spec_pool(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5bec_0000_0000_0000);
    (0..n)
        .map(|_| {
            let cfg = RandomConfig {
                width: rng.random_range(3..=6usize),
                max_depth: rng.random_range(4..=8usize),
                trust_density: f64::from(rng.random_range(0..=6u32)) / 10.0,
                shared_escrow_prob: 0.1,
                bridge_prob: 0.1,
                price_range: (10, 100),
                seed: rng.next_u64(),
            };
            trustseq_lang::print(&random_exchange(&cfg).spec)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_workloads::MarketMode;

    fn shapes(n: usize) -> Vec<Shape> {
        let cfg = server_config();
        (0..n)
            .map(|id| {
                Shape::of(&Stall::generate(
                    cfg.seed.wrapping_add(id as u64),
                    &cfg.base,
                    MarketMode::Full,
                    None,
                ))
            })
            .collect()
    }

    #[test]
    fn a_fixed_seed_yields_the_same_schedules() {
        let shapes = shapes(200);
        for w in Workload::ALL {
            let a: Vec<Entry> = Stream::new(w, 9, &shapes, 64).take(20_000).collect();
            let b: Vec<Entry> = Stream::new(w, 9, &shapes, 64).take(20_000).collect();
            let c: Vec<Entry> = Stream::new(w, 10, &shapes, 64).take(20_000).collect();
            assert_eq!(a, b, "{}", w.name());
            if w != Workload::Specs {
                assert_ne!(a, c, "{} must depend on the seed", w.name());
            }
        }
        assert_eq!(spec_pool(3, 16), spec_pool(3, 16));
        assert_ne!(spec_pool(3, 16), spec_pool(4, 16));
    }

    #[test]
    fn schedules_address_only_valid_slots_and_admit_with_post() {
        let shapes = shapes(200);
        let mut events = 0;
        for e in Stream::new(Workload::Certify, 1, &shapes, 1).take(10_000) {
            match e {
                Entry::Analyze { id } => assert!((id as usize) < BOOT_STRUCTURES),
                Entry::Event { id, .. } => {
                    assert!((id as usize) < BOOT_STRUCTURES);
                    events += 1;
                }
                Entry::Spec { .. } => panic!("certify sends no specs"),
            }
        }
        assert!(
            (700..1300).contains(&events),
            "about 10% events, got {events}"
        );

        let mut seen = vec![false; shapes.len()];
        seen[..BOOT_STRUCTURES].fill(true);
        let mut admitted = 0;
        for e in Stream::new(Workload::Events, 1, &shapes, 1).take(60_000) {
            let Entry::Event { id, op, slot } = e else {
                panic!("events sends only events")
            };
            let shape = shapes[id as usize];
            let limit = match op {
                ServiceOp::Accept | ServiceOp::Cancel => shape.pairs,
                ServiceOp::Post | ServiceOp::Expire => shape.deals,
            };
            assert!(slot < limit);
            if !seen[id as usize] {
                assert_eq!(op, ServiceOp::Post, "id {id} must open with a post");
                seen[id as usize] = true;
                admitted += 1;
            }
        }
        assert!(admitted > 100, "hot admission must happen, got {admitted}");
    }
}
