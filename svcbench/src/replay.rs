//! The traced run: the workload's seeded request stream replayed in
//! process through each layer's public functions, in the server's order,
//! with a span around every call.
//!
//! Per request: the client's request encode (outside the server's rows),
//! then `FrameDecoder` (net), `ServiceRequest::from_wire` (codec),
//! `ShardedQueue` push and pop (queue), the handler — `Stall::apply`
//! (market, which contains the delta analyzer), `AnalysisCache` invalidate
//! or lookup (cache), `parse_spec` (lang) and `SequencingGraph::from_spec`
//! (build) — and the reply's `to_wire` (codec) and `encode_frame` (net).
//!
//! A cache lookup is a hit span when it was a tier-1 hit (the labelled key
//! matched, no canonicalisation ran) and a miss span otherwise, told apart
//! by [`CacheStats`] before and after the call. After each request closes,
//! `prefingerprint`, `canonicalize` and the reducer are timed again on the
//! same graph as child spans of the lookup (canonicalize only for misses,
//! the reducer only where the cache reduced), splitting the lookup between
//! the canon, reduce and cache layers. These re-timings run outside the
//! request span and are left out of the replay's wall time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use trustseq_core::{
    canonicalize, prefingerprint, AnalysisCache, CacheStats, Reducer, SequencingGraph,
};
use trustseq_dist::net::{encode_frame, FrameDecoder};
use trustseq_dist::{ServiceReply, ServiceRequest};
use trustseq_service::{build_population, market_op, ShardedQueue};
use trustseq_workloads::{fnv_fold, MarketMode, MarketOp, Stall, FNV_OFFSET};

use crate::workload::{server_config, Shape, Stream, Workload};

/// Heap allocations made by this process so far. Only counts when the
/// binary installs [`CountingAlloc`] as its global allocator.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations into [`ALLOCATIONS`].
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System` with the caller's
// arguments; the only addition is a relaxed counter increment, which
// neither allocates nor touches the returned memory.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { std::alloc::System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // is `System`'s.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this type.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

/// A span's name; each belongs to one layer row (or to the client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    /// The whole server-side handling of one request.
    Request,
    /// The client's request `to_wire` + `encode_frame`.
    LoadgenEncode,
    /// `FrameDecoder::push` + `next_frame`.
    NetDecode,
    /// `ServiceRequest::from_wire`.
    CodecParse,
    /// `ShardedQueue::try_push` + `pop_batch`.
    QueuePushPop,
    /// Hot admission of an unseen structure (`Stall::generate`).
    MarketAdmit,
    /// `AnalysisCache::invalidate_graph`.
    CacheInvalidate,
    /// `Stall::apply` (event decode plus delta maintenance).
    MarketApply,
    /// `AnalysisCache::verdict` answered at tier 1.
    CacheHit,
    /// `AnalysisCache::verdict` that canonicalised (tier-2 hit or miss).
    CacheMiss,
    /// Re-timed `prefingerprint` on the looked-up graph.
    CanonPrefingerprint,
    /// Re-timed `canonicalize` on a missed graph.
    CanonCanonicalize,
    /// Re-timed reduction of a missed graph's canonical form.
    Reduce,
    /// `trustseq_lang::parse_spec`.
    LangParse,
    /// `SequencingGraph::from_spec`.
    BuildFromSpec,
    /// The reply's `to_wire`.
    CodecReply,
    /// The reply's `encode_frame`.
    NetEncode,
}

impl Name {
    /// The span name as written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Request => "request",
            Name::LoadgenEncode => "loadgen.encode",
            Name::NetDecode => "net.decode",
            Name::CodecParse => "codec.parse",
            Name::QueuePushPop => "queue.push_pop",
            Name::MarketAdmit => "market.admit",
            Name::CacheInvalidate => "cache.invalidate",
            Name::MarketApply => "market.apply",
            Name::CacheHit => "cache.hit",
            Name::CacheMiss => "cache.miss",
            Name::CanonPrefingerprint => "canon.prefingerprint",
            Name::CanonCanonicalize => "canon.canonicalize",
            Name::Reduce => "reduce",
            Name::LangParse => "lang.parse",
            Name::BuildFromSpec => "build.from_spec",
            Name::CodecReply => "codec.reply",
            Name::NetEncode => "net.encode",
        }
    }

    /// The server layer row this span's self time goes to; `None` for the
    /// request span (its self time is glue, left unattributed) and for the
    /// client's encode.
    pub fn layer(self) -> Option<&'static str> {
        Some(match self {
            Name::Request | Name::LoadgenEncode => return None,
            Name::NetDecode | Name::NetEncode => "net",
            Name::CodecParse | Name::CodecReply => "codec",
            Name::QueuePushPop => "queue",
            Name::MarketAdmit | Name::MarketApply => "market",
            Name::CacheInvalidate | Name::CacheHit | Name::CacheMiss => "cache",
            Name::CanonPrefingerprint | Name::CanonCanonicalize => "canon",
            Name::Reduce => "reduce",
            Name::LangParse => "lang",
            Name::BuildFromSpec => "build",
        })
    }

    /// Re-timing spans: extra work outside the request, excluded from the
    /// replay's wall time.
    fn is_retimed(self) -> bool {
        matches!(
            self,
            Name::CanonPrefingerprint | Name::CanonCanonicalize | Name::Reduce
        )
    }
}

/// Layer rows in table order.
pub const LAYERS: [&str; 9] = [
    "net", "codec", "queue", "market", "cache", "canon", "reduce", "lang", "build",
];

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub name: Name,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the parent span, or `u32::MAX`.
    pub parent: u32,
    /// Request index (its `seq`).
    pub req: u32,
    /// Heap allocations made inside the span.
    pub allocs: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Empty spans timed to calibrate the tracer's own cost.
const CALIBRATION_SPANS: u32 = 20_000;

/// In-memory span recorder; with `on == false` every call is a no-op.
struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: Name, parent: u32, req: u32) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            req,
            allocs: ALLOCATIONS.load(Ordering::Relaxed) as u32,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        if !self.on {
            return;
        }
        let end = self.t0.elapsed().as_nanos() as u64;
        let s = &mut self.spans[span as usize];
        s.end_ns = end;
        s.allocs = (ALLOCATIONS.load(Ordering::Relaxed) as u32).wrapping_sub(s.allocs);
    }
}

/// Counts taken at the layer boundaries of a traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `Stall::apply` calls.
    pub applies: u64,
    /// Of which changed nothing.
    pub noop_applies: u64,
    /// Graph deltas the resident analyzers applied.
    pub deltas: u64,
    /// Of which fell back to a full re-reduction.
    pub fallbacks: u64,
    /// Moves undone across all undo cascades.
    pub undone_steps: u64,
    /// Reductions the cache ran.
    pub reductions: u64,
    /// Rule applications in those reductions.
    pub removals: u64,
}

/// One replay pass.
#[derive(Debug)]
pub struct Replay {
    /// Requests replayed.
    pub requests: u64,
    /// Wall time of the pass, less the re-timing spans.
    pub wall_ns: u64,
    /// Median duration of an empty span: what one span adds to the
    /// duration it reports, subtracted from every span by [`totals`].
    pub span_cost_ns: u64,
    /// Recorded spans (empty when untraced).
    pub spans: Vec<Span>,
    /// Boundary counts (zero when untraced).
    pub counts: Counts,
    /// The replay cache's final counters.
    pub cache: CacheStats,
}

/// What the handler looked up in the cache, for the re-timing spans.
struct Lookup {
    span: u32,
    canonicalized: bool,
    reduced: bool,
    graph: Looked,
}

/// The graph a lookup was for.
enum Looked {
    /// A resident structure's current graph.
    Resident(usize),
    /// A graph built from an inline spec.
    Built(Box<SequencingGraph>),
}

struct State {
    stalls: Vec<(Stall, u64)>,
    cache: AnalysisCache,
    counts: Counts,
}

/// `AnalysisCache::verdict` inside a hit or miss span; also returns the
/// span and whether the lookup canonicalised and reduced.
fn lookup(
    cache: &AnalysisCache,
    tr: &mut Tracer,
    graph: &SequencingGraph,
    root: u32,
    req: u32,
) -> (ServiceReply, u32, bool, bool) {
    let before = tr.on.then(|| cache.stats());
    let span = tr.open(Name::CacheMiss, root, req);
    let v = cache.verdict(graph);
    tr.close(span);
    let (mut canonicalized, mut reduced) = (false, false);
    if let Some(before) = before {
        let after = cache.stats();
        canonicalized = after.pre_hits == before.pre_hits;
        reduced = after.misses > before.misses;
        if !canonicalized {
            tr.spans[span as usize].name = Name::CacheHit;
        }
    }
    let reply = ServiceReply::Verdict {
        seq: u64::from(req),
        feasible: v.feasible,
        remaining: v.remaining_edges as u32,
        remaining_red: v.remaining_red,
    };
    (reply, span, canonicalized, reduced)
}

impl State {
    fn handle(
        &mut self,
        tr: &mut Tracer,
        req: ServiceRequest,
        root: u32,
        i: u32,
    ) -> (ServiceReply, Option<Lookup>) {
        match req {
            ServiceRequest::Analyze { id, .. } => {
                let id = id as usize;
                let graph = self.stalls[id].0.graph();
                let (reply, span, canonicalized, reduced) = lookup(&self.cache, tr, graph, root, i);
                let graph = Looked::Resident(id);
                (
                    reply,
                    Some(Lookup {
                        span,
                        canonicalized,
                        reduced,
                        graph,
                    }),
                )
            }
            ServiceRequest::Event { seq, id, op, slot } => {
                let id = id as usize;
                if id >= self.stalls.len() && market_op(op) == MarketOp::Post {
                    let span = tr.open(Name::MarketAdmit, root, i);
                    let cfg = server_config();
                    while self.stalls.len() <= id {
                        let next = self.stalls.len() as u64;
                        let stall = Stall::generate(
                            cfg.seed.wrapping_add(next),
                            &cfg.base,
                            MarketMode::Delta,
                            None,
                        );
                        self.stalls.push((stall, FNV_OFFSET));
                    }
                    tr.close(span);
                }
                let (stall, hash) = self
                    .stalls
                    .get_mut(id)
                    .expect("streams address admitted structures only");
                let span = tr.open(Name::CacheInvalidate, root, i);
                self.cache.invalidate_graph(stall.graph());
                tr.close(span);
                let before = stall.stats();
                let span = tr.open(Name::MarketApply, root, i);
                let changed = stall
                    .apply(market_op(op), slot as usize)
                    .expect("streams pick slots in range");
                tr.close(span);
                if tr.on {
                    let after = stall.stats();
                    let c = &mut self.counts;
                    c.applies += 1;
                    c.noop_applies += u64::from(!changed);
                    c.deltas += after.applied - before.applied;
                    c.fallbacks += after.fallbacks - before.fallbacks;
                    c.undone_steps += after.undone_steps - before.undone_steps;
                }
                let (feasible, remaining) = (stall.feasible(), stall.remaining_edges() as u32);
                *hash = fnv_fold(fnv_fold(*hash, u64::from(feasible)), u64::from(remaining));
                (
                    ServiceReply::EventVerdict {
                        seq,
                        feasible,
                        remaining,
                        hash: *hash,
                    },
                    None,
                )
            }
            ServiceRequest::AnalyzeSpec { spec, .. } => {
                let span = tr.open(Name::LangParse, root, i);
                let parsed = trustseq_lang::parse_spec(&spec).expect("pool specs parse");
                tr.close(span);
                let span = tr.open(Name::BuildFromSpec, root, i);
                let graph = SequencingGraph::from_spec(&parsed).expect("pool specs build");
                tr.close(span);
                let (reply, span, canonicalized, reduced) =
                    lookup(&self.cache, tr, &graph, root, i);
                let graph = Looked::Built(Box::new(graph));
                (
                    reply,
                    Some(Lookup {
                        span,
                        canonicalized,
                        reduced,
                        graph,
                    }),
                )
            }
            ServiceRequest::Mutate { .. } | ServiceRequest::Stats { .. } => {
                unreachable!("streams send analyze, event and analyzespec frames only")
            }
        }
    }

    /// Re-times the pieces of a cache lookup as its child spans.
    fn retime(&mut self, tr: &mut Tracer, lookup: &Lookup, i: u32) {
        let graph = match &lookup.graph {
            Looked::Resident(id) => self.stalls[*id].0.graph(),
            Looked::Built(graph) => graph,
        };
        let (span, canonicalized, reduced) = (lookup.span, lookup.canonicalized, lookup.reduced);
        let s = tr.open(Name::CanonPrefingerprint, span, i);
        black_box(prefingerprint(graph));
        tr.close(s);
        if !canonicalized {
            return;
        }
        let s = tr.open(Name::CanonCanonicalize, span, i);
        let form = canonicalize(graph);
        tr.close(s);
        if reduced {
            let canonical = form.canonical_graph(graph);
            let s = tr.open(Name::Reduce, span, i);
            let (outcome, _) = Reducer::new(canonical).run_keeping_graph();
            tr.close(s);
            self.counts.reductions += 1;
            self.counts.removals += outcome.trace.len() as u64;
        }
    }
}

/// Replays `warmup` requests of `workload`'s stream under `seed`, then
/// measures the next `requests`, against a fresh population, cache and
/// queue built from the server configuration, with spans on (`traced`) or
/// off.
pub fn replay(
    workload: Workload,
    seed: u64,
    shapes: &[Shape],
    pool: &[String],
    warmup: u64,
    requests: u64,
    traced: bool,
) -> Replay {
    let cfg = server_config();
    let stalls = build_population(cfg.structures, cfg.seed, &cfg.base, MarketMode::Delta)
        .into_iter()
        .map(|s| (s, FNV_OFFSET))
        .collect();
    let mut state = State {
        stalls,
        cache: AnalysisCache::with_capacity_and_ttl(cfg.cache_capacity, cfg.cache_ttl),
        counts: Counts::default(),
    };
    let queue: ShardedQueue<ServiceRequest> = ShardedQueue::new(cfg.workers, cfg.queue_capacity);
    let mut decoder = FrameDecoder::with_max_frame(cfg.max_frame);
    let mut stream = Stream::new(workload, seed, shapes, pool.len());
    let mut tr = Tracer {
        on: traced,
        t0: Instant::now(),
        spans: Vec::with_capacity(if traced { requests as usize * 16 } else { 0 }),
    };
    let mut empty: Vec<u64> = (0..if traced { CALIBRATION_SPANS } else { 0 })
        .map(|_| {
            let s = tr.open(Name::Request, NO_PARENT, 0);
            tr.close(s);
            tr.spans.pop().map_or(0, |s| s.duration_ns())
        })
        .collect();
    empty.sort_unstable();
    let span_cost_ns = empty.get(empty.len() / 2).copied().unwrap_or(0);
    // The warm-up fills the cache and grows the population untraced, so
    // the measured requests see the steady state the live phases see.
    tr.on = false;
    let mut start = Instant::now();
    for i in 0..(warmup + requests) as u32 {
        if u64::from(i) == warmup {
            tr.on = traced;
            start = Instant::now();
        }
        let entry = stream.next().expect("streams are endless");
        let s = tr.open(Name::LoadgenEncode, NO_PARENT, i);
        let bytes = encode_frame(&entry.request(u64::from(i), pool).to_wire())
            .expect("request fits a frame");
        tr.close(s);

        let root = tr.open(Name::Request, NO_PARENT, i);
        let s = tr.open(Name::NetDecode, root, i);
        decoder.push(&bytes);
        let frame = decoder
            .next_frame()
            .expect("well-formed frame")
            .expect("one whole frame");
        tr.close(s);
        let s = tr.open(Name::CodecParse, root, i);
        let req = ServiceRequest::from_wire(&frame).expect("well-formed request");
        tr.close(s);
        let s = tr.open(Name::QueuePushPop, root, i);
        if queue.try_push(0, req).is_err() {
            unreachable!("the replay queue holds one request at a time");
        }
        let req = queue
            .pop_batch(0, 1, Duration::ZERO)
            .pop()
            .expect("just pushed");
        tr.close(s);
        let (reply, lookup) = state.handle(&mut tr, req, root, i);
        let s = tr.open(Name::CodecReply, root, i);
        let wire = reply.to_wire();
        tr.close(s);
        let s = tr.open(Name::NetEncode, root, i);
        black_box(encode_frame(&wire).expect("reply fits a frame"));
        tr.close(s);
        tr.close(root);
        if let (true, Some(lookup)) = (tr.on, lookup) {
            state.retime(&mut tr, &lookup, i);
        }
    }
    let retimed: u64 = tr
        .spans
        .iter()
        .filter(|s| s.name.is_retimed())
        .map(Span::duration_ns)
        .sum();
    Replay {
        requests,
        wall_ns: start.elapsed().as_nanos() as u64 - retimed,
        span_cost_ns,
        spans: tr.spans,
        counts: state.counts,
        cache: state.cache.stats(),
    }
}

/// Per-name totals over a traced replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed durations, ns, each less the tracer's own cost.
    pub total_ns: u64,
    /// Summed self times (duration less child spans), ns.
    pub self_ns: i64,
    /// Summed allocations.
    pub allocs: u64,
}

impl NameTotals {
    /// Mean duration per call, ns (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// Totals per span name, with `span_cost_ns` (the calibrated cost of one
/// span) taken off every span's duration.
pub fn totals(spans: &[Span], span_cost_ns: u64) -> BTreeMap<Name, NameTotals> {
    let duration = |s: &Span| s.duration_ns().saturating_sub(span_cost_ns);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += duration(s);
        }
    }
    let mut out: BTreeMap<Name, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += duration(s);
        t.self_ns += duration(s) as i64 - children as i64;
        t.allocs += u64::from(s.allocs);
    }
    out
}

/// Self time per request of each layer row, µs, in [`LAYERS`] order.
pub fn layer_rows(totals: &BTreeMap<Name, NameTotals>, requests: u64) -> Vec<(&'static str, f64)> {
    LAYERS
        .iter()
        .map(|&layer| {
            let self_ns: i64 = totals
                .iter()
                .filter(|(n, _)| n.layer() == Some(layer))
                .map(|(_, t)| t.self_ns)
                .sum();
            (layer, self_ns as f64 / 1e3 / requests.max(1) as f64)
        })
        .collect()
}

/// The reconciliation: the layer rows, then `unattributed`, which makes
/// the rows sum exactly to `total` (the untraced server CPU per request).
pub fn reconcile(rows: &[(&'static str, f64)], total: f64) -> Vec<(&'static str, f64)> {
    let attributed: f64 = rows.iter().map(|(_, v)| v).sum();
    let mut out = rows.to_vec();
    out.push(("unattributed", total - attributed));
    out
}

/// Writes `spans` as tab-separated lines: request, span index, parent
/// index (`-` for none), name, start ns, end ns, allocations.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tspan\tparent\tname\tstart_ns\tend_ns\tallocs")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.req,
            i,
            parent,
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.allocs
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_row_is_total_minus_the_layer_rows() {
        let rows = vec![
            ("net", 0.4),
            ("codec", 0.3),
            ("cache", 1.1),
            ("server.sys", 2.0),
        ];
        let table = reconcile(&rows, 5.25);
        let (name, unattributed) = *table.last().unwrap();
        assert_eq!(name, "unattributed");
        assert!((unattributed - (5.25 - 3.8)).abs() < 1e-12);
        let sum: f64 = table.iter().map(|(_, v)| v).sum();
        assert!((sum - 5.25).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            allocs: 1,
        };
        let spans = vec![
            span(Name::Request, 0, 100, NO_PARENT),
            span(Name::CacheMiss, 10, 70, 0),
            span(Name::CanonCanonicalize, 200, 220, 1),
            span(Name::Reduce, 220, 250, 1),
        ];
        let t = totals(&spans, 0);
        assert_eq!(t[&Name::Request].self_ns, 40);
        // A 5 ns span cost comes off the parent and each child alike.
        let c = totals(&spans, 5);
        assert_eq!(c[&Name::Request].self_ns, 95 - 55);
        assert_eq!(c[&Name::CacheMiss].self_ns, 55 - 15 - 25);
        assert_eq!(t[&Name::CacheMiss].self_ns, 10);
        let rows = layer_rows(&t, 1);
        let get = |l: &str| rows.iter().find(|(n, _)| *n == l).unwrap().1;
        assert!((get("cache") - 0.010).abs() < 1e-12);
        assert!((get("canon") - 0.020).abs() < 1e-12);
        assert!((get("reduce") - 0.030).abs() < 1e-12);
    }

    /// The replay's answers match the real server path's: every reply of
    /// a short traced replay is a verdict, and tracing changes nothing.
    #[test]
    fn traced_and_untraced_replays_do_the_same_work() {
        let cfg = server_config();
        let shapes: Vec<Shape> = (0..cfg.max_structures as u64)
            .map(|id| {
                Shape::of(&Stall::generate(
                    cfg.seed + id,
                    &cfg.base,
                    MarketMode::Full,
                    None,
                ))
            })
            .collect();
        let pool = crate::workload::spec_pool(1, 50);
        for w in Workload::ALL {
            let on = replay(w, 3, &shapes, &pool, 100, 600, true);
            let off = replay(w, 3, &shapes, &pool, 100, 600, false);
            assert_eq!(on.cache.misses, off.cache.misses, "{}", w.name());
            assert_eq!(on.cache.hits, off.cache.hits, "{}", w.name());
            let t = totals(&on.spans, on.span_cost_ns);
            assert_eq!(t[&Name::Request].calls, 600);
            assert!(off.spans.is_empty());
        }
    }
}
