//! `svcbench --workload <certify|events|specs|all> --seed N --seconds S --trace <0|1>`
//!
//! Runs one workload (or all three in turn) against a fresh server
//! process, gates on correctness, prints a human-readable report, and
//! ends its standard output with one JSON line: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A wrong
//! verdict, a hash mismatch or an unanswered request exits non-zero
//! without reporting numbers.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use svcbench::client::{closed_loop, open_loop, stats_roundtrip, Mark};
use svcbench::machine::{json_str, Machine};
use svcbench::procfs::{cpu_times, peak_rss_mib, steal_ticks, CpuTimes};
use svcbench::replay::{self, CountingAlloc, Name};
use svcbench::spawn::{server_exe, ServerProc};
use svcbench::stats::{median, median_of, pooled, quietest, window_percentiles};
use svcbench::verify::{Oracle, Tally};
use svcbench::workload::{server_config, spec_pool, Entry, Shape, Stream, Workload, SPEC_POOL};
use trustseq_dist::net::Conn;
use trustseq_workloads::{MarketMode, Stall};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `sat` window length; goodput and CPU per request are pooled over the
/// measured windows (see `quietest`).
const SAT_WINDOW_S: f64 = 0.5;
/// Untimed `sat` windows at the start, while the server's heap and cache
/// fill; their replies are checked like the rest.
const WARMUP_WINDOWS: u32 = 4;
/// Share of `--seconds` given to `sat`; `rate` has the rest.
const SAT_SHARE: f64 = 5.0 / 6.0;
/// `rate` window length; latency percentiles are medians over the
/// measured windows' percentiles. Windows are lengthened where needed to
/// hold [`RATE_WINDOW_REQUESTS`], so each p99 has ten samples beyond it.
const RATE_WINDOW_S: f64 = 0.1;
/// Fewest requests in one `rate` window.
const RATE_WINDOW_REQUESTS: f64 = 1000.0;
/// Server spawns per run; `setup_s` is their median. Single set-ups vary
/// from 3 ms to over 10 ms with the host's load.
const SETUP_TRIALS: usize = 31;
/// Where results, machine records and span files are written.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: svcbench --workload <certify|events|specs|all> --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workloads, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed expects an integer\n{USAGE}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && s.is_finite());
                seconds =
                    Some(s.ok_or_else(|| format!("--seconds expects a number >= 1\n{USAGE}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1\n{USAGE}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or(USAGE)?,
        seed: seed.ok_or(USAGE)?,
        seconds: seconds.ok_or(USAGE)?,
        trace: trace.ok_or(USAGE)?,
    })
}

/// One named measurement.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload's run produced.
struct Outcome {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("svcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let out_dir = root.join(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let machine = Machine::probe(&root);
    let mut metrics: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for &w in &args.workloads {
        let outcome = bench(w, &args, &machine, &out_dir)?;
        attempted += outcome.attempted;
        failed += outcome.failed;
        let reported = if args.trace {
            &outcome.per_layer
        } else {
            &outcome.end_to_end
        };
        for metric in reported {
            if !metric.value.is_finite() {
                return Err(format!(
                    "{} on {} is {}; no result",
                    metric.name,
                    w.name(),
                    metric.value
                ));
            }
            // A single workload reports bare names; `all` prefixes them.
            let name = if args.workloads.len() == 1 {
                metric.name.to_string()
            } else {
                format!("{}.{}", w.name(), metric.name)
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&name),
                metric.value,
                json_str(metric.unit)
            ));
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(())
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn bench(w: Workload, args: &Args, machine: &Machine, out_dir: &Path) -> Result<Outcome, String> {
    let cfg = server_config();
    // Off the clock: the population's shapes and the spec pool.
    let ids = if w == Workload::Events {
        cfg.max_structures
    } else {
        cfg.structures
    };
    let shapes: Vec<Shape> = (0..ids as u64)
        .map(|id| {
            Shape::of(&Stall::generate(
                cfg.seed.wrapping_add(id),
                &cfg.base,
                MarketMode::Full,
                None,
            ))
        })
        .collect();
    let pool = if w == Workload::Specs {
        spec_pool(args.seed, SPEC_POOL)
    } else {
        Vec::new()
    };

    // Set-up, several times; the last server takes the load.
    let exe = server_exe().map_err(io_err("server binary"))?;
    let mut setups = Vec::with_capacity(SETUP_TRIALS);
    let mut serving = None;
    for trial in 0..SETUP_TRIALS {
        let (server, conn, took) = ServerProc::spawn(&exe).map_err(io_err("server set-up"))?;
        setups.push(took.as_secs_f64());
        if trial + 1 == SETUP_TRIALS {
            serving = Some((server, conn));
        } else {
            drop(conn);
            server.stop().map_err(io_err("server stop"))?;
        }
    }
    let (server, mut stats_conn) = serving.expect("at least one set-up trial");
    let pid = server.pid();
    let before = stats_roundtrip(&mut stats_conn, u64::MAX - 1).map_err(io_err("stats"))?;
    let mut load =
        Conn::connect(&server.addr, Duration::from_secs(5)).map_err(io_err("connect"))?;
    let mut stream = Stream::new(w, args.seed, &shapes, pool.len());

    // sat: closed loop for the first five sixths of the measured time (its
    // metrics are the gated ones), after an untimed warm-up, with the
    // server's and the load generator's CPU times and the host's steal
    // read at each window.
    let sat_windows = (args.seconds * SAT_SHARE / SAT_WINDOW_S).round().max(1.0) as u32;
    let sat_for = Duration::from_secs_f64(f64::from(sat_windows) * SAT_WINDOW_S);
    let probe = || Ok((cpu_times(&pid)?, cpu_times("self")?, steal_ticks()?));
    let sat = closed_loop(
        &mut load,
        &mut stream,
        &pool,
        0,
        sat_for + Duration::from_secs_f64(f64::from(WARMUP_WINDOWS) * SAT_WINDOW_S),
        WARMUP_WINDOWS + sat_windows,
        probe,
    )
    .map_err(io_err("sat phase"))?;

    // rate: open loop at the workload's fixed offered rate.
    let rate = w.offered_rps();
    let rate_for = args.seconds - sat_for.as_secs_f64();
    let rate_requests = (rate * rate_for).round() as usize;
    let rate_windows = (rate_for / RATE_WINDOW_S.max(RATE_WINDOW_REQUESTS / rate))
        .floor()
        .max(1.0) as u32;
    let entries: Vec<Entry> = stream.by_ref().take(rate_requests).collect();
    let sat_sent = sat.replies.len() as u64;
    let open = open_loop(
        &mut load,
        Some(&mut stats_conn),
        &entries,
        &pool,
        sat_sent,
        rate,
        rate_windows,
        steal_ticks,
    )
    .map_err(io_err("rate phase"))?;
    let after = stats_roundtrip(&mut stats_conn, u64::MAX).map_err(io_err("stats"))?;
    let rss_mb = peak_rss_mib(&pid).map_err(io_err("server memory"))?;
    drop(load);
    drop(stats_conn);
    server.stop().map_err(io_err("server stop"))?;

    // Off the clock: every reply against the oracle, in sequence order.
    let mut oracle = Oracle::new(&pool);
    let mut again = Stream::new(w, args.seed, &shapes, pool.len());
    let (mut sat_tally, mut rate_tally) = (Tally::default(), Tally::default());
    for (seq, reply) in sat.replies.iter().enumerate() {
        oracle.check(
            seq as u64,
            again.next().expect("endless"),
            *reply,
            &mut sat_tally,
        );
    }
    for (i, reply) in open.replies.iter().enumerate() {
        let entry = again.next().expect("endless");
        assert_eq!(entry, entries[i], "the stream regenerates identically");
        oracle.check(sat_sent + i as u64, entry, *reply, &mut rate_tally);
    }
    sat_tally
        .gate()
        .map_err(|e| format!("{} sat phase: {e}", w.name()))?;
    rate_tally
        .gate()
        .map_err(|e| format!("{} rate phase: {e}", w.name()))?;

    let sat_answered = (sat_tally.sent() - sat_tally.unanswered) as f64;
    // Each `sat` figure is pooled over the measured windows in which the
    // hypervisor took no CPU from this machine (or, where too few are, the
    // quarter of windows it took least from): a window the host stole
    // from measures the host, not the program. Pooling (a ratio of sums)
    // rather than a median over windows keeps a run that spent part of
    // its time on a slower host from snapping to one speed or the other.
    type SatMark = Mark<(CpuTimes, CpuTimes, u64)>;
    let measured = &sat.marks[WARMUP_WINDOWS as usize..];
    let per_window = |f: &dyn Fn(&SatMark, &SatMark) -> f64| {
        measured
            .windows(2)
            .map(|w| f(&w[0], &w[1]))
            .collect::<Vec<f64>>()
    };
    let sat_steal: Vec<u64> = measured
        .windows(2)
        .map(|w| w[1].probe.2 - w[0].probe.2)
        .collect();
    let sat_quiet = quietest(&sat_steal, sat_steal.len() / 4);
    let secs = per_window(&|a, b| (b.at - a.at).as_secs_f64());
    let verdicts = per_window(&|a, b| (b.verdicts - a.verdicts) as f64);
    let answers = per_window(&|a, b| (b.answered - a.answered) as f64);
    let server_us = per_window(&|a, b| b.probe.0.since(a.probe.0).total_us());
    let sys_us = per_window(&|a, b| b.probe.0.since(a.probe.0).sys_us);
    let own_us = per_window(&|a, b| b.probe.1.since(a.probe.1).total_us());
    let goodput = pooled(&verdicts, &secs, &sat_quiet);
    let cpu_us_per_req = pooled(&server_us, &answers, &sat_quiet);
    let sys_us_per_req = pooled(&sys_us, &answers, &sat_quiet);
    let loadgen_us_per_req = pooled(&own_us, &answers, &sat_quiet);
    let goodputs: Vec<f64> = verdicts.iter().zip(&secs).map(|(v, t)| v / t).collect();
    let cpus: Vec<f64> = server_us
        .iter()
        .zip(&answers)
        .map(|(us, n)| us / n.max(1.0))
        .collect();
    let rate_steal: Vec<u64> = open.marks.windows(2).map(|w| w[1] - w[0]).collect();
    let rate_quiet = quietest(&rate_steal, rate_steal.len() / 4);
    let p50s = window_percentiles(&open.latency_us, rate_windows, 0.50);
    let p99s = window_percentiles(&open.latency_us, rate_windows, 0.99);
    let (p50_us, p99_us) = (median_of(&p50s, &rate_quiet), median_of(&p99s, &rate_quiet));
    let sat_elapsed = measured.last().expect("marks").at - measured[0].at;
    let attempted = sat_tally.sent() + rate_tally.sent();
    let failed = sat_tally.failed() + rate_tally.failed();
    // The metrics `BENCHMARK.json` bounds. The latency percentiles vary
    // between runs of the same code by more than any allowed bound on a
    // shared 2-core host, so they are reported among the load generator's
    // metrics instead (see README.md).
    let end_to_end = vec![
        m("goodput_rps", goodput, "req/s"),
        m("cpu_us_per_req", cpu_us_per_req, "us"),
        m("setup_s", median(&setups), "s"),
        m("rss_mb", rss_mb, "MiB"),
    ];

    println!(
        "== {} (seed {}, {} s measured, trace {}) ==",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine: {}", machine.to_json());
    println!("server:  {}", server_json());
    println!(
        "sat:     {} requests closed-loop (window {}), {:.3} s measured after {} s of warm-up, \
         {} of {} windows measured; \
         rate: {} requests open-loop at {} req/s, {} of {} windows measured",
        sat_sent,
        svcbench::client::WINDOW,
        sat_elapsed.as_secs_f64(),
        f64::from(WARMUP_WINDOWS) * SAT_WINDOW_S,
        sat_quiet.len(),
        sat_windows,
        rate_requests,
        rate,
        rate_quiet.len(),
        rate_windows
    );
    let setup_ms: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("set-up:  {} ms", setup_ms.join(" "));
    for (phase, t) in [("sat", &sat_tally), ("rate", &rate_tally)] {
        println!(
            "verdicts ({phase}): {} verified, {} wrong, {} hash mismatches, {} unanswered, {} rejected",
            t.verified, t.wrong, t.hash_mismatches, t.unanswered, t.rejected
        );
    }
    let reported = [
        m("p50_us", p50_us, "us"),
        m("p99_us", p99_us, "us"),
        m("failed_frac", failed as f64 / attempted as f64, "ratio"),
    ];
    for metric in end_to_end.iter().chain(&reported) {
        println!(
            "  {:<16} {:>14.3} {}",
            metric.name, metric.value, metric.unit
        );
    }

    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;
    let mut per_layer = vec![
        m(
            "net.bytes_per_req",
            (sat.bytes_out + sat.bytes_in) as f64 / sat_answered,
            "B",
        ),
        m(
            "net.replies_per_read",
            sat_answered / sat.reads.max(1) as f64,
            "count",
        ),
        m("queue.depth_max", f64::from(open.depth_max), "count"),
        m("server.sys_us_per_req", sys_us_per_req, "us"),
        m(
            "cache.hit_share",
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            "ratio",
        ),
        m("loadgen.cpu_us_per_req", loadgen_us_per_req, "us"),
        m(
            "loadgen.lag_p99_us",
            median_of(
                &window_percentiles(&open.lag_us, rate_windows, 0.99),
                &rate_quiet,
            ),
            "us",
        ),
        m("loadgen.latency_p50_us", p50_us, "us"),
        m("loadgen.latency_p99_us", p99_us, "us"),
    ];
    if args.trace {
        per_layer.extend(traced(
            w,
            args.seed,
            &shapes,
            &pool,
            cpu_us_per_req,
            sys_us_per_req,
            out_dir,
        )?);
    }

    let results = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let json = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"machine\": {}, \"server\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"wrong\": {}, \"hash_mismatches\": {}, \
         \"unanswered\": {}, \"rejected\": {}, \"end_to_end\": {}, \"per_layer\": {}, \
         \"sat_windows\": {{\"goodput_rps\": {}, \"cpu_us_per_req\": {}, \"steal_ticks\": {}}}, \
         \"rate_windows\": {{\"p50_us\": {}, \"p99_us\": {}, \"steal_ticks\": {}}}}}\n",
        json_str(w.name()),
        args.seed,
        args.seconds,
        args.trace,
        machine.to_json(),
        server_json(),
        sat_tally.wrong + rate_tally.wrong,
        sat_tally.hash_mismatches + rate_tally.hash_mismatches,
        sat_tally.unanswered + rate_tally.unanswered,
        sat_tally.rejected + rate_tally.rejected,
        metrics_json(&end_to_end),
        metrics_json(&per_layer),
        json_numbers(&goodputs),
        json_numbers(&cpus),
        json_numbers(&sat_steal.iter().map(|&t| t as f64).collect::<Vec<_>>()),
        json_numbers(&p50s),
        json_numbers(&p99s),
        json_numbers(&rate_steal.iter().map(|&t| t as f64).collect::<Vec<_>>()),
    );
    std::fs::write(&results, json).map_err(io_err("results file"))?;
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted,
        failed,
    })
}

/// The traced replay: the per-layer metrics and the reconciliation table.
fn traced(
    w: Workload,
    seed: u64,
    shapes: &[Shape],
    pool: &[String],
    cpu_us_per_req: f64,
    sys_us_per_req: f64,
    out_dir: &Path,
) -> Result<Vec<Metric>, String> {
    let (warmup, n) = w.replay_requests();
    let off = replay::replay(w, seed, shapes, pool, warmup, n, false);
    let on = replay::replay(w, seed, shapes, pool, warmup, n, true);
    let totals = replay::totals(&on.spans, on.span_cost_ns);
    let get = |name: Name| totals.get(&name).copied().unwrap_or_default();
    let mut rows = replay::layer_rows(&totals, n);
    rows.push(("server.sys", sys_us_per_req));
    let table = replay::reconcile(&rows, cpu_us_per_req);
    let unattributed = table.last().expect("reconcile adds a row").1;
    let overhead = (on.wall_ns as f64 - off.wall_ns as f64) / off.wall_ns as f64;

    println!(
        "traced reconciliation, server CPU us per request ({n} requests replayed in process \
         after {warmup} untraced; {} ns of tracer cost taken off each span):",
        on.span_cost_ns
    );
    for (row, us) in &table {
        println!("  {row:<14} {us:>10.4}");
    }
    println!(
        "  {:<14} {:>10.4}  (untraced cpu_us_per_req)",
        "total",
        table.iter().map(|(_, v)| v).sum::<f64>()
    );
    println!("  trace.overhead_frac {overhead:.4}");

    let spans_path: PathBuf = out_dir.join(format!("{}.spans.tsv", w.name()));
    replay::write_spans(&spans_path, &on.spans).map_err(io_err("span file"))?;

    let c = on.counts;
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let codec_allocs = get(Name::CodecParse).allocs + get(Name::CodecReply).allocs;
    Ok(vec![
        m("net.encode_ns", get(Name::NetEncode).mean_ns(), "ns"),
        m("net.decode_ns", get(Name::NetDecode).mean_ns(), "ns"),
        m("codec.parse_ns", get(Name::CodecParse).mean_ns(), "ns"),
        m("codec.reply_ns", get(Name::CodecReply).mean_ns(), "ns"),
        m(
            "codec.allocs_per_req",
            codec_allocs as f64 / n as f64,
            "count",
        ),
        m("queue.push_pop_ns", get(Name::QueuePushPop).mean_ns(), "ns"),
        m("server.unattributed_us_per_req", unattributed, "us"),
        m("market.apply_ns", get(Name::MarketApply).mean_ns(), "ns"),
        m(
            "market.noop_share",
            share(c.noop_applies, c.applies),
            "ratio",
        ),
        m(
            "delta.fallback_share",
            share(c.fallbacks, c.deltas),
            "ratio",
        ),
        m(
            "delta.undone_steps_per_apply",
            share(c.undone_steps, c.deltas),
            "count",
        ),
        m("cache.hit_ns", get(Name::CacheHit).mean_ns(), "ns"),
        m("cache.miss_ns", get(Name::CacheMiss).mean_ns(), "ns"),
        m(
            "cache.invalidate_ns",
            get(Name::CacheInvalidate).mean_ns(),
            "ns",
        ),
        m("cache.evictions", on.cache.evictions as f64, "count"),
        m(
            "canon.prefingerprint_ns",
            get(Name::CanonPrefingerprint).mean_ns(),
            "ns",
        ),
        m(
            "canon.canonicalize_ns",
            get(Name::CanonCanonicalize).mean_ns(),
            "ns",
        ),
        m("reduce.ns", get(Name::Reduce).mean_ns(), "ns"),
        m("reduce.removals", share(c.removals, c.reductions), "count"),
        m("lang.parse_ns", get(Name::LangParse).mean_ns(), "ns"),
        m(
            "build.from_spec_ns",
            get(Name::BuildFromSpec).mean_ns(),
            "ns",
        ),
        m("trace.overhead_frac", overhead, "ratio"),
    ])
}

fn server_json() -> String {
    let cfg = server_config();
    format!(
        "{{\"workers\": {}, \"structures\": {}, \"max_structures\": {}, \"population_seed\": {}, \
         \"cache_capacity\": {}, \"cache_ttl_s\": {}, \"queue_capacity\": {}}}",
        cfg.workers,
        cfg.structures,
        cfg.max_structures,
        cfg.seed,
        cfg.cache_capacity,
        cfg.cache_ttl.map_or(0, |t| t.as_secs()),
        cfg.queue_capacity
    )
}

/// A JSON number, or `null` for a non-finite value (a percentile that
/// fell on a failed request).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

fn json_numbers(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
    format!("[{}]", body.join(", "))
}

/// Metrics as a JSON object.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
