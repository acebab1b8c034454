//! The `service` and `fleet` workloads: a seeded request stream sent in
//! a closed loop to one in-process `mdfused` daemon, or to an
//! `mdf-router` fleet of in-process shards.
//!
//! Both workloads send the identical stream with the same client count:
//! a hot set (the five example programs and a few generated 24-48 loop
//! programs) plus, one request in ten, a freshly generated program never
//! sent before in the run. The loop runs in segments; between two, while
//! the loop's clients wait, one more client sends further fresh programs
//! one at a time, so that each one's CPU cost can be read from the
//! process clock. Every reply is checked against
//! `mdf_sim::run_original` on the request's own source.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mdf_core::FusionPlan;
use mdf_gen::program_gen::{random_program, ProgramGenConfig};
use mdf_ir::pretty::program_to_dsl;
use mdf_ir::{samples, Program};
use mdf_kernel::CompiledKernel;
use mdf_router::{InProcessBackend, Router, RouterConfig};
use mdf_service::{
    CacheLookup, CacheSync, Client, Endpoint, PlanCache, ProtoError, Response, Server,
    ServiceConfig, ServiceStats,
};
use mdf_trace::Span;

use crate::calib::{scaled, Calibration};
use crate::layers;
use crate::report::Outcome;
use crate::trace::{SelfTimes, Trace};
use crate::util::{median, ms_since, nproc, process_cpu_ms, quantile, thread_cpu_ms, Rng};
use crate::Args;

/// Closed-loop client connections (never more than the host's cores on
/// the reference host).
const CLIENTS: usize = 2;
/// Request bounds: small enough that the kernel never tiles.
pub const SHAPE: (i64, i64) = (24, 24);
/// Generated programs in the hot set, beside the five examples. Twice
/// as many as the examples, so the latency median falls inside the
/// generated programs' range rather than in the gap between the cheap
/// examples and them.
const HOT_GENERATED: u64 = 10;
/// Share of requests that carry a never-seen program.
const FRESH_SHARE: f64 = 0.1;
/// Loop counts of generated programs: `MIN_LOOPS..=MIN_LOOPS + SPAN - 1`.
const MIN_LOOPS: u64 = 24;
const LOOP_SPAN: u64 = 25;
/// Target boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;
/// The closed loop runs in this many segments. After each one, while the
/// clients wait, `PROBES_PER_SEGMENT` fresh programs are sent one at a
/// time (`fresh_cpu_ms.p50` is their median) and the calibration job runs
/// (see `calib`).
const SEGMENTS: usize = 20;
const PROBES_PER_SEGMENT: usize = 15;
/// Calibration jobs timed after each segment and after each boot.
const SEGMENT_CAL_JOBS: usize = 15;
const BOOT_CAL_JOBS: usize = 3;
/// Plan-cache capacity of the daemon (and of each shard).
const CACHE_CAPACITY: usize = 64;
/// Fleet shape.
const SHARDS: u32 = 2;
const BATCH_WINDOW: Duration = Duration::from_millis(2);

/// A generated program of `loops` loops.
fn generated_with(seed: u64, loops: u64) -> Program {
    let cfg = ProgramGenConfig {
        loops: loops as usize,
        ..ProgramGenConfig::default()
    };
    random_program(seed, &cfg)
}

/// A fresh program: its size, too, drawn from its seed.
fn generated(seed: u64) -> Program {
    generated_with(seed, MIN_LOOPS + seed % LOOP_SPAN)
}

/// The hot set: the five example programs and `HOT_GENERATED` seeded
/// generated ones. The generated programs' sizes are spread evenly over
/// the size class whatever the seed, so that the seed changes the
/// programs but not what the set costs.
fn hot_set(seed: u64) -> Vec<Program> {
    let mut hot: Vec<Program> = samples::all_samples()
        .into_iter()
        .chain(samples::extended_samples())
        .map(|(_, p)| p)
        .collect();
    let mut rng = Rng::derive(seed, 1);
    hot.extend((0..HOT_GENERATED).map(|k| {
        let loops = MIN_LOOPS + k * (LOOP_SPAN - 1) / (HOT_GENERATED - 1);
        generated_with(rng.next_u64(), loops)
    }));
    hot
}

/// One request of the stream.
#[derive(Clone, Copy)]
enum Pick {
    Hot(usize),
    /// A generated program, by generator seed.
    Fresh(u64),
}

/// The request stream of client `c`: endless, and a function of the seed
/// alone.
struct Stream {
    rng: Rng,
    hot: usize,
}

impl Stream {
    fn new(seed: u64, client: usize, hot: usize) -> Stream {
        Stream {
            rng: Rng::derive(seed, 100 + client as u64),
            hot,
        }
    }

    fn next_pick(&mut self) -> Pick {
        if self.rng.unit() < FRESH_SHARE {
            Pick::Fresh(self.rng.next_u64())
        } else {
            Pick::Hot(self.rng.below(self.hot as u64) as usize)
        }
    }
}

/// What one request produced.
struct Record {
    /// Request id, shared by the round trip's and the replay's spans.
    id: u64,
    pick: Pick,
    rtt_ms: f64,
    traced: bool,
    /// The reply's fingerprint, or the error it carried.
    reply: Result<u64, String>,
    /// The loop segment the request was sent in.
    seg: usize,
    /// CPU time the client spent making the request's program, in ms:
    /// the benchmark's work, not the target's.
    gen_cpu_ms: f64,
}

/// The daemon or the fleet under test.
enum Target {
    Daemon(Server),
    Fleet(Router),
}

impl Target {
    fn endpoint(&self) -> Endpoint {
        match self {
            Target::Daemon(s) => s.endpoint().clone(),
            Target::Fleet(r) => r.endpoint().clone(),
        }
    }

    /// Service counters, summed over shards for a fleet.
    fn service_stats(&self) -> ServiceStats {
        match self {
            Target::Daemon(s) => s.stats(),
            Target::Fleet(r) => {
                let mut sum = ServiceStats::default();
                for row in r.fleet_stats().shards {
                    let s = row.stats;
                    sum.requests += s.requests;
                    sum.completed += s.completed;
                    sum.cache_hits += s.cache_hits;
                    sum.cache_misses += s.cache_misses;
                    sum.cache_rejected += s.cache_rejected;
                    sum.overload_rejections += s.overload_rejections;
                    sum.deadline_expiries += s.deadline_expiries;
                    sum.recoveries += s.recoveries;
                }
                sum
            }
        }
    }

    fn drain(self) {
        match self {
            Target::Daemon(s) => {
                s.drain();
            }
            Target::Fleet(r) => {
                r.drain();
            }
        }
    }
}

/// Builds configs and boots targets inside one private directory.
struct Launcher {
    fleet: bool,
    dir: PathBuf,
    boots: usize,
}

impl Launcher {
    fn service_config(&self) -> ServiceConfig {
        let mut c = ServiceConfig::new(self.dir.join("unused.sock"));
        c.workers = 4;
        c.queue_depth = 8;
        c.cache_capacity = CACHE_CAPACITY;
        c.default_deadline_ms = 10_000;
        c.threads = nproc();
        c.chaos = false;
        c.cache_dir = Some(self.dir.join("store"));
        c.cache_sync = CacheSync::Snapshot;
        c
    }

    fn router_config(&self, endpoint: Endpoint) -> RouterConfig {
        let mut c = RouterConfig::new(endpoint, SHARDS);
        c.batch_window = Some(BATCH_WINDOW);
        c.chaos = false;
        c
    }

    /// Boots a target; the returned CPU seconds of the booting thread are
    /// `setup_s`'s sample. The boot itself (shard starts, store loads,
    /// binds) runs on this thread; the loops it spawns start on their own
    /// threads as the host finds a core for them, so the process clock
    /// would catch a varying share of their first steps.
    fn boot(&mut self) -> Result<(Target, f64), String> {
        // A fresh front-door path per boot: a drained router leaves its
        // socket file behind.
        let endpoint = Endpoint::Unix(self.dir.join(format!("front-{}.sock", self.boots)));
        self.boots += 1;
        let c0 = thread_cpu_ms();
        let target = if self.fleet {
            let backend = InProcessBackend::new(SHARDS, self.service_config());
            Router::start(self.router_config(endpoint), Box::new(backend))
                .map(Target::Fleet)
                .map_err(|e| format!("cannot boot the fleet: {e}"))?
        } else {
            let mut c = self.service_config();
            c.endpoint = endpoint;
            Server::start(c)
                .map(Target::Daemon)
                .map_err(|e| format!("cannot boot the daemon: {e}"))?
        };
        Ok((target, (thread_cpu_ms() - c0) / 1e3))
    }

    /// Every config field the benchmark sets, for the facts line.
    fn facts(&self, out: &mut Outcome) {
        let c = self.service_config();
        out.fact("service.workers", c.workers);
        out.fact("service.queue_depth", c.queue_depth);
        out.fact("service.cache_capacity", c.cache_capacity);
        out.fact("service.default_deadline_ms", c.default_deadline_ms);
        out.fact("service.threads", c.threads);
        out.fact("service.chaos", c.chaos);
        out.fact("service.cache_dir", "<private run dir>/store");
        out.fact("service.cache_sync", c.cache_sync.name());
        if self.fleet {
            let r = self.router_config(Endpoint::Unix(PathBuf::new()));
            out.fact("router.shards", r.shards);
            out.fact("router.vnodes", r.vnodes);
            out.fact("router.batch_window_ms", BATCH_WINDOW.as_millis());
            out.fact("router.fair_slots", r.fair_slots);
            out.fact("router.chaos", r.chaos);
            out.fact("router.health_interval_ms", r.health_interval.as_millis());
            out.fact(
                "router.backend",
                "InProcessBackend, one store directory per slot",
            );
        }
    }
}

/// What the client threads of one closed loop share.
struct LoopSpec<'a> {
    endpoint: &'a Endpoint,
    seed: u64,
    hot_src: &'a [String],
    /// Each segment starts when the clients and the measuring thread have
    /// all reached `start`, and ends when they have all reached `end`.
    start: &'a Barrier,
    end: &'a Barrier,
    /// Time budget of one segment.
    budget: Duration,
    trace: bool,
    command: &'a str,
}

/// Sends client `c`'s stream, one request at a time, for each segment's
/// time budget. When tracing, every other request is traced: a root span
/// carrying the request id around the client round trip. A client that
/// cannot connect still keeps step with the segments, so that no other
/// thread waits for it forever.
fn client_loop(
    spec: &LoopSpec,
    c: usize,
    trace_path: &Path,
) -> Result<(Vec<Record>, SelfTimes), String> {
    let (n, m) = SHAPE;
    let name = format!("perfbench-c{c}");
    let mut client = Client::connect_endpoint(spec.endpoint)
        .map_err(|e| format!("client {c} cannot connect: {e}"));
    let mut stream = Stream::new(spec.seed, c, spec.hot_src.len());
    let tr = Trace::new(spec.trace);
    let mut records = Vec::new();
    for seg in 0..SEGMENTS {
        spec.start.wait();
        let t_seg = Instant::now();
        while let (Ok(client), true) = (&mut client, t_seg.elapsed() < spec.budget) {
            let pick = stream.next_pick();
            let fresh_src;
            let mut gen_cpu_ms = 0.0;
            let src = match pick {
                Pick::Hot(i) => &spec.hot_src[i],
                Pick::Fresh(s) => {
                    let c0 = thread_cpu_ms();
                    fresh_src = program_to_dsl(&generated(s));
                    gen_cpu_ms = thread_cpu_ms() - c0;
                    &fresh_src
                }
            };
            let id = (records.len() * CLIENTS + c) as u64;
            let traced = spec.trace && records.len() % 2 == 1;
            let root = if traced {
                tr.root("request")
            } else {
                Span::disabled()
            };
            root.add("request_id", id);
            root.add("fresh", matches!(pick, Pick::Fresh(_)) as u64);
            let rt = root.child("client.round_trip");
            let t0 = Instant::now();
            let resp = client.submit(layers::submit(src, n, m, &name));
            let rtt_ms = ms_since(t0);
            drop(rt);
            drop(root);
            records.push(Record {
                id,
                pick,
                rtt_ms,
                traced,
                reply: reply(resp),
                seg,
                gen_cpu_ms,
            });
        }
        spec.end.wait();
    }
    drop(client?);
    let times = tr.finish(trace_path, spec.command)?;
    Ok((records, times))
}

/// The fingerprint a submission's reply carries, or why it has none.
fn reply(resp: Result<Response, ProtoError>) -> Result<u64, String> {
    match resp {
        Ok(Response::Done(o)) if o.executed => Ok(o.fingerprint),
        Ok(Response::Done(o)) => Err(format!("not executed: {}", o.plan)),
        Ok(Response::Err(e)) => Err(format!("{:?}: {}", e.code, e.message)),
        Ok(other) => Err(format!("unexpected reply {other:?}")),
        Err(e) => Err(e.to_string()),
    }
}

/// One fresh program sent alone between two loop segments.
struct Probe {
    seed: u64,
    /// Process CPU time from send to reply, in ms: with one request in
    /// flight, the request's own cost.
    cpu_ms: f64,
    /// Calibration job time measured after the probe's segment, in ms.
    job_ms: f64,
    rtt_ms: f64,
    reply: Result<u64, String>,
}

/// Sends never-seen programs one at a time on a connection of its own,
/// while the loop's clients wait. Their sizes cycle through the size
/// class whatever the seed, as in the hot set.
struct Prober {
    client: Client,
    rng: Rng,
    sent: u64,
}

impl Prober {
    fn new(endpoint: &Endpoint, seed: u64) -> Result<Prober, String> {
        Ok(Prober {
            client: Client::connect_endpoint(endpoint)
                .map_err(|e| format!("probe cannot connect: {e}"))?,
            rng: Rng::derive(seed, 200),
            sent: 0,
        })
    }

    /// Sends one fresh program; `job_ms` is left for the caller.
    fn probe(&mut self) -> Probe {
        let (n, m) = SHAPE;
        // `generated` draws the size from the seed: pick the seed whose
        // size is the next of the cycle.
        let seed = (self.rng.next_u64() >> 8) * LOOP_SPAN + self.sent % LOOP_SPAN;
        self.sent += 1;
        let src = program_to_dsl(&generated(seed));
        let c0 = process_cpu_ms();
        let t0 = Instant::now();
        let resp = self
            .client
            .submit(layers::submit(&src, n, m, "perfbench-probe"));
        let rtt_ms = ms_since(t0);
        Probe {
            seed,
            cpu_ms: process_cpu_ms() - c0,
            job_ms: f64::NAN,
            rtt_ms,
            reply: reply(resp),
        }
    }
}

/// Reference fingerprints of the fresh programs `seeds`, computed on
/// `CLIENTS` threads.
fn fresh_references(seeds: impl IntoIterator<Item = u64>) -> BTreeMap<u64, u64> {
    let seeds: Vec<u64> = seeds
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let (n, m) = SHAPE;
    let chunk = seeds.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&sd| {
                            (
                                sd,
                                mdf_sim::run_original(&generated(sd), n, m).0.fingerprint(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

pub fn run(args: &Args, fleet: bool, cal: &mut Calibration) -> Result<Outcome, String> {
    let (n, m) = SHAPE;
    let mut out = Outcome::default();
    let hot = hot_set(args.seed);
    let hot_src: Vec<String> = hot.iter().map(program_to_dsl).collect();
    let hot_ref: Vec<u64> = hot
        .iter()
        .map(|p| mdf_sim::run_original(p, n, m).0.fingerprint())
        .collect();
    let hot_ref: Vec<u64> = if args.corrupt_reference {
        hot_ref.iter().map(|r| r ^ 1).collect()
    } else {
        hot_ref
    };

    let dir = args.private_dir(if fleet { "fleet" } else { "service" })?;
    let mut launcher = Launcher {
        fleet,
        dir: dir.clone(),
        boots: 0,
    };
    launcher.facts(&mut out);

    // Prime the store with the hot set, as an earlier daemon run would
    // have, so every timed boot loads real entries.
    {
        let (target, _) = launcher.boot()?;
        let mut client = Client::connect_endpoint(&target.endpoint())
            .map_err(|e| format!("cannot connect: {e}"))?;
        for src in &hot_src {
            match client.submit(layers::submit(src, n, m, "perfbench-prime")) {
                Ok(Response::Done(_)) => {}
                other => return Err(format!("priming request failed: {other:?}")),
            }
        }
        drop(client);
        target.drain();
    }
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_ratio = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let (target, secs) = launcher.boot()?;
        setup_s.push(secs);
        if !args.trace {
            setup_ratio.push(secs * 1e3 / cal.measure(BOOT_CAL_JOBS));
        }
        if rep + 1 < SETUP_REPS {
            target.drain();
        } else {
            live = Some(target);
        }
    }
    let target = live.ok_or("no target booted")?;

    let loop_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let budget = Duration::from_secs_f64(loop_secs / SEGMENTS as f64);
    let endpoint = target.endpoint();
    let before = target.service_stats();
    let fleet_before = match &target {
        Target::Fleet(r) => Some(r.fleet_stats()),
        Target::Daemon(_) => None,
    };
    let (start, end) = (Barrier::new(CLIENTS + 1), Barrier::new(CLIENTS + 1));
    let command = args.command();
    let spec = LoopSpec {
        endpoint: &endpoint,
        seed: args.seed,
        hot_src: &hot_src,
        start: &start,
        end: &end,
        budget,
        trace: args.trace,
        command: &command,
    };
    // Per segment: process CPU time and wall time of the segment, and the
    // calibration job's time measured right after it and its probes,
    // while the clients wait. The traced run sends no probes.
    let mut segs: Vec<(f64, f64, f64)> = Vec::with_capacity(SEGMENTS);
    let mut probes = Vec::with_capacity(SEGMENTS * PROBES_PER_SEGMENT);
    let mut prober = match args.trace {
        true => None,
        false => Some(Prober::new(&endpoint, args.seed)?),
    };
    let results: Vec<Result<(Vec<Record>, SelfTimes), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (spec, path) = (&spec, args.trace_file(&format!("client{c}")));
                s.spawn(move || client_loop(spec, c, &path))
            })
            .collect();
        for _ in 0..SEGMENTS {
            let c0 = process_cpu_ms();
            start.wait();
            let t0 = Instant::now();
            end.wait();
            let wall_s = t0.elapsed().as_secs_f64();
            let cpu_ms = process_cpu_ms() - c0;
            let mut job_ms = f64::NAN;
            if let Some(prober) = &mut prober {
                let first = probes.len();
                probes.extend((0..PROBES_PER_SEGMENT).map(|_| prober.probe()));
                job_ms = cal.measure(SEGMENT_CAL_JOBS);
                for p in &mut probes[first..] {
                    p.job_ms = job_ms;
                }
            }
            segs.push((cpu_ms, wall_s, job_ms));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let loop_s: f64 = segs.iter().map(|s| s.1).sum();
    let after = target.service_stats();
    let fleet_after = match &target {
        Target::Fleet(r) => Some(r.fleet_stats()),
        Target::Daemon(_) => None,
    };
    drop(prober);
    target.drain();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;

    let mut per_client = Vec::new();
    let mut times = SelfTimes::default();
    for r in results {
        let (records, t) = r?;
        per_client.push(records);
        times.merge(t);
    }
    // Request order: the clients' first requests, then their second ones,
    // and so on.
    let longest = per_client.iter().map(Vec::len).max().unwrap_or(0);
    let records: Vec<&Record> = (0..longest)
        .flat_map(|i| per_client.iter().filter_map(move |v| v.get(i)))
        .collect();

    // Check every reply.
    let fresh_seeds = records.iter().filter_map(|r| match r.pick {
        Pick::Fresh(s) => Some(s),
        Pick::Hot(_) => None,
    });
    let fresh_ref = fresh_references(fresh_seeds.chain(probes.iter().map(|p| p.seed)));
    let reference = |p: Pick| match p {
        Pick::Hot(i) => hot_ref[i],
        Pick::Fresh(s) => fresh_ref[&s],
    };
    let replies = records
        .iter()
        .map(|r| (&r.reply, reference(r.pick)))
        .chain(probes.iter().map(|p| (&p.reply, fresh_ref[&p.seed])));
    let mut failed = 0;
    for (reply, reference) in replies {
        match reply {
            Ok(fp) if *fp == reference => {}
            Ok(fp) => {
                return Err(format!(
                    "wrong answer: fingerprint {fp:#x}, reference {reference:#x}"
                ))
            }
            Err(e) => {
                if failed == 0 {
                    eprintln!("perfbench: first failed request: {e}");
                }
                failed += 1;
            }
        }
    }
    out.attempted = (records.len() + probes.len()) as u64;
    out.failed = failed;

    let is_fresh = |r: &&&Record| matches!(r.pick, Pick::Fresh(_));
    let mut rtt: Vec<f64> = records.iter().map(|r| r.rtt_ms).collect();
    let mut fresh: Vec<f64> = records.iter().filter(is_fresh).map(|r| r.rtt_ms).collect();
    let fresh_count = fresh.len();
    if !args.trace {
        // The target's CPU time over the loop (making the fresh programs
        // is the benchmark's work, not the target's), over the job times
        // of its requests: each request counts the job time measured
        // after its segment. A segment's CPU time per request varies too
        // much for a median over segments.
        let (mut loop_cpu_ms, mut jobs_ms, mut sent) = (0.0, 0.0, 0);
        for (k, &(cpu_ms, _, job_ms)) in segs.iter().enumerate() {
            let in_seg = records.iter().filter(|r| r.seg == k);
            let (n, gen_ms) = in_seg.fold((0, 0.0), |(n, g), r| (n + 1, g + r.gen_cpu_ms));
            loop_cpu_ms += cpu_ms - gen_ms;
            jobs_ms += n as f64 * job_ms;
            sent += n;
        }
        out.set(
            "cpu_ms_per_op",
            crate::calib::REFERENCE_MS * loop_cpu_ms / jobs_ms,
        );
        let mut probe_ratio: Vec<f64> = probes.iter().map(|p| p.cpu_ms / p.job_ms).collect();
        out.set("fresh_cpu_ms.p50", scaled(&mut probe_ratio));
        out.set("setup_s", scaled(&mut setup_ratio) / 1e3);
        let mut cpu: Vec<f64> = probes.iter().map(|p| p.cpu_ms).collect();
        out.fact("raw.cpu_ms_per_op", loop_cpu_ms / sent.max(1) as f64);
        out.fact("raw.fresh_cpu_ms.p50", median(&mut cpu));
        out.fact("raw.setup_s", median(&mut setup_s));
        out.fact("calibration.job_ms", cal.job_ms());
        out.fact("calibration.jobs", cal.samples());
        let mut probe_rtt: Vec<f64> = probes.iter().map(|p| p.rtt_ms).collect();
        out.fact("fresh_probes", probes.len());
        out.fact("fresh_probe_latency_ms.p50", median(&mut probe_rtt));
    }
    // Wall times, printed but not bounded: with the clients, workers and
    // shards all sharing the host's cores they follow the host's load
    // (see METRICS.md).
    out.fact("latency_ms.p50", median(&mut rtt));
    out.fact("latency_ms.p90", quantile(&mut rtt, 0.9));
    out.fact("latency_ms.p99", quantile(&mut rtt, 0.99));
    out.fact("fresh_latency_ms.p50", median(&mut fresh));
    out.fact(
        "throughput_rps",
        (records.len() as u64 - failed) as f64 / loop_s,
    );
    out.fact("requests", records.len());
    out.fact("latency_samples", rtt.len());
    out.fact("fresh_samples", fresh_count);
    out.fact("error_rate", failed as f64 / out.attempted.max(1) as f64);
    out.fact("clients", CLIENTS);
    out.fact("loop", "closed");
    out.fact("request_shape", format!("{n}x{m}"));
    out.fact("engine", "kernel");
    out.fact("hot_set", hot.len());
    out.fact("fresh_share_target", FRESH_SHARE);
    out.fact("setup_reps", SETUP_REPS);

    if args.trace {
        let d = |f: fn(&ServiceStats) -> u64| (f(&after) - f(&before)) as f64;
        let lookups = d(|s| s.cache_hits) + d(|s| s.cache_misses);
        out.set(
            "service.cache_hit_rate",
            d(|s| s.cache_hits) / lookups.max(1.0),
        );
        out.set("service.cache_rejected", d(|s| s.cache_rejected));
        out.set("service.overload_rejections", d(|s| s.overload_rejections));
        out.set("service.deadline_expiries", d(|s| s.deadline_expiries));
        out.set("service.recoveries", d(|s| s.recoveries));
        out.set(
            "service.fresh_share",
            fresh_count as f64 / records.len().max(1) as f64,
        );
        router_metrics(&mut out, fleet_before.as_ref(), fleet_after.as_ref());

        let mut untraced: Vec<f64> = records
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.rtt_ms)
            .collect();
        let mut traced: Vec<f64> = records
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.rtt_ms)
            .collect();
        let untraced_p50 = median(&mut untraced);
        out.set("trace.overhead_ratio", median(&mut traced) / untraced_p50);

        let replay_budget = Duration::from_secs_f64(args.seconds - loop_secs);
        let replay = replay(
            args,
            &hot_src,
            &hot_ref,
            &fresh_ref,
            &records,
            replay_budget,
        )?;
        times.merge(replay.times);
        out.set("service.residue_ms", untraced_p50 - replay.median_ms);
        out.fold_spans(&times);
        let per = |name: &str| times.mean_us(name) / 1e3;
        let (tn, t1, chk) = (
            per("kernel.exec"),
            per("kernel.exec_t1"),
            per("kernel.exec_checked"),
        );
        let k = replay.requests as f64;
        out.set("ir.loops", replay.loops as f64 / k);
        out.set("graph.edges", replay.edges as f64 / k);
        out.set("core.degradations", replay.degradations as f64);
        out.set("kernel.exec_ms.t1", t1);
        out.set("kernel.exec_ms.tn", tn);
        out.set("kernel.scaling", t1 / tn);
        out.set("kernel.checked_exec_ms.tn", chk);
        out.set("kernel.unchecked_gain", chk / tn);
        let barriers = replay.barriers as f64 / k;
        let instances = replay.instances as f64 / k;
        out.set("kernel.barriers", barriers);
        out.set("kernel.instances", instances);
        out.set("kernel.ns_per_instance", tn * 1e6 / instances.max(1.0));
        out.set(
            "kernel.lost_us_per_barrier",
            (tn - t1 / nproc() as f64) * 1e3 / barriers.max(1.0),
        );
        for (name, v) in [
            ("kernel.fronts", replay.tiles[0]),
            ("kernel.waves", replay.tiles[1]),
            ("kernel.elided", replay.tiles[2]),
            ("kernel.serial_waves", replay.tiles[3]),
        ] {
            out.set(name, v as f64 / k);
        }
        out.set("sim.unfused_ms", replay.hot_unfused_ms);
        out.set("sim.unfused_barriers", replay.hot_unfused_barriers as f64);
        out.set("sim.fused_ms", replay.hot_fused_ms);
        out.set(
            "sim.fusion_ratio",
            replay.hot_unfused_ms / replay.hot_fused_ms,
        );
        out.fact("replayed_requests", replay.requests);
        out.fact("trace_spans", times.spans);
    }
    Ok(out)
}

fn router_metrics(
    out: &mut Outcome,
    before: Option<&mdf_service::FleetStats>,
    after: Option<&mdf_service::FleetStats>,
) {
    let (Some(b), Some(a)) = (before, after) else {
        for name in [
            "router.batch_ratio",
            "router.reroutes",
            "router.fair_rejections",
            "router.shard_skew",
        ] {
            out.set(name, 0.0);
        }
        return;
    };
    let groups = (a.batched_groups - b.batched_groups) as f64;
    let batched = (a.batched_submits - b.batched_submits) as f64;
    // Groups of one are not counted as batched submits: a ratio of 0
    // means no request ever shared a leader.
    out.set(
        "router.batch_ratio",
        if groups > 0.0 { batched / groups } else { 0.0 },
    );
    out.set("router.reroutes", (a.reroutes - b.reroutes) as f64);
    out.set(
        "router.fair_rejections",
        (a.fair_rejections - b.fair_rejections) as f64,
    );
    let routed: Vec<f64> = a
        .shards
        .iter()
        .zip(&b.shards)
        .map(|(x, y)| (x.routed - y.routed) as f64)
        .collect();
    let mean = routed.iter().sum::<f64>() / routed.len().max(1) as f64;
    let max = routed.iter().copied().fold(0.0, f64::max);
    out.set(
        "router.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

/// Totals of the in-process replay.
#[derive(Default)]
struct Replay {
    times: SelfTimes,
    median_ms: f64,
    requests: u64,
    loops: u64,
    edges: u64,
    degradations: u64,
    barriers: u64,
    instances: u64,
    tiles: [u64; 4],
    hot_unfused_ms: f64,
    hot_unfused_barriers: u64,
    hot_fused_ms: f64,
}

/// Runs of each hot program per interpreter for the `sim.*` metrics.
const SIM_REPS: usize = 5;

/// Median wall time of `SIM_REPS` calls of `f`, in ms, and its last result.
fn sim_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SIM_REPS);
    let mut last = None;
    for _ in 0..SIM_REPS {
        let t0 = Instant::now();
        last = Some(f());
        times.push(ms_since(t0));
    }
    (median(&mut times), last.expect("SIM_REPS is positive"))
}

/// Replays recorded requests, in request order and within `budget`,
/// through the layer calls the daemon makes for them: parse, extract,
/// fingerprint, plan-cache lookup (plan + check + insert on a miss),
/// certify, lower, arm (or revalidate a cached certificate), execute and
/// the codec. Each replayed request is one root span carrying the same
/// request id as its round trip. The kernel then also runs at one worker
/// and unarmed, outside the replay's own time.
fn replay(
    args: &Args,
    hot_src: &[String],
    hot_ref: &[u64],
    fresh_ref: &BTreeMap<u64, u64>,
    records: &[&Record],
    budget: Duration,
) -> Result<Replay, String> {
    let (n, m) = SHAPE;
    let threads = nproc();
    let tr = Trace::new(true);
    let mut cache = PlanCache::new(CACHE_CAPACITY);
    let mut out = Replay::default();
    // Warm the cache with the hot set, as the daemon's store does, and
    // time both reference interpreters on it for the `sim.*` metrics.
    for src in hot_src {
        let off = Span::disabled();
        let (program, graph) = layers::parse(src, &off)?;
        let key = layers::fingerprint(&graph, &off);
        let (plan, _) = layers::plan(&graph, &off)?;
        cache.insert(key, &graph, &plan);
        let mut low = layers::lower(&program, &graph, &plan, n, m, &off)?;
        let cert = layers::arm(&mut low.kernel, low.mode, &off)?;
        cache.attach_cert(key, cert);
        let aligned = mdf_sim::align_plan_to_program(&graph, &program, &plan)
            .ok_or("hot program does not realize its graph")?;
        let (ms, (_, stats)) = sim_median(|| mdf_sim::run_original(&program, n, m));
        out.hot_unfused_ms += ms;
        out.hot_unfused_barriers += stats.barriers;
        let (ms, _) = sim_median(|| match &aligned {
            FusionPlan::FullParallel { .. } => mdf_sim::run_fused(&low.spec, n, m),
            FusionPlan::Hyperplane { wavefront, .. } => {
                mdf_sim::run_wavefront(&low.spec, *wavefront, n, m)
            }
        });
        out.hot_fused_ms += ms;
    }

    let mut replay_ms = Vec::new();
    let t_start = Instant::now();
    for r in records {
        if t_start.elapsed() >= budget {
            break;
        }
        let (src, reference) = match r.pick {
            Pick::Hot(i) => (hot_src[i].clone(), hot_ref[i]),
            Pick::Fresh(s) => (program_to_dsl(&generated(s)), fresh_ref[&s]),
        };
        let root = tr.root("replay");
        root.add("request_id", r.id);
        let t0 = Instant::now();
        let (program, graph) = layers::parse(&src, &root)?;
        let key = layers::fingerprint(&graph, &root);
        let s = root.child("service.cache_lookup");
        let looked = cache.lookup(key, &graph, false);
        drop(s);
        let (plan, cert) = match looked {
            CacheLookup::Hit(plan, cert, _) => (plan, cert),
            CacheLookup::Rejected | CacheLookup::Miss => {
                let (plan, d) = layers::plan(&graph, &root)?;
                out.degradations += d;
                let s = root.child("service.cache_insert");
                cache.insert(key, &graph, &plan);
                drop(s);
                (plan, None)
            }
        };
        let mut low = layers::lower(&program, &graph, &plan, n, m, &root)?;
        let revalidated = cert.is_some_and(|c| {
            let _s = root.child("analyze.revalidate");
            low.kernel.arm_with_cert(low.mode, c)
        });
        if !revalidated {
            let cert = layers::arm(&mut low.kernel, low.mode, &root)?;
            cache.attach_cert(key, cert);
        }
        let (mem, stats) = layers::exec(&low.kernel, low.mode, threads, &root, "kernel.exec");
        let fp = mem.fingerprint();
        layers::codec(&src, n, m, fp, &root)?;
        replay_ms.push(ms_since(t0));
        if fp != reference {
            return Err(format!(
                "replay: fingerprint {fp:#x}, reference {reference:#x}"
            ));
        }

        let _ = layers::exec(&low.kernel, low.mode, 1, &root, "kernel.exec_t1");
        let checked = CompiledKernel::compile(&low.spec, n, m).map_err(|e| e.to_string())?;
        let _ = layers::exec(&checked, low.mode, threads, &root, "kernel.exec_checked");
        drop(root);

        out.requests += 1;
        out.loops += program.loops.len() as u64;
        out.edges += graph.edge_count() as u64;
        out.barriers += stats.barriers;
        out.instances += stats.stmt_instances;
        if let Some(tp) = low.kernel.tile_plan(low.mode) {
            out.tiles[0] += tp.fronts();
            out.tiles[1] += tp.waves();
            out.tiles[2] += tp.elided();
            out.tiles[3] += tp.serial_waves(threads);
        }
    }
    if out.requests == 0 {
        return Err("replay budget too small for a single request".into());
    }
    out.median_ms = median(&mut replay_ms);
    out.times = tr.finish(&args.trace_file("replay"), &args.command())?;
    Ok(out)
}
