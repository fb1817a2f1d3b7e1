//! The two serving workloads: the live threaded `Server`, driven by one
//! load-generator thread (plus one collector in the open loop), every
//! certified answer compared bit for bit with the reference forward.

use crate::fixture::{self, bit_equal, Requests, SUBSTRATE};
use crate::report::{
    eprint_tails, median, ms, timed_setups, windowed_percentile, Outcome, WINDOWS,
};
use milr_nn::Sequential;
use milr_obs::{MetricsSnapshot, SpanHandle, SpanRing};
use milr_serve::{ResponseHandle, ServeError, ServeReport, Server, ServerConfig};
use milr_store::{journal_path, shadow_path, Store, StoreOptions};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests coalesced into one batch.
pub const BATCH_MAX: usize = 8;
/// Closed-loop requests kept outstanding in `serve_saturated`: enough to
/// keep every worker busy through a certification hold. With 16, the
/// loop measured 16 ÷ certification latency, i.e. the scrub cycle.
pub const OUTSTANDING: usize = 128;
/// Open-loop arrival rate of `serve_faulted`, well below saturation.
pub const RATE_RPS: u64 = 500;
/// `serve_faulted` injects one whole-weight fault after every this many
/// submitted requests (counted, not timed, so every run sees the same
/// number of faults at the same points of its schedule).
pub const FAULT_EVERY: u64 = 250;
/// Conv layers of the MNIST twin that `serve_faulted` faults, in turn.
/// Conv 7 is left out: its heals are not bit-exact (README.md).
pub const FAULT_LAYERS: [usize; 2] = [0, 3];
/// Share of [`RATE_RPS`] the server must answer at for a `serve_faulted`
/// run to count: below it the server fell behind the open loop, and the
/// latencies measure a growing queue rather than the workload.
pub const KEEP_UP: f64 = 0.95;
/// Container pages the store-backed server caches.
pub const CACHE_PAGES: usize = 64;
/// Span ring capacity of the traced server.
const SPAN_RING: usize = 4096;

/// At most two workers, never more than the machine has cores.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

fn config(spans: Option<SpanHandle>) -> ServerConfig {
    ServerConfig {
        workers: workers(),
        batch_max: BATCH_MAX,
        substrate: SUBSTRATE,
        spans,
        ..ServerConfig::default()
    }
}

/// A fresh span sink for a traced server.
pub fn span_sink() -> SpanHandle {
    SpanHandle::new(Arc::new(SpanRing::new(SPAN_RING)))
}

/// Submits one full batch and waits for its certified answers, so the
/// decode cache is warm before the first timed request.
fn warm_up(server: &Server, req: &Requests) {
    let handles: Vec<ResponseHandle> = req.inputs[..BATCH_MAX]
        .iter()
        .map(|x| server.submit(x.clone()).expect("idle server admits"))
        .collect();
    for h in handles {
        h.wait().expect("warm-up request is served");
    }
}

/// What a load loop saw.
#[derive(Debug, Default)]
pub struct Load {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Timed latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Timed answers per second, from the first due or submit time to
    /// the last timed answer.
    pub throughput_rps: f64,
    /// Worst lateness of the open-loop generator, milliseconds.
    pub worst_late_ms: f64,
}

impl Load {
    fn outcome(&self, setup_s: f64) -> Outcome {
        let mut o = Outcome::new();
        o.attempted = self.attempted;
        o.failed = self.failed;
        o.correct = self.mismatches == 0;
        o.metric("setup_s", setup_s, "s");
        o.metric("throughput_rps", self.throughput_rps, "1/s");
        o.metric(
            "latency_p50_ms",
            windowed_percentile(&self.latencies_ms, 0.50, WINDOWS),
            "ms",
        );
        o
    }
}

/// Closed loop: keeps [`OUTSTANDING`] requests in flight, waits for the
/// oldest, submits the next, until `budget` is spent. Latency runs from
/// submit to certified answer; only answers inside the budget are timed.
pub fn closed_loop(server: &Server, req: &mut Requests, budget: Duration) -> Load {
    let mut load = Load::default();
    let mut pending: VecDeque<(Instant, usize, ResponseHandle)> = VecDeque::new();
    let t0 = Instant::now();
    let window_end = t0 + budget;
    let mut last = t0;
    loop {
        while pending.len() < OUTSTANDING && Instant::now() < window_end {
            let i = req.next_index();
            load.attempted += 1;
            let t = Instant::now();
            match server.submit(req.inputs[i].clone()) {
                Ok(h) => pending.push_back((t, i, h)),
                Err(_) => load.failed += 1,
            }
        }
        let Some((submitted, i, handle)) = pending.pop_front() else {
            break;
        };
        match handle.wait() {
            Ok(out) => {
                let done = Instant::now();
                if !bit_equal(&out, &req.expected[i]) {
                    load.mismatches += 1;
                }
                if done <= window_end {
                    load.latencies_ms.push(ms(done - submitted));
                    last = done;
                }
            }
            Err(_) => load.failed += 1,
        }
    }
    load.throughput_rps = load.latencies_ms.len() as f64 / (last - t0).as_secs_f64();
    load
}

/// Seeded whole-weight fault positions for `serve_faulted`.
pub struct FaultPlan {
    rng: milr_tensor::TensorRng,
    sizes: Vec<usize>,
    injected: usize,
}

impl FaultPlan {
    pub fn new(golden: &Sequential, seed: u64) -> Self {
        FaultPlan {
            rng: fixture::rng(seed, 3),
            sizes: FAULT_LAYERS
                .iter()
                .map(|&l| golden.layers()[l].param_count())
                .collect(),
            injected: 0,
        }
    }

    /// The next `(layer, weight)`: layers alternate, weights are seeded.
    pub fn next_fault(&mut self) -> (usize, usize) {
        let k = self.injected % FAULT_LAYERS.len();
        self.injected += 1;
        (
            FAULT_LAYERS[k],
            fixture::below(&mut self.rng, self.sizes[k]),
        )
    }
}

/// Open loop at [`RATE_RPS`]: request `k` is due at `t0 + k / rate`
/// whatever the server is doing, and its latency runs from that due
/// time, so a stall is charged to every request it delays. A fault is
/// injected after every [`FAULT_EVERY`] submissions.
pub fn open_loop(server: &Server, req: &mut Requests, n: u64, faults: &mut FaultPlan) -> Load {
    let order: Vec<usize> = (0..n).map(|_| req.next_index()).collect();
    let req: &Requests = req;
    let period = Duration::from_secs(1) / RATE_RPS as u32;
    let (tx, rx) = mpsc::channel::<(Instant, usize, Result<ResponseHandle, ServeError>)>();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut load = Load::default();
            let mut last = t0;
            for (due, i, submitted) in rx {
                load.attempted += 1;
                match submitted.and_then(ResponseHandle::wait) {
                    Ok(out) => {
                        last = Instant::now();
                        if !bit_equal(&out, &req.expected[i]) {
                            load.mismatches += 1;
                        }
                        load.latencies_ms.push(ms(last - due));
                    }
                    Err(_) => load.failed += 1,
                }
            }
            load.throughput_rps = load.latencies_ms.len() as f64 / (last - t0).as_secs_f64();
            load
        });
        let mut worst_late = Duration::ZERO;
        for (k, &i) in order.iter().enumerate() {
            let due = t0 + period * k as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let submitted = server.submit(req.inputs[i].clone());
            worst_late = worst_late.max(Instant::now().saturating_duration_since(due));
            tx.send((due, i, submitted))
                .expect("collector outlives the generator");
            if (k as u64 + 1).is_multiple_of(FAULT_EVERY) {
                let (layer, weight) = faults.next_fault();
                server.inject_weight_fault(layer, weight);
            }
        }
        drop(tx);
        let mut load = collector.join().expect("collector thread panicked");
        load.worst_late_ms = ms(worst_late);
        load
    })
}

/// `serve_saturated`: the CIFAR-10-small twin served fault-free by
/// `Server::start`, closed loop.
pub fn saturated(seed: u64, budget: Duration) -> Outcome {
    let golden = fixture::cifar();
    let mut req = Requests::new(&golden, seed);
    let (server, mut setups) = timed_setups(|| start_saturated(&golden, &req, None));
    let load = closed_loop(&server, &mut req, budget);
    let report = server.shutdown();
    setups.extend(timed_setups(|| start_saturated(&golden, &req, None)).1);
    eprintln!(
        "serve_saturated: {} answers timed, batch occupancy {:.2}, {} scrub ticks",
        load.latencies_ms.len(),
        report.batch_occupancy,
        report.scrub_ticks
    );
    eprint_server_latency(&load, &report);
    eprint_tails("serve_saturated", &load.latencies_ms);
    load.outcome(median(&setups))
}

/// The server's own arrival-to-resolve percentiles next to the
/// harness's, which also hold the harness's in-order waits (README.md).
fn eprint_server_latency(load: &Load, report: &ServeReport) {
    let harness = |q| crate::report::percentile(&load.latencies_ms, q);
    eprintln!(
        "  latency p50/p99 ms: harness {:.2}/{:.2}, server {:.2}/{:.2}",
        harness(0.50),
        harness(0.99),
        report.latency.p50_us / 1e3,
        report.latency.p99_us / 1e3
    );
}

/// Protects `golden`, starts the server on it and warms it up.
pub fn start_saturated(golden: &Sequential, req: &Requests, spans: Option<SpanHandle>) -> Server {
    let server =
        Server::start(golden, fixture::milr_config(), config(spans)).expect("golden protects");
    warm_up(&server, req);
    server
}

/// A `.milr` container inside the benchmark's own directory, removed
/// (with its journal and shadow) on drop.
pub struct Container(PathBuf);

impl Container {
    pub fn new(name: &str) -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
        std::fs::create_dir_all(&dir).expect("work directory is writable");
        Container(dir.join(format!("{name}-{}.milr", std::process::id())))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Protects `golden` and writes it as an [`SUBSTRATE`] container.
    pub fn create(&self, golden: &Sequential) -> Store {
        Store::create(
            &self.0,
            golden,
            fixture::milr_config(),
            StoreOptions {
                kind: SUBSTRATE,
                ..StoreOptions::default()
            },
        )
        .expect("container is writable")
    }
}

impl Drop for Container {
    fn drop(&mut self) {
        for p in [self.0.clone(), journal_path(&self.0), shadow_path(&self.0)] {
            let _ = std::fs::remove_file(p);
        }
        // Fails, harmlessly, while another run's container is there.
        if let Some(dir) = self.0.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// Writes the container, cold-starts a server from it and warms it up.
pub fn start_faulted(golden: &Sequential, req: &Requests, container: &Container) -> Server {
    drop(container.create(golden));
    let (server, _) = Server::start_from_store(container.path(), CACHE_PAGES, config(None))
        .expect("a fresh container cold-starts");
    warm_up(&server, req);
    server
}

/// What a faulted serving run leaves besides its [`Load`].
pub struct FaultedRun {
    pub load: Load,
    pub setup_s: f64,
    pub report: ServeReport,
    pub metrics: MetricsSnapshot,
}

/// Runs `n` open-loop requests against the MNIST twin served from a
/// container, with faults injected by request count.
pub fn faulted_run(golden: &Sequential, seed: u64, n: u64) -> FaultedRun {
    let mut req = Requests::new(golden, seed);
    let container = Container::new("serve_faulted");
    let (server, mut setups) = timed_setups(|| start_faulted(golden, &req, &container));
    let mut faults = FaultPlan::new(golden, seed);
    let load = open_loop(&server, &mut req, n, &mut faults);
    let metrics = server.metrics_snapshot();
    let report = server.shutdown();
    setups.extend(timed_setups(|| start_faulted(golden, &req, &container)).1);
    FaultedRun {
        load,
        setup_s: median(&setups),
        report,
        metrics,
    }
}

/// `serve_faulted`: [`faulted_run`] for `budget` at [`RATE_RPS`].
pub fn faulted(seed: u64, budget: Duration) -> Outcome {
    let golden = fixture::mnist();
    let run = faulted_run(&golden, seed, budget.as_secs() * RATE_RPS);
    let r = &run.report;
    eprintln!(
        "serve_faulted: {} faults, {} quarantines, {} re-executed, downtime {:.2} ms, \
         generator up to {:.2} ms late",
        r.faults_injected,
        r.quarantines,
        r.reexecuted,
        r.downtime_ns as f64 / 1e6,
        run.load.worst_late_ms
    );
    eprint_server_latency(&run.load, r);
    eprint_tails("serve_faulted", &run.load.latencies_ms);
    let mut o = run.load.outcome(run.setup_s);
    // throughput_rps is the offered rate while the server keeps up.
    if run.load.throughput_rps < KEEP_UP * RATE_RPS as f64 {
        eprintln!(
            "serve_faulted: answered {:.1}/s of {RATE_RPS}/s offered; the server fell behind",
            run.load.throughput_rps
        );
        o.correct = false;
    }
    o
}
