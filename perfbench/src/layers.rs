//! The traced run (`--trace 1`): times the public calls into each layer
//! of the program around the workloads' fixtures, then runs a slice of
//! each workload with the program's own instruments on, and reports
//! every per-layer metric.
//!
//! Timings are medians over repetitions. Counts come from the faulted
//! and heal slices, whose size depends only on `--seconds`, so they
//! compare across runs; the saturated slice gives rates and means.

use crate::fixture::{self, Requests, SUBSTRATE};
use crate::heal::{self, Bench, Stop};
use crate::report::{median, ms, percentile, Outcome};
use crate::serving::{self, Container, BATCH_MAX, CACHE_PAGES, RATE_RPS};
use milr_core::Milr;
use milr_integrity::{IntegrityPipeline, ModelHost, Volatile};
use milr_nn::Sequential;
use milr_serve::{cold_start, ServerConfig};
use milr_store::Store;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions every timed call gets at least.
const MIN_REPS: usize = 5;

/// Median wall time of `f` in milliseconds, over at least [`MIN_REPS`]
/// calls and at least `spend`. `prepare` builds each call's input
/// outside the timed region.
fn time_ms<T, R>(
    spend: Duration,
    mut prepare: impl FnMut(usize) -> T,
    mut f: impl FnMut(T) -> R,
) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_REPS || start.elapsed() < spend {
        let input = prepare(samples.len());
        let t = Instant::now();
        let out = black_box(f(black_box(input)));
        samples.push(ms(t.elapsed()));
        drop(out);
    }
    median(&samples)
}

/// The parameterized layer of `kind` with the most parameters.
fn largest(model: &Sequential, kind: &str) -> usize {
    model
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.kind_name() == kind)
        .max_by_key(|(_, l)| l.param_count())
        .map(|(i, _)| i)
        .expect("the twin has a layer of every kind")
}

/// `golden` with every bit of one weight of `layer` flipped.
fn with_weight_fault(golden: &Sequential, layer: usize, weight: usize) -> Sequential {
    let mut model = golden.clone();
    let p = model.layers_mut()[layer]
        .params_mut()
        .expect("layer has params");
    let w = &mut p.data_mut()[weight];
    *w = f32::from_bits(!w.to_bits());
    model
}

/// Calls into nn, integrity, core and substrate on the CIFAR twin.
fn cifar_calls(o: &mut Outcome, golden: &Sequential, seed: u64, spend: Duration) {
    let req = Requests::new(golden, seed);
    let examples = &req.inputs[..BATCH_MAX];
    let stacked = golden.stack_batch(examples).expect("batch stacks");
    o.metric(
        "nn.forward_ms",
        time_ms(spend, |_| (), |()| golden.forward(&stacked)),
        "ms",
    );

    let milr = Milr::protect(golden, fixture::milr_config()).expect("golden protects");
    let host = ModelHost::new(golden, &fixture::build_shard);
    host.forward_batch(examples).expect("host runs");
    o.metric(
        "integrity.forward_batch_ms",
        time_ms(spend, |_| (), |()| host.forward_batch(examples)),
        "ms",
    );
    o.metric(
        "integrity.materialize_ms",
        time_ms(spend, |_| (), |()| host.materialize()),
        "ms",
    );
    let params = host.param_layers().to_vec();
    o.metric(
        "integrity.write_back_ms",
        time_ms(
            spend,
            |k| params[k % params.len()],
            |l| host.write_back(golden, &[l]),
        ),
        "ms",
    );
    o.metric(
        "core.protect_ms",
        time_ms(
            spend,
            |_| (),
            |()| Milr::protect(golden, fixture::milr_config()),
        ),
        "ms",
    );
    o.metric(
        "core.detect_ms",
        time_ms(spend, |_| (), |()| milr.detect(golden)),
        "ms",
    );
    for (name, kind) in [
        ("core.recover_conv_ms", "Conv2D"),
        ("core.recover_dense_ms", "Dense"),
        ("core.recover_bias_ms", "Bias"),
    ] {
        let layer = largest(golden, kind);
        let mut rng = fixture::rng(seed, 6);
        let n = golden.layers()[layer].param_count();
        let t = time_ms(
            spend,
            |_| with_weight_fault(golden, layer, fixture::below(&mut rng, n)),
            |mut model| milr.recover_layers(&mut model, &[layer]),
        );
        o.metric(name, t, "ms");
    }
    let weights: Vec<&[f32]> = golden
        .layers()
        .iter()
        .filter_map(|l| l.params().map(|p| p.data()))
        .collect();
    o.metric(
        "substrate.encode_ms",
        time_ms(
            spend,
            |_| (),
            |()| {
                weights
                    .iter()
                    .map(|w| SUBSTRATE.store(w))
                    .collect::<Vec<_>>()
            },
        ),
        "ms",
    );
}

/// Calls into integrity, core, substrate and store on the MNIST twin,
/// the network `serve_faulted` serves.
fn mnist_calls(o: &mut Outcome, golden: &Sequential, spend: Duration) {
    let milr = Milr::protect(golden, fixture::milr_config()).expect("golden protects");
    let host = ModelHost::new(golden, &fixture::build_shard);
    let chunks: Vec<Vec<usize>> = milr
        .checkable_layers()
        .chunks(ServerConfig::default().layers_per_tick)
        .map(<[usize]>::to_vec)
        .collect();
    let mut pipeline = IntegrityPipeline::new(
        milr_integrity::EscalationPolicy::Quarantine,
        milr_integrity::Budget::default(),
    );
    o.metric(
        "integrity.tick_ms",
        time_ms(
            spend,
            |k| &chunks[k % chunks.len()],
            |chunk| {
                pipeline
                    .tick(&host, &milr, chunk, &mut Volatile)
                    .expect("clean host ticks")
            },
        ),
        "ms",
    );
    o.metric(
        "core.detect_layers_ms",
        time_ms(
            spend,
            |k| &chunks[k % chunks.len()],
            |chunk| milr.detect_layers(golden, chunk).expect("golden detects"),
        ),
        "ms",
    );
    o.metric(
        "substrate.scrub_ms",
        time_ms(spend, |_| (), |()| host.store().scrub()),
        "ms",
    );
    let container = Container::new("layers");
    o.metric(
        "store.create_ms",
        time_ms(spend, |_| (), |()| container.create(golden)),
        "ms",
    );
    o.metric(
        "store.cold_start_ms",
        time_ms(
            spend,
            |_| (),
            |()| {
                let mut store = Store::open(container.path()).expect("container opens");
                cold_start(&mut store, CACHE_PAGES).expect("clean container cold-starts")
            },
        ),
        "ms",
    );
}

/// The traced run: every per-layer metric.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let secs = budget.as_secs().max(1);
    // Share of the run each timed call may take, and slice sizes. The
    // traced saturated slice runs for `budget`, as the untraced run
    // does, so the two throughputs cover the same span of work (the
    // server keeps every answered request).
    let spend = budget / 60;
    let faulted_requests = RATE_RPS * secs / 4;
    let heal_rounds = secs.div_ceil(5);

    let mut o = Outcome::new();
    let cifar = fixture::cifar();
    let mnist = fixture::mnist();
    cifar_calls(&mut o, &cifar, seed, spend);
    mnist_calls(&mut o, &mnist, spend);

    // serve_saturated with the server's span sink attached.
    let mut req = Requests::new(&cifar, seed);
    let server = serving::start_saturated(&cifar, &req, Some(serving::span_sink()));
    let load = serving::closed_loop(&server, &mut req, budget);
    let snapshot = server.metrics_snapshot();
    let report = server.shutdown();
    // This slice runs for a time, not a count, so its requests stay out
    // of `attempted`, which keeps `failed / attempted` fixed for a given
    // `--seconds`. Its answers are checked all the same, and a refused
    // submission, which the untraced workload never saw, fails the run.
    if load.failed > 0 {
        eprintln!(
            "traced serve_saturated: {} submissions refused",
            load.failed
        );
    }
    o.correct &= load.mismatches == 0 && load.failed == 0;
    o.metric("obs.traced_throughput_rps", load.throughput_rps, "1/s");
    o.metric(
        "serve.saturated_p99_ms",
        percentile(&load.latencies_ms, 0.99),
        "ms",
    );
    o.metric("serve.batch_occupancy", report.batch_occupancy, "req/batch");
    let wait = snapshot
        .histogram_named("serve_batch_wait_ns")
        .expect("server records batch wait");
    o.metric("serve.batch_wait_mean_us", wait.mean() / 1e3, "us");

    // serve_faulted, as the workload runs it.
    let run = serving::faulted_run(&mnist, seed, faulted_requests);
    o.attempted += run.load.attempted;
    o.failed += run.load.failed;
    o.correct &= run.load.mismatches == 0;
    let hold = run
        .metrics
        .histogram_named("serve_ledger_hold_ns")
        .expect("server records ledger hold");
    o.metric("serve.ledger_hold_mean_ms", hold.mean() / 1e6, "ms");
    let r = &run.report;
    o.metric("serve.scrub_ticks", r.scrub_ticks as f64, "count");
    o.metric("serve.quarantines", r.quarantines as f64, "count");
    o.metric("serve.reexecuted", r.reexecuted as f64, "count");
    o.metric("serve.downtime_ms", r.downtime_ns as f64 / 1e6, "ms");
    o.metric("serve.generator_late_ms", run.load.worst_late_ms, "ms");
    o.metric(
        "serve.faulted_p99_ms",
        percentile(&run.load.latencies_ms, 0.99),
        "ms",
    );
    o.metric("store.anchors", r.pipeline.anchors as f64, "count");
    let st = &r.pipeline.stage_ns;
    for (name, ns) in [
        ("integrity.stage_scrub_ms", st.scrub),
        ("integrity.stage_detect_ms", st.detect),
        ("integrity.stage_heal_ms", st.heal),
        ("integrity.stage_verify_ms", st.verify),
        ("integrity.stage_reprotect_ms", st.reprotect),
        ("integrity.stage_anchor_ms", st.anchor),
    ] {
        o.metric(name, ns as f64 / 1e6, "ms");
    }

    // heal_sweep.
    let bench = Bench::new(cifar, seed);
    let sweep = heal::run_sweep(&bench, seed, Stop::Rounds(heal_rounds));
    o.attempted += sweep.attempted;
    o.failed += sweep.failed;
    o.correct &= sweep.out_of_band == 0;
    o.metric(
        "integrity.heal_rounds",
        sweep.heal_rounds as f64 / sweep.attempted as f64,
        "count",
    );
    o.metric(
        "integrity.heal_p90_ms",
        percentile(&sweep.latencies_ms, 0.90),
        "ms",
    );
    o.metric(
        "integrity.inexact_heals",
        sweep.inexact as f64 / sweep.rounds as f64,
        "count",
    );
    o
}
