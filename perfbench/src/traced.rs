//! The traced run: per-layer metrics for every workload model.
//!
//! Every layer of every workload model is replayed in order through
//! `network.layers_mut()[i].forward_infer` under in-memory spans (one
//! root span per request, one child per layer), next to untraced timings
//! of the same request path. A layer's time is its span's self time. The
//! kernels, quantized forwards, registry calls, a short serving phase and
//! a short streaming segment are timed the same way. The per-layer
//! metrics are properties of the layers, so a traced run reports all of
//! them whichever workload it is started for; the spans are written to
//! `.bench_run/spans-<workload>.csv` when the run ends.

use crate::closed::{Closed, CIFAR_BATCH, MNIST_EDGE};
use crate::common::{self, bits_eq, Res, RunDir};
use crate::report::{Json, Report};
use crate::serve_swap::{self, Ladder};
use crate::stats;
use crate::stream_gru;
use crate::trace::Tracer;
use crate::Args;
use ffdl_core::SpectralKernel;
use ffdl_deploy::InferenceEngine;
use ffdl_fft::Complex32;
use ffdl_nn::{clone_network, Network, Scratch};
use ffdl_platform::{Implementation, PowerState, RuntimeModel, HONOR_6X};
use ffdl_rng::Rng;
use ffdl_serve::{ServeConfig, Server};
use ffdl_stream::StreamEngine;
use ffdl_tensor::Tensor;
use std::hint::black_box;
use std::time::Instant;

/// Share of `--seconds` each part of the traced run gets.
const SLICE_MNIST: f64 = 0.08;
const SLICE_CIFAR: f64 = 0.35;
const SLICE_RUNG: f64 = 0.03;
const SLICE_SERVE_PROBE: f64 = 0.2;
const SLICE_STREAM: f64 = 0.05;
const SLICE_STREAM_PROBE: f64 = 0.12;
/// Fewest repetitions of any timed request, however short its slice.
const MIN_REPS: usize = 3;
/// Most repetitions of any timed request (bounds the spans kept).
const MAX_REPS: usize = 2_000;
/// Repetitions of each batch-16 forward.
const BMAX_REPS: usize = 50;
/// Repetitions of each registry call.
const REGISTRY_REPS: usize = 20;
/// The ROADMAP's acceptance band for Σ layer self time over the whole
/// forward.
const COVERAGE_BAND: f64 = 0.10;

/// One layer row of the per-layer table.
struct Row {
    tag: &'static str,
    self_us: f64,
    flops: u64,
    bytes: usize,
    est_us: f64,
}

/// The workload's own engine call, timed next to the plain forward.
type RequestFn<'a> = &'a mut dyn FnMut(&mut InferenceEngine) -> Res<()>;

/// What profiling one model at one batch measured.
struct Profile {
    rows: Vec<Row>,
    /// Median untraced `forward_batch_with`, µs.
    forward_us: f64,
    /// Median untraced request through the workload's engine call, µs.
    request_us: Option<f64>,
    /// Median traced replay (root span, children included), µs.
    traced_us: f64,
    /// Whether the layer-by-layer replay equals `forward_batch_with` bit
    /// for bit.
    identical: bool,
    /// Timed repetitions behind each median.
    reps: usize,
}

impl Profile {
    fn layer_sum(&self) -> f64 {
        self.rows.iter().map(|r| r.self_us).sum()
    }
}

/// Replays `input` through every layer of `net` in order, one span per
/// layer under one root span for request `request`.
fn replay(
    net: &mut Network,
    input: &Tensor,
    scratch: &mut Scratch,
    tracer: &mut Tracer,
    (root_name, layer_names): (usize, &[usize]),
    request: u64,
) -> Res<Tensor> {
    let root = tracer.open(root_name, None, request);
    let mut x = input.clone();
    for (layer, &name) in net.layers_mut().iter_mut().zip(layer_names) {
        let span = tracer.open(name, Some(root), request);
        let y = layer.forward_infer(&x, scratch);
        tracer.close(span);
        scratch.recycle(std::mem::replace(&mut x, y?));
    }
    tracer.close(root);
    Ok(x)
}

/// Profiles the model inside `engine` on `samples` (one batch) for about
/// `slice_s` seconds: untraced request and `forward_batch_with` timings
/// interleaved with traced layer-by-layer replays.
fn profile(
    label: &str,
    engine: &mut InferenceEngine,
    samples: &[Tensor],
    mut request: Option<RequestFn<'_>>,
    slice_s: f64,
    tracer: &mut Tracer,
) -> Res<Profile> {
    let platform = RuntimeModel::new(HONOR_6X, Implementation::Cpp, PowerState::PluggedIn);
    let refs: Vec<&Tensor> = samples.iter().collect();
    let stacked = Tensor::stack(&refs)?;
    let mut scratch = Scratch::new();
    let layers = engine.network().len();
    let root_name = tracer.name(&format!("{label}.forward"));
    let layer_names: Vec<usize> = (0..layers)
        .map(|i| tracer.name(&format!("{label}.layer.{i}")))
        .collect();

    // Warm up, check the replay against the network's own forward, and
    // size every layer's tensors.
    let reference = engine
        .network_mut()
        .forward_batch_with(&refs, &mut scratch)?;
    let replayed = replay(
        engine.network_mut(),
        &stacked,
        &mut scratch,
        tracer,
        (root_name, &layer_names),
        0,
    )?;
    let identical =
        reference.shape() == replayed.shape() && bits_eq(reference.as_slice(), replayed.as_slice());
    let mut sizes = Vec::with_capacity(layers);
    let mut x = stacked.clone();
    for layer in engine.network_mut().layers_mut() {
        let y = layer.forward_infer(&x, &mut scratch)?;
        sizes.push((x.len(), y.len()));
        x = y;
    }

    let mut request_us = Vec::new();
    let mut forward_us = Vec::new();
    let start = Instant::now();
    let mut rep = 1u64;
    while forward_us.len() < MIN_REPS
        || (forward_us.len() < MAX_REPS && start.elapsed().as_secs_f64() < slice_s)
    {
        if let Some(call) = request.as_deref_mut() {
            let t = Instant::now();
            call(engine)?;
            request_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        let out = engine
            .network_mut()
            .forward_batch_with(&refs, &mut scratch)?;
        forward_us.push(t.elapsed().as_secs_f64() * 1e6);
        scratch.recycle(out);
        let out = replay(
            engine.network_mut(),
            &stacked,
            &mut scratch,
            tracer,
            (root_name, &layer_names),
            rep,
        )?;
        scratch.recycle(out);
        rep += 1;
    }

    let self_us = tracer.median_self_us();
    let total_us = tracer.median_total_us();
    let batch = samples.len();
    let rows = engine
        .network()
        .layers()
        .iter()
        .enumerate()
        .map(|(i, layer)| Row {
            tag: layer.type_tag(),
            self_us: self_us[&format!("{label}.layer.{i}")],
            flops: layer.op_cost().flops() * batch as u64,
            bytes: 4 * (sizes[i].0 + sizes[i].1 + layer.param_count()),
            est_us: platform.estimate_layer_us(layer.as_ref()),
        })
        .collect();
    Ok(Profile {
        rows,
        forward_us: stats::median(&forward_us),
        request_us: (!request_us.is_empty()).then(|| stats::median(&request_us)),
        traced_us: total_us[&format!("{label}.forward")],
        identical,
        reps: forward_us.len(),
    })
}

/// Emits the layer rows of `p` as `layer.<label>.<i>_us` metrics and
/// table lines.
fn emit_layers(report: &mut Report, label: &str, p: &Profile, table: &mut Vec<Json>) {
    for (i, row) in p.rows.iter().enumerate() {
        report.metric(
            format!("layer.{label}.{i}_us"),
            row.self_us,
            "us",
            p.reps,
            format!("{} self time per call, median", row.tag),
        );
        report.lines.push(format!(
            "layer {label:<20} {i:>2} {:<26} self {:>11.3} us  flops {:>12}  bytes {:>10}  est(honor6x) {:>10.2} us",
            row.tag, row.self_us, row.flops, row.bytes, row.est_us
        ));
        table.push(Json::obj([
            ("model", Json::from(label)),
            ("idx", Json::from(i)),
            ("tag", Json::from(row.tag)),
            ("self_us", Json::Num(row.self_us)),
            ("flops", Json::from(row.flops)),
            ("bytes", Json::from(row.bytes)),
            ("est_us", Json::Num(row.est_us)),
        ]));
    }
}

/// Emits the whole-forward metrics of workload `w`.
fn emit_forward(report: &mut Report, w: &str, p: &Profile) {
    let n = p.reps;
    report.metric(
        format!("nn.{w}.forward_us"),
        p.forward_us,
        "us",
        n,
        "forward_batch_with, median",
    );
    report.metric(
        format!("nn.{w}.dispatch_us"),
        p.forward_us - p.layer_sum(),
        "us",
        n,
        "forward minus Σ layer self times",
    );
    emit_coverage(report, w, p.layer_sum() / p.forward_us, n);
    report.metric(
        format!("trace.{w}.overhead_share"),
        p.traced_us / p.forward_us - 1.0,
        "share",
        n,
        "traced replay over untraced forward, minus 1",
    );
}

fn emit_coverage(report: &mut Report, w: &str, coverage: f64, samples: usize) {
    let inside = (coverage - 1.0).abs() <= COVERAGE_BAND;
    report.metric(
        format!("layer.{w}.coverage"),
        coverage,
        "share",
        samples,
        "Σ layer self time / whole forward",
    );
    if !inside {
        report.lines.push(format!(
            "flag: layer.{w}.coverage {coverage:.3} is outside the ±{:.0}% target",
            COVERAGE_BAND * 100.0
        ));
    }
}

/// Profiles one closed-loop workload.
fn closed_workload(
    w: &Closed,
    args: &Args,
    slice: f64,
    tracer: &mut Tracer,
    report: &mut Report,
    table: &mut Vec<Json>,
) -> Res<()> {
    let inputs = w.inputs(args.seed)?;
    let singles: Vec<Tensor> = inputs.iter().map(common::as_batch).collect();
    let (_, mut engine) = w.setup(args.seed, &inputs, &singles)?;
    let mut call = |e: &mut InferenceEngine| w.call(e, &inputs, &singles, 0).map(|_| ());
    let p = profile(
        w.name,
        &mut engine,
        &inputs[..w.batch],
        Some(&mut call),
        slice,
        tracer,
    )?;
    report.check(
        format!("{} layer replay == forward_batch_with (bits)", w.name),
        p.identical,
        "",
    );
    emit_layers(report, w.name, &p, table);
    emit_forward(report, w.name, &p);
    let request = p.request_us.expect("closed workloads time their request");
    report.metric(
        format!("deploy.{}.screen_us", w.name),
        request - p.forward_us,
        "us",
        p.reps,
        "engine call minus forward_batch_with",
    );
    Ok(())
}

/// Median wall time of `f` over `reps` calls, µs.
fn time_us(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let s = Instant::now();
        f()?;
        t.push(s.elapsed().as_secs_f64() * 1e6);
    }
    Ok(stats::median(&t))
}

/// Profiles the serving workload: every rung's layers at batch 1, the
/// quantized forwards, the registry calls and one traced serving phase.
fn serve_workload(
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
    table: &mut Vec<Json>,
) -> Res<()> {
    let pool = common::mnist_pool(args.seed, serve_swap::POOL)?;
    let dir = RunDir::new("traced")?;
    let mut ladder = serve_swap::setup(args.seed, &dir.path().join("store"), &pool)?;
    let max_batch = ServeConfig::default().max_batch;
    let mut layer_sum = 0.0;
    let mut forward_sum = 0.0;
    let mut overhead = Vec::new();
    let mut reps = 0;
    // Forward time per (rung, batch size), to split serving latency into
    // queue wait and compute.
    let mut batch_us = vec![vec![0.0; max_batch + 1]; ladder.engines.len()];
    for (r, engine) in ladder.engines.iter_mut().enumerate() {
        let rung = serve_swap::rung_label(r);
        let label = format!("serve_swap.{rung}");
        let p = profile(
            &label,
            engine,
            &pool[..1],
            None,
            args.seconds * SLICE_RUNG,
            tracer,
        )?;
        report.check(
            format!("{label} layer replay == forward_batch_with (bits)"),
            p.identical,
            "",
        );
        emit_layers(report, &label, &p, table);
        layer_sum += p.layer_sum();
        forward_sum += p.forward_us;
        overhead.push(p.traced_us / p.forward_us - 1.0);
        reps += p.reps;
        report.metric(
            format!("quant.{rung}.forward_b1_us"),
            p.forward_us,
            "us",
            p.reps,
            "forward_batch_with, batch 1",
        );
        let mut scratch = Scratch::new();
        let refs: Vec<&Tensor> = pool[..max_batch].iter().collect();
        let bmax = time_us(BMAX_REPS, || {
            let out = engine
                .network_mut()
                .forward_batch_with(&refs, &mut scratch)?;
            scratch.recycle(out);
            Ok(())
        })?;
        report.metric(
            format!("quant.{rung}.forward_bmax_us"),
            bmax,
            "us",
            BMAX_REPS,
            format!("forward_batch_with, batch {max_batch}"),
        );
        for (b, slot) in batch_us[r].iter_mut().enumerate().skip(1) {
            *slot = time_us(15, || {
                engine
                    .predict_batch(&refs[..b])
                    .map(|_| ())
                    .map_err(Into::into)
            })?;
        }
    }
    let rungs = overhead.len() as f64;
    emit_coverage(report, "serve_swap", layer_sum / forward_sum, reps);
    report.metric(
        "nn.serve_swap.forward_us",
        forward_sum / rungs,
        "us",
        reps,
        "forward_batch_with at batch 1, mean over rungs",
    );
    report.metric(
        "nn.serve_swap.dispatch_us",
        (forward_sum - layer_sum) / rungs,
        "us",
        reps,
        "forward minus Σ layer self times, mean over rungs",
    );
    report.metric(
        "trace.serve_swap.overhead_share",
        overhead.iter().sum::<f64>() / rungs,
        "share",
        reps,
        "traced replay over untraced forward, minus 1, mean over rungs",
    );

    registry_calls(&ladder, tracer, report)?;

    let rate = serve_swap::RATES[serve_swap::NOMINAL];
    let p = serve_swap::phase(
        &ladder,
        &pool,
        rate,
        args.seconds * SLICE_SERVE_PROBE,
        args.seed,
        Some(tracer),
    )?;
    report.check(
        "serve probe answers bit-identical, none lost",
        p.lost == 0 && p.mismatched == 0,
        format!("{} sent", p.sent),
    );
    let lag = stats::summarize(&p.admit_lag_us, stats::WINDOWS);
    report.metric(
        "serve.admit_lag_p50_us",
        lag.p50,
        "us",
        lag.samples,
        format!("submit minus due time at {rate} rps"),
    );
    report.metric(
        "serve.admit_lag_tail_us",
        lag.tail,
        "us",
        lag.samples,
        format!("p{}", lag.tail_pct),
    );
    report.metric(
        "serve.try_submit_ns",
        stats::median(&p.submit_ns),
        "ns",
        p.submit_ns.len(),
        "median",
    );
    let waits: Vec<f64> = p
        .served
        .iter()
        .map(|&(r, b, l)| l - batch_us[r][b])
        .collect();
    let wait = stats::summarize(&waits, stats::WINDOWS);
    report.metric(
        "serve.queue_wait_p50_us",
        wait.p50,
        "us",
        wait.samples,
        "server latency minus forward at that batch size",
    );
    report.metric(
        "serve.queue_wait_tail_us",
        wait.tail,
        "us",
        wait.samples,
        format!("p{}", wait.tail_pct),
    );
    let mean_batch =
        p.served.iter().map(|s| s.1 as f64).sum::<f64>() / p.served.len().max(1) as f64;
    report.metric(
        "serve.mean_batch",
        mean_batch,
        "count",
        p.served.len(),
        "requests per forward, answer-weighted",
    );
    report.metric(
        "serve.queue_full",
        p.refused as f64,
        "count",
        p.sent,
        format!("refusals at {rate} rps"),
    );
    Ok(())
}

/// Times `publish`, `load` and `swap_from_store` under spans.
fn registry_calls(ladder: &Ladder, tracer: &mut Tracer, report: &mut Report) -> Res<()> {
    let registry = ffdl_core::full_registry();
    let (publish, load, swap) = (
        tracer.name("registry.publish"),
        tracer.name("registry.load"),
        tracer.name("registry.swap_from_store"),
    );
    let server = Server::start(&ladder.first, &ServeConfig::default())?;
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    for k in 0..REGISTRY_REPS {
        let req = k as u64;
        let s = tracer.open(publish, None, req);
        ladder
            .store
            .publish("publish_probe", &ladder.first, "arch1")?;
        times[0].push(tracer.close(s) as f64 / 1e3);
        let s = tracer.open(load, None, req);
        black_box(ladder.store.load(
            serve_swap::MODEL,
            Some(ladder.gens[k % ladder.gens.len()]),
            &registry,
        )?);
        times[1].push(tracer.close(s) as f64 / 1e3);
        let s = tracer.open(swap, None, req);
        serve_swap::ladder_swap(&server, ladder, k % ladder.gens.len())?;
        times[2].push(tracer.close(s) as f64 / 1e3);
    }
    server.finish()?;
    for (name, t) in [
        "registry.publish_us",
        "registry.load_us",
        "registry.swap_us",
    ]
    .into_iter()
    .zip(&times)
    {
        report.metric(name, stats::median(t), "us", t.len(), "median per call");
    }
    Ok(())
}

/// Profiles the streaming model per step, the engine step, and one short
/// streaming segment.
fn stream_workload(
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
    table: &mut Vec<Json>,
) -> Res<()> {
    let tokens = common::gru_tokens(&common::mnist_pool(args.seed, stream_gru::POOL)?);
    let model = common::gru_model(args.seed)?;
    let registry = ffdl_core::full_registry();
    let mut engine = InferenceEngine::new(clone_network(&model, &registry)?);
    let p = profile(
        "stream_gru",
        &mut engine,
        &tokens[..1],
        None,
        args.seconds * SLICE_STREAM,
        tracer,
    )?;
    let mut stepper = StreamEngine::new(clone_network(&model, &registry)?, false);
    let mut scratch = Scratch::new();
    let one = engine
        .network_mut()
        .forward_batch_with(&[&tokens[0]], &mut scratch)?;
    let stepped = stepper.replay(&tokens[..1])?;
    report.check(
        "stream_gru layer replay == forward_batch_with == StreamEngine (bits)",
        p.identical && bits_eq(one.row(0), &stepped[0].probabilities),
        "",
    );
    emit_layers(report, "stream_gru", &p, table);
    emit_forward(report, "stream_gru", &p);

    let step_name = tracer.name("stream.engine_step");
    let mut hidden = stepper.fresh_state();
    let mut steps = Vec::new();
    let start = Instant::now();
    while steps.len() < MIN_REPS
        || (steps.len() < 10 * MAX_REPS
            && start.elapsed().as_secs_f64() < args.seconds * SLICE_STREAM)
    {
        let t = tokens.len();
        let s = tracer.open(step_name, None, steps.len() as u64);
        black_box(stepper.step(&mut hidden, &tokens[steps.len() % t])?);
        steps.push(tracer.close(s) as f64 / 1e3);
    }
    let engine_step = stats::median(&steps);
    report.metric(
        "stream.engine_step_us",
        engine_step,
        "us",
        steps.len(),
        "StreamEngine::step alone, median",
    );

    let seg = stream_gru::segment(&model, &tokens, args.seconds * SLICE_STREAM_PROBE)?;
    report.check(
        "stream probe stepped == replay, none lost",
        seg.diverged == 0 && seg.lost == 0,
        format!("{} steps", seg.sent),
    );
    let lat = stats::summarize(&seg.latencies, stats::WINDOWS);
    report.metric(
        "stream.overhead_us",
        lat.p50 - engine_step,
        "us",
        lat.samples,
        "median step latency minus engine step",
    );
    report.metric(
        "stream.busy_retries",
        seg.busy_retries as f64 / seg.answered.max(1) as f64,
        "ratio",
        seg.answered,
        "SessionBusy refusals per answered step",
    );
    Ok(())
}

/// Times the FFT and spectral-MAC kernels at the block sizes the
/// workloads use, ns per call (median over batches of calls).
fn kernels(args: &Args, tracer: &mut Tracer, report: &mut Report) {
    const CALLS: usize = 2_000;
    const BATCHES: usize = 15;
    let mut rng = common::rng(args.seed, common::Stream::Inputs);
    let mut time = |tracer: &mut Tracer, name: &str, f: &mut dyn FnMut()| {
        let n = tracer.name(name);
        let mut per_call = Vec::with_capacity(BATCHES);
        for b in 0..BATCHES {
            let s = tracer.open(n, None, b as u64);
            for _ in 0..CALLS {
                f();
            }
            per_call.push(tracer.close(s) as f64 / CALLS as f64);
        }
        report.metric(
            name,
            stats::median(&per_call),
            "ns",
            BATCHES * CALLS,
            "per call, median of batches",
        );
    };
    for block in [64usize, 8] {
        let kernel = SpectralKernel::new(block);
        let x: Vec<f32> = (0..block).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut fft_scratch = Vec::new();
        let mut spec = Vec::new();
        kernel.spectrum_into(&x, &mut fft_scratch, &mut spec);
        let w = spec.clone();
        let mut acc = vec![Complex32::zero(); kernel.bins()];
        time(tracer, &format!("fft.spectrum_ns.b{block}"), &mut || {
            kernel.spectrum_into(black_box(&x), &mut fft_scratch, &mut spec);
            black_box(&spec);
        });
        time(tracer, &format!("core.mac_ns.b{block}"), &mut || {
            SpectralKernel::mul_accumulate(black_box(&mut acc), black_box(&w), black_box(&spec));
        });
        if block == 64 {
            let mut out = Vec::new();
            time(tracer, "fft.inverse_ns.b64", &mut || {
                kernel.inverse_into(black_box(&spec), &mut fft_scratch, &mut out);
                black_box(&out);
            });
            let levels: Vec<i16> = (0..2 * kernel.bins())
                .map(|_| rng.gen_range(-127i32..128) as i16)
                .collect();
            time(tracer, "core.mac_levels_ns.b64", &mut || {
                SpectralKernel::mul_accumulate_levels(
                    black_box(&mut acc),
                    black_box(&levels),
                    black_box(&spec),
                );
            });
        }
    }
}

/// Runs the traced pass over every workload model.
pub fn run(args: &Args) -> Res<Report> {
    let mut tracer = Tracer::new();
    let mut report = Report::default();
    let mut table = Vec::new();
    let start = Instant::now();
    closed_workload(
        &MNIST_EDGE,
        args,
        args.seconds * SLICE_MNIST,
        &mut tracer,
        &mut report,
        &mut table,
    )?;
    closed_workload(
        &CIFAR_BATCH,
        args,
        args.seconds * SLICE_CIFAR,
        &mut tracer,
        &mut report,
        &mut table,
    )?;
    serve_workload(args, &mut tracer, &mut report, &mut table)?;
    stream_workload(args, &mut tracer, &mut report, &mut table)?;
    kernels(args, &mut tracer, &mut report);
    report.attempted = tracer.len() as u64;
    report.meta("spans", tracer.len());
    report.meta("traced_seconds", start.elapsed().as_secs_f64());
    report.meta("platform_model", "honor6x cpp plugged-in, per image");
    report.meta("layers", Json::Arr(table));

    let dir = std::env::current_dir()?.join(".bench_run");
    std::fs::create_dir_all(&dir)?;
    // One file per workload, replaced by each traced run, so repeated
    // runs do not pile up span files.
    let path = dir.join(format!("spans-{}.csv", args.workload));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_csv(&mut out)?;
    std::io::Write::flush(&mut out)?;
    report.meta("spans_file", path.display().to_string());
    Ok(report)
}
