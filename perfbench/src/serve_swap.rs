//! `serve_swap`: open-loop serving with hot swaps between precisions.
//!
//! One generator thread sends seeded Poisson arrivals of MNIST requests to
//! an `ffdl_serve::Server` (one worker, default batching) at each of a
//! few fixed rates, from light load to past saturation. Every
//! [`SWAP_EVERY`] requests it hot-swaps the server through
//! `swap_from_store`, cycling the f32 → int16 → int8 generations of
//! Arch. 1 published to a temporary `ModelStore`. Latency counts
//! from each request's due time. This is the only workload that runs the
//! quantized MACs, and the only one whose queue, batcher and registry do
//! real work.

use crate::common::{self, bits_eq, Res, RunDir, Stream};
use crate::report::{Json, Report};
use crate::stats::{self, RatePhase};
use crate::trace::Tracer;
use crate::Args;
use ffdl_core::QuantBits;
use ffdl_deploy::InferenceEngine;
use ffdl_nn::Network;
use ffdl_registry::ModelStore;
use ffdl_rng::{PoissonArrivals, Rng};
use ffdl_serve::{ServeConfig, ServeError, Server};
use ffdl_tensor::Tensor;
use std::time::{Duration, Instant};

/// Offered rates, requests per second, lowest first.
///
/// The top rate is past the one-worker capacity (~70–120k rps on a
/// 2-core host); the gap below it is wide because capacity on a shared
/// host swings by a quarter from minute to minute, and a rate near it
/// would pass or fail the SLO by chance.
pub const RATES: [f64; 4] = [2_000.0, 10_000.0, 30_000.0, 150_000.0];
/// Index in [`RATES`] of the rate whose latencies are reported as the
/// workload's `latency_p50_us` / `latency_tail_us`.
pub const NOMINAL: usize = 2;
/// Latency limit from due time, µs.
pub const LIMIT_US: f64 = 10_000.0;
/// Share of sent requests that must be answered (not refused or failed);
/// the windowed p99 of the answered ones must also stay within [`LIMIT_US`].
pub const SLO_SHARE: f64 = 0.99;
/// Requests between hot swaps.
pub const SWAP_EVERY: u64 = 1_024;
/// Precision rungs, in swap order.
pub const RUNGS: [Option<QuantBits>; 3] = [None, Some(QuantBits::Sixteen), Some(QuantBits::Eight)];
/// Registry name the rungs are published under.
pub const MODEL: &str = "arch1";
/// Distinct seeded request images.
pub const POOL: usize = 256;
/// Set-ups timed per run.
pub const SETUP_REPEATS: usize = 15;
/// Interval between queue-depth samples, seconds of due time.
const DEPTH_EVERY_S: f64 = 0.001;
/// Windows the nominal-rate latencies are cut into (0.1 s each in a 20 s
/// run), so a scheduler stall of a few ms on a shared host spoils a few
/// windows, not the median over them.
const LATENCY_WINDOWS: usize = 50;

/// The published ladder plus offline references for every rung.
pub struct Ladder {
    /// Store holding one generation per rung.
    pub store: ModelStore,
    /// Registry generation of each rung.
    pub gens: Vec<u64>,
    /// Wire bytes of each rung.
    pub bytes: Vec<usize>,
    /// The f32 rung as loaded from the store (what servers start on).
    pub first: Network,
    /// Offline engines per rung, loaded from the store.
    pub engines: Vec<InferenceEngine>,
    /// `predict` output per rung per pool image.
    pub refs: Vec<Vec<Vec<f32>>>,
}

/// Label of rung `r`.
pub fn rung_label(r: usize) -> &'static str {
    ffdl_quant::rung_label(RUNGS[r])
}

/// Builds, quantizes and publishes the ladder into `dir`, loads
/// every rung back, computes offline references and warms a server up
/// through a full swap cycle (what `setup_s` times).
pub fn setup(seed: u64, dir: &std::path::Path, pool: &[Tensor]) -> Res<Ladder> {
    // The f32 rung is published in training form: a frozen
    // `spectral_dense` network does not round-trip the model format.
    let store = ModelStore::open(dir)?;
    let gens: Vec<u64> =
        ffdl_quant::publish_ladder(&store, MODEL, &common::arch1(seed), "arch1", &RUNGS)?
            .into_iter()
            .map(|(_, g)| g)
            .collect();
    let registry = ffdl_core::full_registry();
    let mut engines = Vec::new();
    let mut bytes = Vec::new();
    for &g in &gens {
        let (net, version) = store.load(MODEL, Some(g), &registry)?;
        bytes.push(version.bytes as usize);
        engines.push(InferenceEngine::new(net));
    }
    let refs = engines
        .iter_mut()
        .map(|e| {
            pool.iter()
                .map(|x| Ok(e.predict(&common::as_batch(x))?.remove(0).probabilities))
                .collect::<Res<Vec<_>>>()
        })
        .collect::<Res<Vec<_>>>()?;
    let (first, _) = store.load(MODEL, Some(gens[0]), &registry)?;
    let server = Server::start(&first, &ServeConfig::default())?;
    for (k, x) in pool.iter().enumerate().take(64) {
        if k % 16 == 0 {
            server.swap_from_store(&store, MODEL, Some(gens[(k / 16) % gens.len()]))?;
        }
        server.submit(k as u64, x.clone())?;
    }
    server.finish()?;
    Ok(Ladder {
        store,
        gens,
        bytes,
        first,
        engines,
        refs,
    })
}

/// One sent request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    due_us: f64,
    submit_us: f64,
    image: usize,
    refused: bool,
}

/// What one fixed-rate phase measured.
pub struct Phase {
    /// Offered rate.
    pub rate: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered.
    pub answered: usize,
    /// Requests refused at admission (queue full).
    pub refused: usize,
    /// Admitted requests that failed typed.
    pub failed: usize,
    /// Requests neither answered, failed nor refused (must be 0).
    pub lost: usize,
    /// Answers that differ from the offline `predict` of their generation.
    pub mismatched: usize,
    /// Hot swaps performed.
    pub swaps: usize,
    /// Due-time latency of every answered request, in id order, µs.
    pub latencies: Vec<f64>,
    /// Completion time of every answer inside the phase window, seconds.
    pub done_s: Vec<f64>,
    /// SLO verdict inputs.
    pub slo: RatePhase,
    /// How late the generator sent each request, µs.
    pub admit_lag_us: Vec<f64>,
    /// Wall time of each `try_submit`, ns (traced phases only).
    pub submit_ns: Vec<f64>,
    /// Per answer: (rung, batch size, server-side latency µs).
    pub served: Vec<(usize, usize, f64)>,
}

/// Runs one open-loop phase at `rate` for `seconds`.
///
/// With a tracer, every `try_submit` and `swap_from_store` call is
/// recorded as a span carrying the request id.
pub fn phase(
    ladder: &Ladder,
    pool: &[Tensor],
    rate: f64,
    seconds: f64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Res<Phase> {
    let mut rng = common::rng(seed ^ rate.to_bits(), Stream::Requests);
    let mut arrivals = PoissonArrivals::new(
        common::rng(seed ^ rate.to_bits().rotate_left(17), Stream::Requests),
        rate,
    );
    let server = Server::start(&ladder.first, &ServeConfig::default())?;
    let mut sent: Vec<Sent> = Vec::with_capacity((rate * seconds * 1.1) as usize);
    // Server generation → rung; the server starts on generation 1 = f32.
    let mut gen_rung: Vec<(u64, usize)> = vec![(1, 0)];
    let mut rung = 0;
    let mut depths = Vec::new();
    let mut next_depth = 0.0;
    let mut submit_ns = Vec::new();
    let names = tracer.as_deref_mut().map(|t| {
        (
            t.name("serve.try_submit"),
            t.name("registry.swap_from_store"),
        )
    });
    let start = Instant::now();
    for due_s in &mut arrivals {
        if due_s >= seconds {
            break;
        }
        // Sleep, never spin, until the request is due: on a 2-core host a
        // spinning generator takes the worker's second core whenever
        // anything else runs. Sleep overshoots by tens of µs, so at high
        // rates requests leave in small bursts; their wait counts in
        // their due-time latency.
        let due = start + Duration::from_secs_f64(due_s);
        let gap = due.saturating_duration_since(Instant::now());
        if !gap.is_zero() {
            std::thread::sleep(gap);
        }
        let id = sent.len() as u64;
        if id > 0 && id.is_multiple_of(SWAP_EVERY) {
            rung = (rung + 1) % RUNGS.len();
            let span = tracer
                .as_deref_mut()
                .zip(names)
                .map(|(t, (_, n))| t.open(n, None, id));
            let generation = ladder_swap(&server, ladder, rung)?;
            if let Some((t, s)) = tracer.as_deref_mut().zip(span) {
                t.close(s);
            }
            gen_rung.push((generation, rung));
        }
        let image = rng.gen_range(0..pool.len());
        let features = pool[image].clone();
        let submit = start.elapsed();
        let span = tracer
            .as_deref_mut()
            .zip(names)
            .map(|(t, (n, _))| t.open(n, None, id));
        let outcome = server.try_submit(id, features);
        if let Some((t, s)) = tracer.as_deref_mut().zip(span) {
            submit_ns.push(t.close(s) as f64);
        }
        let refused = match outcome {
            Ok(()) => false,
            Err(ServeError::QueueFull { .. }) => true,
            Err(e) => return Err(e.into()),
        };
        sent.push(Sent {
            due_us: due_s * 1e6,
            submit_us: submit.as_secs_f64() * 1e6,
            image,
            refused,
        });
        if due_s >= next_depth {
            depths.push(server.queue_len());
            next_depth += DEPTH_EVERY_S;
        }
    }
    let report = server.finish()?;

    // Every sent request is exactly one of: answered, failed, refused.
    let mut outcome = vec![0u8; sent.len()];
    for (i, s) in sent.iter().enumerate() {
        outcome[i] += u8::from(s.refused);
    }
    let window_us = seconds * 1e6;
    let rung_of = |generation: u64| {
        gen_rung
            .iter()
            .find(|(g, _)| *g == generation)
            .map(|&(_, r)| r)
    };
    let mut mismatched = 0;
    let mut latencies = Vec::with_capacity(report.responses.len());
    let mut served = Vec::with_capacity(report.responses.len());
    let mut done_s = Vec::with_capacity(report.responses.len());
    for r in &report.responses {
        let Some(s) = sent.get(r.id as usize) else {
            mismatched += 1;
            continue;
        };
        outcome[r.id as usize] += 1;
        match rung_of(r.generation) {
            Some(rg) if bits_eq(&r.prediction.probabilities, &ladder.refs[rg][s.image]) => {
                served.push((rg, r.batch_size, r.latency_us));
            }
            _ => mismatched += 1,
        }
        let l = stats::due_latency_us(s.due_us, s.submit_us, r.latency_us);
        let done_us = s.submit_us + r.latency_us;
        if done_us <= window_us {
            done_s.push(done_us / 1e6);
        }
        latencies.push(l);
    }
    let mut missed: Vec<bool> = sent.iter().map(|s| s.refused).collect();
    for f in &report.failures {
        if let Some(o) = outcome.get_mut(f.id as usize) {
            *o += 1;
            missed[f.id as usize] = true;
        }
    }
    let lost = outcome.iter().filter(|&&o| o != 1).count();
    let refused = sent.iter().filter(|s| s.refused).count();
    let admit_lag_us = sent
        .iter()
        .map(|s| (s.submit_us - s.due_us).max(0.0))
        .collect();
    Ok(Phase {
        rate,
        sent: sent.len(),
        answered: report.responses.len(),
        refused,
        failed: report.failures.len(),
        lost,
        mismatched,
        swaps: gen_rung.len() - 1,
        done_s,
        slo: RatePhase {
            rate,
            sent: sent.len(),
            miss_share: stats::miss_share(&missed),
            tail_us: stats::slo_tail_us(&latencies),
            backlog_growing: stats::backlog_grows(&depths),
        },
        latencies,
        admit_lag_us,
        submit_ns,
        served,
    })
}

/// Hot-swaps `server` to `rung` of the ladder; returns the server generation.
pub fn ladder_swap(server: &Server, ladder: &Ladder, rung: usize) -> Res<u64> {
    Ok(server.swap_from_store(&ladder.store, MODEL, Some(ladder.gens[rung]))?)
}

/// Share of pool images on which the int16/int8 rungs pick the f32 rung's
/// class.
pub fn top1_agreement(ladder: &Ladder) -> f64 {
    let f32_labels: Vec<usize> = ladder.refs[0].iter().map(|p| common::argmax(p)).collect();
    let mut agree = 0;
    let mut total = 0;
    for rung in &ladder.refs[1..] {
        for (p, &l) in rung.iter().zip(&f32_labels) {
            agree += usize::from(common::argmax(p) == l);
            total += 1;
        }
    }
    agree as f64 / total as f64
}

/// Runs every rate phase and reports the end-to-end metrics.
pub fn run(args: &Args) -> Res<Report> {
    let pool = common::mnist_pool(args.seed, POOL)?;
    let dir = RunDir::new("serve_swap")?;
    let mut k = 0;
    let (ladder, setup_times) = common::timed_setups(SETUP_REPEATS, || {
        k += 1;
        setup(args.seed, &dir.path().join(format!("store-{k}")), &pool)
    })?;
    let rss = common::peak_rss_mb();
    let per_phase = args.seconds / RATES.len() as f64;
    let mut phases = Vec::new();
    for &rate in &RATES {
        phases.push(phase(&ladder, &pool, rate, per_phase, args.seed, None)?);
    }

    let sent: usize = phases.iter().map(|p| p.sent).sum();
    let answered: usize = phases.iter().map(|p| p.answered).sum();
    let lost: usize = phases.iter().map(|p| p.lost).sum();
    let mismatched: usize = phases.iter().map(|p| p.mismatched).sum();
    let failed: usize = phases.iter().map(|p| p.failed).sum();
    let mut report = Report {
        attempted: sent as u64,
        failed: (failed + lost + mismatched) as u64,
        ..Report::default()
    };
    report.check(
        "every request answered, failed or refused once",
        lost == 0,
        format!("{sent} sent, {lost} lost or duplicated"),
    );
    report.check(
        "answers == offline predict of their generation (bits)",
        mismatched == 0,
        format!("{answered} answers, {mismatched} differ"),
    );
    report.check("no typed failures", failed == 0, format!("{failed} failed"));

    let nominal = stats::summarize(&phases[NOMINAL].latencies, LATENCY_WINDOWS);
    let slo: Vec<RatePhase> = phases.iter().map(|p| p.slo).collect();
    let max_rate = stats::max_rate_at_slo(&slo, SLO_SHARE, LIMIT_US);
    // Goodput is taken at the highest rate that met the SLO: past
    // saturation the answered rate follows how much CPU the host's
    // neighbours leave, not the program (it is printed per rate below).
    let good = phases
        .iter()
        .rev()
        .find(|p| p.rate == max_rate)
        .unwrap_or(&phases[0]);
    let good_rates = stats::window_rates(&good.done_s, stats::WINDOWS);
    let below = &phases[..phases.len() - 1];
    let below_sent: usize = below.iter().map(|p| p.sent).sum();
    let worst_miss = below.iter().map(|p| p.slo.miss_share).fold(0.0, f64::max);
    report.setup(
        &setup_times,
        "build, quantize, publish, load, server warm-up",
    );
    report.metric(
        "latency_p50_us",
        nominal.p50,
        "us",
        nominal.samples,
        format!(
            "from due time at {} rps, median of {} windows",
            RATES[NOMINAL], nominal.windows
        ),
    );
    report.metric(
        "latency_tail_us",
        nominal.tail,
        "us",
        nominal.samples,
        format!(
            "p{} from due time at {} rps, {} beyond per window, median of {} windows",
            nominal.tail_pct, RATES[NOMINAL], nominal.beyond, nominal.windows
        ),
    );
    report.metric(
        "throughput_per_s",
        stats::median(&good_rates),
        "1/s",
        good.done_s.len(),
        format!(
            "answers/s at {} rps (highest rate meeting the SLO), median of {} windows",
            good.rate,
            good_rates.len()
        ),
    );
    report.metric(
        "max_rate_at_slo_rps",
        max_rate,
        "1/s",
        sent,
        format!(
            "highest of {RATES:?} rps with <= {:.0}% refused or failed, windowed p99 within {LIMIT_US} us, no growing backlog",
            (1.0 - SLO_SHARE) * 100.0
        ),
    );
    report.metric(
        "served_share",
        1.0 - worst_miss,
        "share",
        below_sent,
        "1 - worst windowed miss share of the rates below saturation",
    );
    report.metric(
        "model_bytes",
        ladder.bytes.iter().sum::<usize>() as f64,
        "bytes",
        ladder.bytes.len(),
        "wire bytes of the f32 + int16 + int8 generations",
    );
    report.metric("peak_rss_mb", rss, "MB", 1, common::RSS_NOTE);
    report.metric(
        "top1_agreement",
        top1_agreement(&ladder),
        "share",
        2 * POOL,
        "int16/int8 rung vs f32 rung class",
    );

    report.meta(
        "rates_rps",
        Json::Arr(RATES.iter().map(|&r| Json::Num(r)).collect()),
    );
    report.meta("latency_limit_us", LIMIT_US);
    report.meta("slo_share", SLO_SHARE);
    report.meta("swap_every", SWAP_EVERY);
    report.meta("phase_seconds", per_phase);
    report.meta(
        "model_bytes_per_rung",
        Json::Arr(ladder.bytes.iter().map(|&b| Json::from(b)).collect()),
    );
    let mut rows = Vec::with_capacity(phases.len());
    for p in &phases {
        let (line, row) = phase_row(p);
        report.lines.push(line);
        rows.push(row);
    }
    report.meta("phases", Json::Arr(rows));
    Ok(report)
}

/// The per-rate table line and metadata entry of one phase.
fn phase_row(p: &Phase) -> (String, Json) {
    let s = (!p.latencies.is_empty()).then(|| stats::summarize(&p.latencies, stats::WINDOWS));
    let (p50, tail, pct) = s.map_or((f64::NAN, f64::NAN, f64::NAN), |s| {
        (s.p50, s.tail, s.tail_pct)
    });
    let met = p.slo.meets(SLO_SHARE, LIMIT_US);
    let line = format!(
        "rate {:>8} rps  sent {:>7}  answered {:>7}  refused {:>6}  failed {}  p50 {:>9.1} us  p{} {:>9.1} us  slo {}",
        p.rate, p.sent, p.answered, p.refused, p.failed, p50, pct, tail,
        if met { "met" } else { "missed" },
    );
    let row = Json::obj([
        ("rate_rps", Json::Num(p.rate)),
        ("sent", Json::from(p.sent)),
        ("succeeded", Json::from(p.answered)),
        ("failed", Json::from(p.failed)),
        ("refused", Json::from(p.refused)),
        ("lost", Json::from(p.lost)),
        ("swaps", Json::from(p.swaps)),
        ("miss_share", Json::Num(p.slo.miss_share)),
        ("slo_tail_us", Json::Num(p.slo.tail_us)),
        ("backlog_growing", Json::Bool(p.slo.backlog_growing)),
        ("slo_met", Json::Bool(met)),
        ("p50_us", Json::Num(p50)),
        ("tail_us", Json::Num(tail)),
        ("tail_pct", Json::Num(pct)),
    ]);
    (line, row)
}
