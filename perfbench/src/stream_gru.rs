//! `stream_gru`: stateful streaming through `StreamServer`.
//!
//! [`SESSIONS`] sticky sessions each stream the rows of seeded MNIST
//! digits, one 16-pixel row per step, into a block-circulant GRU (block
//! 8) with one worker. Each session is a closed loop: with an in-flight
//! cap of one step per session, its next step is refused `SessionBusy`
//! until the previous one is answered. The work is recurrent gate MACs at
//! small `b`, batch 1, with per-session state, which no other workload
//! reaches.

use crate::common::{self, bits_eq, Res};
use crate::report::{Json, Report};
use crate::stats;
use crate::Args;
use ffdl_nn::{clone_network, Network};
use ffdl_stream::{StreamConfig, StreamEngine, StreamError, StreamServer};
use ffdl_tensor::Tensor;
use std::time::{Duration, Instant};

/// Concurrent sessions, each a closed loop.
pub const SESSIONS: u64 = 128;
/// The run is cut into this many segments, each on a fresh server with
/// fresh sessions, so the answers the server buffers until `finish` stay
/// bounded.
pub const SEGMENTS: usize = 4;
/// Seeded digits whose rows make up the token streams.
pub const POOL: usize = 64;
/// Set-ups timed per run. A set-up takes about a millisecond, mostly
/// thread start and join, so many are needed for a steady median.
pub const SETUP_REPEATS: usize = 25;
/// Latency limit for `max_rate_at_slo_rps`, µs per step.
pub const LIMIT_US: f64 = 10_000.0;
/// How long the stepping thread sleeps after each pass over the sessions.
/// The worker's queue holds up to [`SESSIONS`] steps, more than it answers
/// while that thread sleeps, so the worker never waits on it and the
/// stepping thread stays mostly idle.
const PASS_SLEEP: Duration = Duration::from_micros(500);
/// Throughput windows per segment (the run reports the median of all).
const WINDOWS_PER_SEGMENT: usize = stats::WINDOWS / SEGMENTS;

fn config() -> StreamConfig {
    StreamConfig {
        session_inflight: 1,
        ..StreamConfig::default()
    }
}

/// Token `t` of `session`: sessions start on different digits and read
/// them row after row.
pub fn token(tokens: &[Tensor], session: u64, t: usize) -> &Tensor {
    &tokens[(session as usize * 7 * 16 + t) % tokens.len()]
}

/// Builds the model and warms a server up with one 16-step session (what
/// `setup_s` times).
pub fn setup(seed: u64, tokens: &[Tensor]) -> Res<Network> {
    let model = common::gru_model(seed)?;
    let server = StreamServer::start(&model, &config())?;
    server.open_session(0)?;
    for t in 0..16 {
        step_when_free(&server, 0, t as u64, token(tokens, 0, t).clone())?;
    }
    server.close_session(0)?;
    server.finish()?;
    Ok(model)
}

fn step_when_free(server: &StreamServer, session: u64, id: u64, x: Tensor) -> Res<()> {
    loop {
        match server.step(session, id, x.clone()) {
            Ok(()) => return Ok(()),
            Err(StreamError::SessionBusy { .. }) => std::thread::yield_now(),
            Err(e) => return Err(e.into()),
        }
    }
}

/// What one segment measured.
pub struct Segment {
    /// Steps sent.
    pub sent: usize,
    /// Steps answered.
    pub answered: usize,
    /// Steps failed typed.
    pub failed: usize,
    /// Steps neither answered nor failed, or answered twice.
    pub lost: usize,
    /// Sessions whose stepped answers differ from `StreamEngine::replay`.
    pub diverged: usize,
    /// `SessionBusy` refusals met by the stepping thread.
    pub busy_retries: u64,
    /// Step latency (admission → answer) in id order, µs.
    pub latencies: Vec<f64>,
    /// Answered steps per second in each window of the segment.
    pub rates: Vec<f64>,
    /// Measured length, seconds.
    pub seconds: f64,
}

/// Steps [`SESSIONS`] closed-loop sessions on a fresh server for
/// `seconds`, then checks every session against a replay.
pub fn segment(model: &Network, tokens: &[Tensor], seconds: f64) -> Res<Segment> {
    let server = StreamServer::start(model, &config())?;
    for s in 0..SESSIONS {
        server.open_session(s)?;
    }
    let mut next = vec![0usize; SESSIONS as usize];
    let mut sent: Vec<(u64, usize, f64)> = Vec::new();
    let mut busy_retries = 0u64;
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    while Instant::now() < stop {
        for s in 0..SESSIONS {
            let t = next[s as usize];
            let id = sent.len() as u64;
            let submit_s = start.elapsed().as_secs_f64();
            match server.step(s, id, token(tokens, s, t).clone()) {
                Ok(()) => {
                    sent.push((s, t, submit_s));
                    next[s as usize] += 1;
                }
                Err(StreamError::SessionBusy { .. }) => busy_retries += 1,
                Err(e) => return Err(e.into()),
            }
        }
        std::thread::sleep(PASS_SLEEP);
    }
    let measured = start.elapsed().as_secs_f64();
    for s in 0..SESSIONS {
        server.close_session(s)?;
    }
    let report = server.finish()?;

    let mut seen = vec![0u8; sent.len()];
    let mut stepped: Vec<Vec<(usize, &[f32])>> = vec![Vec::new(); SESSIONS as usize];
    let mut latencies = Vec::with_capacity(report.serve.responses.len());
    let mut done_s = Vec::with_capacity(report.serve.responses.len());
    for r in &report.serve.responses {
        let Some(&(s, t, submit_s)) = sent.get(r.id as usize) else {
            continue;
        };
        seen[r.id as usize] += 1;
        stepped[s as usize].push((t, &r.prediction.probabilities));
        latencies.push(r.latency_us);
        done_s.push(submit_s + r.latency_us / 1e6);
    }
    for f in &report.serve.failures {
        if let Some(n) = seen.get_mut(f.id as usize) {
            *n += 1;
        }
    }
    let lost = seen.iter().filter(|&&n| n != 1).count();

    // Replay every session, the sessions split over the host's cores: the
    // measured span is over, and the replay is as long as the serving was.
    let registry = ffdl_core::full_registry();
    let chunk = stepped.len().div_ceil(common::nproc());
    let diverged = std::thread::scope(|scope| -> Res<usize> {
        let handles: Vec<_> = stepped
            .chunks_mut(chunk)
            .enumerate()
            .map(|(c, part)| {
                let (next, registry) = (&next, &registry);
                scope.spawn(move || -> Result<usize, String> {
                    let net = clone_network(model, registry).map_err(|e| e.to_string())?;
                    let mut engine = StreamEngine::new(net, false);
                    let mut diverged = 0;
                    for (k, steps) in part.iter_mut().enumerate() {
                        let s = c * chunk + k;
                        steps.sort_by_key(|&(t, _)| t);
                        let seq: Vec<Tensor> = (0..next[s])
                            .map(|t| token(tokens, s as u64, t).clone())
                            .collect();
                        let replay = engine.replay(&seq).map_err(|e| e.to_string())?;
                        let same = steps.len() == replay.len()
                            && steps
                                .iter()
                                .zip(&replay)
                                .enumerate()
                                .all(|(i, ((t, p), r))| *t == i && bits_eq(p, &r.probabilities));
                        diverged += usize::from(!same);
                    }
                    Ok(diverged)
                })
            })
            .collect();
        let mut total = 0;
        for h in handles {
            total += h.join().map_err(|_| "replay thread panicked")??;
        }
        Ok(total)
    })?;
    Ok(Segment {
        sent: sent.len(),
        answered: report.serve.responses.len(),
        failed: report.serve.failures.len(),
        lost,
        diverged,
        busy_retries,
        latencies,
        rates: stats::window_rates(&done_s, WINDOWS_PER_SEGMENT),
        seconds: measured,
    })
}

/// Runs the segments and reports the end-to-end metrics.
pub fn run(args: &Args) -> Res<Report> {
    let tokens = common::gru_tokens(&common::mnist_pool(args.seed, POOL)?);
    let (model, setup_times) = common::timed_setups(SETUP_REPEATS, || setup(args.seed, &tokens))?;
    let rss = common::peak_rss_mb();
    let mut segments = Vec::new();
    for _ in 0..SEGMENTS {
        segments.push(segment(&model, &tokens, args.seconds / SEGMENTS as f64)?);
    }

    let sum = |f: fn(&Segment) -> usize| segments.iter().map(f).sum::<usize>();
    let sent = sum(|s| s.sent);
    let answered = sum(|s| s.answered);
    let failed = sum(|s| s.failed);
    let lost = sum(|s| s.lost);
    let diverged = sum(|s| s.diverged);
    let busy: u64 = segments.iter().map(|s| s.busy_retries).sum();
    let latencies: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();

    let mut report = Report {
        attempted: sent as u64,
        failed: (failed + lost) as u64,
        ..Report::default()
    };
    report.check(
        "every step answered once",
        lost == 0 && failed == 0,
        format!("{sent} sent, {failed} failed, {lost} lost"),
    );
    report.check(
        "stepped == StreamEngine::replay (bits)",
        diverged == 0,
        format!(
            "{} sessions, {diverged} diverged",
            SESSIONS as usize * segments.len()
        ),
    );

    let lat = stats::summarize(&latencies, stats::WINDOWS);
    let within = latencies.iter().filter(|&&l| l <= LIMIT_US).count();
    report.setup(&setup_times, "build, server start, warm-up session");
    report.metric(
        "latency_p50_us",
        lat.p50,
        "us",
        lat.samples,
        format!("per step, median of {} windows", lat.windows),
    );
    report.metric(
        "latency_tail_us",
        lat.tail,
        "us",
        lat.samples,
        format!(
            "p{} per step, {} beyond per window, median of {} windows",
            lat.tail_pct, lat.beyond, lat.windows
        ),
    );
    let rates: Vec<f64> = segments
        .iter()
        .flat_map(|s| s.rates.iter().copied())
        .collect();
    report.metric(
        "throughput_per_s",
        stats::median(&rates),
        "1/s",
        answered,
        format!(
            "steps/s over {SESSIONS} sessions, median of {} windows",
            rates.len()
        ),
    );
    report.metric(
        "max_rate_at_slo_rps",
        stats::median(&rates) * within as f64 / answered.max(1) as f64,
        "1/s",
        answered,
        format!("steps/s × share answered within {LIMIT_US} us (closed loop per session)"),
    );
    report.metric(
        "served_share",
        answered as f64 / sent.max(1) as f64,
        "share",
        sent,
        "steps answered",
    );
    report.metric(
        "model_bytes",
        ffdl_quant::model_bytes(&model)? as f64,
        "bytes",
        1,
        "wire bytes of the GRU model",
    );
    report.metric("peak_rss_mb", rss, "MB", 1, common::RSS_NOTE);
    report.metric(
        "top1_agreement",
        1.0 - diverged as f64 / (SESSIONS as usize * segments.len()) as f64,
        "share",
        SESSIONS as usize * segments.len(),
        "sessions whose stepped classes equal the replay",
    );
    report.meta("sessions", SESSIONS);
    report.meta("segments", SEGMENTS);
    report.meta("latency_limit_us", LIMIT_US);
    report.meta("busy_retries", busy);
    report.meta(
        "phases",
        Json::Arr(
            segments
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("phase", Json::from(format!("segment{i}"))),
                        ("sent", Json::from(s.sent)),
                        ("succeeded", Json::from(s.answered)),
                        ("failed", Json::from(s.failed + s.lost)),
                        ("seconds", Json::from(s.seconds)),
                    ])
                })
                .collect(),
        ),
    );
    Ok(report)
}
