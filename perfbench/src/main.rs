//! The repository benchmark: frame latency, throughput and accuracy of
//! the localization stack on three workloads, plus a traced per-layer
//! ledger. See README.md for the workloads and metric definitions.
//!
//! ```text
//! perfbench --workload <car_vio|drone_mixed|fleet> --seed <n> --seconds <s> --trace <0|1>
//!           [--frames <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! The process exits non-zero when an output check fails.

mod calib;
mod heap;
mod ledger;
mod probe;
mod stats;
mod workload;

use ledger::{Metric, Metrics, Traced};
use probe::Probe;
use std::collections::BTreeMap;
use workload::{Frame, PhaseOutput, Scene, SetupTimes, Spec, Target};

#[global_allocator]
static HEAP: heap::TrackingAllocator = heap::TrackingAllocator;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Frames per scene stream, replacing the workload's own (smoke
    /// tests).
    frames: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <car_vio|drone_mixed|fleet> --seed <n> \
                     --seconds <s> --trace <0|1> [--frames <n>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut frames = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} {v}: expected a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            "--frames" => frames = Some(number(&value)? as usize),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?.max(1),
        trace: trace.ok_or_else(|| missing("--trace"))?,
        frames: frames.map(|f| f.max(4)),
    })
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when an output check
/// failed (the result line then says `"correct": false`).
fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut spec = Spec::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {:?})",
            args.workload,
            workload::WORKLOADS
        )
    })?;
    if let Some(frames) = args.frames {
        spec.frames = frames;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = if spec.is_fleet() {
        nproc.min(spec.agents)
    } else {
        1
    };
    if spec.is_fleet() && workers < 2 {
        return Err(format!(
            "fleet needs at least 2 worker threads to measure the serving layer; nproc = {nproc}"
        ));
    }
    println!(
        "context: workload={} seed={} seconds={} trace={} nproc={nproc} workers={workers} \
         cpu=\"{}\" scenes={} agents={} frames_per_stream={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::cpu_model(),
        spec.scenes,
        spec.agents,
        spec.frames,
    );

    // Set-up, once per scene: synthesis, survey, and construction of the
    // scene's session or manager, scaled by calibration samples taken
    // before each scene's synthesis. The heap the sessions take is counted
    // from after the inputs exist.
    let mut calibrator = calib::Kernel::new();
    let mut setup_samples = Vec::with_capacity(spec.scenes * calib::SETUP_SAMPLES);
    let (scenes, mut setups): (Vec<Scene>, Vec<SetupTimes>) = (0..spec.scenes)
        .map(|s| {
            setup_samples.extend((0..calib::SETUP_SAMPLES).map(|_| calibrator.sample_ms()));
            workload::synthesize(&spec, args.seed, s)
        })
        .unzip();
    let heap_base = heap::live();
    let mut targets: Vec<Target> = Vec::with_capacity(spec.scenes);
    for (scene, times) in scenes.iter().zip(&mut setups) {
        let start = stats::thread_cpu_ns();
        targets.push(workload::build(&spec, scene, None));
        times.build_s = workload::cpu_s_since(start);
    }
    let setup_scale = calib::scale(&setup_samples);
    let raw_setup: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    for times in &mut setups {
        *times = times.scaled(setup_scale);
    }
    let seconds = args.seconds as f64;

    // The untraced phase. A traced run needs only its reference pass: the
    // poses the traced phase must repeat, and the throughput it is traced
    // against. The end-to-end metrics come from runs with tracing off.
    let plain = workload::run_phase(
        &spec,
        &scenes,
        &mut targets,
        None,
        None,
        &mut calibrator,
        workers,
        (!args.trace).then_some(seconds),
    )?;
    drop(targets);
    let mut errors = check_phase(&spec, &scenes, &plain, "untraced");
    let mut attempted = plain.received;
    let mut failed = failures(&plain.frames);

    let result = if args.trace {
        let traced = traced_phase(
            &spec,
            &scenes,
            &plain,
            &setups,
            &mut calibrator,
            seconds,
            &args,
        )?;
        attempted += traced.received;
        failed += traced.failed;
        errors.extend(traced.errors);
        print_metrics("layer", &traced.metrics);
        traced.metrics
    } else {
        print_timed(&plain, setup_scale, &raw_setup);
        let heap_bytes = plain.heap_peak.saturating_sub(heap_base);
        let end_to_end = end_to_end_metrics(&plain, &setups, heap_bytes);
        print_metrics("metric", &end_to_end);
        end_to_end
    };
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "checks: {} ({attempted} frames received, {failed} failed)",
        if errors.is_empty() {
            "passed"
        } else {
            "FAILED"
        },
    );
    println!(
        "{}",
        result_json(errors.is_empty(), attempted, failed, &result)?
    );
    Ok(errors.is_empty())
}

fn failures(frames: &[Frame]) -> u64 {
    frames.iter().filter(|f| f.failed).count() as u64
}

/// Translation RMSE over every frame with a reference in the reference
/// pass (the timed cycles repeat those frames).
fn ate_rmse(phase: &PhaseOutput) -> Option<f64> {
    let errors: Vec<f64> = phase
        .frames
        .iter()
        .filter(|f| f.replay == 0)
        .filter_map(|f| f.error_sq)
        .collect();
    stats::mean(&errors).map(f64::sqrt)
}

/// Poses of each (scene, agent, replay), in push order.
fn poses_by_replay(frames: &[Frame]) -> BTreeMap<(usize, usize, usize), Vec<[u64; 7]>> {
    let mut out: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for f in frames {
        if let Some(pose) = f.pose {
            out.entry((f.scene, f.agent, f.replay))
                .or_default()
                .push(pose);
        }
    }
    out
}

/// Output checks of one phase: one record per received image, finite
/// poses, every frame served, accuracy under the sanity ceiling, and
/// every timed replay of an unfaulted stream bit-identical to the
/// reference pass.
fn check_phase(spec: &Spec, scenes: &[Scene], phase: &PhaseOutput, label: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let failed = failures(&phase.frames);
    if failed > 0 {
        errors.push(format!(
            "{label}: {failed} of {} frames failed (no record, non-finite pose or unserved)",
            phase.received
        ));
    }
    match ate_rmse(phase) {
        Some(ate) if ate < spec.ate_ceiling_m => {}
        Some(ate) => errors.push(format!(
            "{label}: ate_rmse_m {ate} is above the {} m ceiling: an estimator diverged",
            spec.ate_ceiling_m
        )),
        None => errors.push(format!("{label}: no frame with a reference pose")),
    }
    let poses = poses_by_replay(&phase.frames);
    for (s, scene) in scenes.iter().enumerate() {
        for agent in 0..spec.agents {
            let first = poses.get(&(s, agent, 0)).map_or(0, Vec::len);
            if first != scene.images(agent) {
                errors.push(format!(
                    "{label}: scene {s} agent {agent}: {first} records for {} images",
                    scene.images(agent)
                ));
            }
        }
    }
    for ((s, agent, replay), replayed) in &poses {
        // A fault process keeps its own clock across replays.
        if *replay == 0 || spec.faulted(*agent) {
            continue;
        }
        let first = &poses[&(*s, *agent, 0)];
        if replayed != first {
            errors.push(format!(
                "{label}: scene {s} agent {agent} replay {replay} differs from the reference pass"
            ));
        }
    }
    errors
}

/// Image frames completed over the critical-path CPU time of the timed
/// cycles, scaled to the reference host.
fn throughput_fps(phase: &PhaseOutput) -> f64 {
    phase.timed().count() as f64 / phase.cpu_s(true).1
}

/// The timed phase's shape, its host-speed scales, and the end-to-end
/// figures before scaling.
fn print_timed(plain: &PhaseOutput, setup_scale: f64, raw_setup: &[f64]) {
    let (raw_cpu_s, scaled_cpu_s) = plain.cpu_s(true);
    println!(
        "timed: {} cycle(s) of {} frames after an untimed reference pass: {:.3} s wall, \
         {:.3} s critical-path CPU, {:.3} s scaled to the reference host \
         (host-speed scale: set-up {:.4}, timed median {:.4})",
        plain.cycles,
        plain.timed().count() / plain.cycles,
        plain.timed_s,
        raw_cpu_s,
        scaled_cpu_s,
        setup_scale,
        stats::median(&plain.scales).unwrap_or(f64::NAN),
    );
    let unscaled: Vec<f64> = plain.timed().map(|f| f.latency_ms).collect();
    println!(
        "unscaled: throughput_fps = {:.4} frames/s, frame_p50_ms = {:.4} ms, \
         frame_p95_ms = {:.4} ms, setup_s = {:.4} s",
        plain.timed().count() as f64 / raw_cpu_s,
        stats::median(&unscaled).unwrap_or(f64::NAN),
        stats::percentile(&unscaled, 0.95).unwrap_or(f64::NAN),
        stats::median(raw_setup).unwrap_or(f64::NAN),
    );
}

fn end_to_end_metrics(phase: &PhaseOutput, setups: &[SetupTimes], heap_bytes: usize) -> Metrics {
    let mut m = Metrics::default();
    let latencies: Vec<f64> = phase.timed().map(|f| phase.latency_ms(f)).collect();
    let n = Some(latencies.len());
    m.push(
        "throughput_fps",
        "frames/s",
        Some(throughput_fps(phase)),
        n,
        true,
    );
    m.push("frame_p50_ms", "ms", stats::median(&latencies), n, true);
    m.push(
        "frame_p95_ms",
        "ms",
        stats::percentile(&latencies, 0.95),
        n,
        true,
    );
    m.push("ate_rmse_m", "m", ate_rmse(phase), None, true);
    // Never zero on a clean run, so it cannot carry a relative bound; the
    // result line carries it as `failed` / `attempted`.
    m.push(
        "frame_failure_rate",
        "ratio",
        stats::ratio(failures(&phase.frames) as f64, phase.received as f64),
        Some(phase.received as usize),
        false,
    );
    let totals: Vec<f64> = setups.iter().map(SetupTimes::total_s).collect();
    m.push(
        "setup_s",
        "s",
        stats::median(&totals),
        Some(totals.len()),
        true,
    );
    m.push(
        "peak_mem_mb",
        "MB",
        Some(heap_bytes as f64 / 1e6),
        None,
        true,
    );
    m
}

/// What the traced run adds to the result.
struct TracedRun {
    metrics: Metrics,
    errors: Vec<String>,
    received: u64,
    failed: u64,
}

/// The traced run: the same scenes through wrapped sessions, checked
/// bit-identical to the untraced phase, then reduced to per-layer
/// metrics.
fn traced_phase(
    spec: &Spec,
    scenes: &[Scene],
    plain: &PhaseOutput,
    setups: &[SetupTimes],
    calibrator: &mut calib::Kernel,
    seconds: f64,
    args: &Args,
) -> Result<TracedRun, String> {
    // Track 0 is the client; each session gets a track of its own.
    const SPAN_CAPACITY: usize = 1 << 16;
    let probes: Vec<Vec<Probe>> = (0..spec.scenes)
        .map(|t| {
            (0..spec.agents)
                .map(|a| Probe::new((1 + t * spec.agents + a) as u32, SPAN_CAPACITY))
                .collect()
        })
        .collect();
    let client = Probe::new(0, SPAN_CAPACITY);
    let mut targets: Vec<Target> = probes
        .iter()
        .enumerate()
        .map(|(s, p)| workload::build(spec, &scenes[s], Some(p)))
        .collect();
    let traced = workload::run_phase(
        spec,
        scenes,
        &mut targets,
        Some(&probes),
        spec.is_fleet().then_some(&client),
        calibrator,
        plain.workers,
        Some(seconds),
    )?;
    drop(targets);

    let mut errors = check_phase(spec, scenes, &traced, "traced");
    // The wrappers only observe: the reference pass of every stream must
    // match the untraced one bit for bit.
    let (a, b) = (
        poses_by_replay(&plain.frames),
        poses_by_replay(&traced.frames),
    );
    for (key, poses) in a.iter().filter(|(k, _)| k.2 == 0) {
        if b.get(key) != Some(poses) {
            errors.push(format!(
                "traced poses of scene {} agent {} differ from the untraced pass",
                key.0, key.1
            ));
        }
    }

    let spans: Vec<Vec<Vec<_>>> = probes
        .iter()
        .map(|agents| {
            agents
                .iter()
                .map(ledger::drain)
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    let client_spans = ledger::drain(&client)?;
    export_trace(spec, args, &spans, &client_spans)?;

    let metrics = ledger::per_layer(&Traced {
        spec,
        phase: &traced,
        spans: &spans,
        client_spans: &client_spans,
        setups,
        untraced_fps: plain.reference_fps(),
        traced_fps: traced.reference_fps(),
    });
    Ok(TracedRun {
        metrics,
        errors,
        received: traced.received,
        failed: failures(&traced.frames),
    })
}

/// Writes every span of the traced run as a chrome://tracing file under
/// `perfbench/out/`, after checking it loads.
fn export_trace(
    spec: &Spec,
    args: &Args,
    spans: &[Vec<Vec<eudoxus::telemetry::Span>>],
    client: &[eudoxus::telemetry::Span],
) -> Result<(), String> {
    let all: Vec<_> = spans
        .iter()
        .flatten()
        .flatten()
        .chain(client)
        .copied()
        .collect();
    let json = eudoxus::telemetry::chrome_trace_json(&all);
    let summary = eudoxus::telemetry::validate_chrome_trace(&json)
        .map_err(|e| format!("exported trace is invalid: {e}"))?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.trace.json", spec.name, args.seed));
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} ({} spans)", path.display(), summary.events);
    Ok(())
}

fn print_metrics(kind: &str, metrics: &Metrics) {
    for Metric {
        name,
        unit,
        value,
        n,
        ..
    } in &metrics.0
    {
        let value = value.map_or("n/a".to_string(), |v| format!("{v:.4}"));
        let n = n.map_or(String::new(), |n| format!(" (n={n})"));
        println!("{kind} {name} = {value} {unit}{n}");
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics.0.iter().filter(|m| m.json) {
        let value = m
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{} has no finite value", m.name))?;
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}
