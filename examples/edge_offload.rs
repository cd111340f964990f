//! Edge offload over a degrading channel: the same trained scheduler
//! (Sec. VI-B) re-pricing every kernel against a *modeled link* instead
//! of the fixed on-board bus.
//!
//! The paper's accelerators sit one DMA hop away (PCIe 3.0 on EDX-CAR,
//! AXI4 on EDX-DRONE), so transfer cost is a constant of the platform.
//! An edge deployment moves the fabric to the far end of a radio or
//! uplink whose bandwidth, latency and loss change frame to frame. This
//! example sweeps the three canned `LinkProfile`s — `lan_stable`,
//! `congested_uplink`, `urban_canyon_dropout` — over the same scenario
//! and shows the in-loop scheduler shedding offloads as the channel
//! degrades: kernels stay local when the priced round trip loses to the
//! CPU regression, whole frames fall back when the link drops them
//! (`FallbackCause::FrameLost`) or the modeled latency would blow the
//! deadline (`FallbackCause::DeadlineExceeded`).
//!
//! Every profile is a seeded deterministic process: rerunning this
//! example replays bit-identical link traces and decisions.
//!
//! Run with: `cargo run --release --example edge_offload`

use eudoxus::prelude::*;
use eudoxus_sim::Platform as SimPlatform;

const FRAMES: usize = 24;
const LINK_SEED: u64 = 42;
const DEADLINE_MS: f64 = 80.0;

fn main() {
    let dataset = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
        .frames(FRAMES)
        .fps(10.0)
        .seed(11)
        .platform(SimPlatform::Drone)
        .build();
    println!("=== edge offload: EDX-DRONE fabric behind a modeled link ===");
    println!("indoor SLAM flight, {} frames at 640x480\n", dataset.frames.len());

    // Offline profiling pass (all-CPU) to fit the per-kernel
    // regressions, exactly as in `offload_decision.rs`.
    let mut profiler = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    let profile_log = profiler.process_dataset(&dataset);
    let model = AccelModel::new(Platform::edx_drone());
    let policy = match model.train_scheduler(&profile_log, 1.0) {
        Some(sched) => OffloadPolicy::Scheduled(sched),
        None => OffloadPolicy::Always,
    };

    let mut summary_rows = Vec::new();
    for profile in LinkProfile::canned() {
        let name = profile.name;
        println!("--- link profile: {name} ---");
        let mut session = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ScheduledEngine::with_policy(
                Platform::edx_drone(),
                policy.clone(),
            ))
            .link(StochasticLink::new(profile, LINK_SEED))
            .deadline_ms(DEADLINE_MS)
            .build();
        println!(
            "{:>5} {:>9} {:>9} {:>9} {:>11}  verdict",
            "frame", "bw MB/s", "lat ms", "offload", "modeled ms"
        );
        let mut log = RunLog::new();
        for event in dataset.events() {
            let Some(record) = session.push(event) else {
                continue;
            };
            let report = record.execution.as_ref().expect("engine reports every frame");
            let link = report.link.expect("link-backed engine stamps every report");
            let verdict = match report.fallback {
                Some(cause) => format!("all-CPU ({cause})"),
                None if report.offloadable == 0 => "nothing offloadable".to_string(),
                None => format!("{}/{} kernels offloaded", report.offloaded, report.offloadable),
            };
            println!(
                "{:>5} {:>9.1} {:>9.2} {:>6}/{:<2} {:>11.1}  {}",
                record.index,
                link.bandwidth_bps / 1e6,
                link.latency_s * 1e3,
                report.offloaded,
                report.offloadable,
                report.total_ms(),
                verdict,
            );
            log.records.push(record);
        }
        let run = log.execution_run().expect("every record carries a report");
        let stats = session.engine().link_stats().expect("link attached");
        // Per-profile snapshot via the shared counter-registry printer:
        // the link's counters appear under `link.*` alongside the health
        // and throttle surfaces the session always carries.
        let mut reg = CounterRegistry::new();
        session.publish_counters(&mut reg);
        print!("{reg}");
        println!(
            "offload rate {:.0}% | fallback rate {:.0}% | modeled {:.1} ms mean\n",
            run.offload_rate() * 100.0,
            run.fallback_rate() * 100.0,
            run.summary().mean,
        );
        summary_rows.push((name, run.offload_rate(), run.fallback_rate(), stats));
    }

    println!("=== sweep summary (best -> worst channel) ===");
    println!(
        "{:<22} {:>9} {:>9} {:>7} {:>10}",
        "profile", "offload%", "fallback%", "lost", "frames"
    );
    for (name, offload, fallback, stats) in &summary_rows {
        println!(
            "{:<22} {:>8.0}% {:>8.0}% {:>7} {:>10}",
            name,
            offload * 100.0,
            fallback * 100.0,
            stats.frames_lost,
            stats.frames,
        );
    }
    println!(
        "\nnote: the sweep is monotone by construction — lan_stable prices\n\
         transfers near the on-board bus, congested_uplink taxes them with\n\
         ramps and spikes, and urban_canyon_dropout adds loss bursts that\n\
         force whole frames back onto the CPU."
    );
}
