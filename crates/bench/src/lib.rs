//! Shared harness for the experiment regenerators.
//!
//! One binary per table/figure group of the paper (see DESIGN.md §3):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig03_accuracy` | Fig. 3a–d: error vs frame rate per algorithm per environment |
//! | `characterization` | Figs. 5–11: latency splits, kernel breakdowns, per-frame variation |
//! | `fig16_kernel_scaling` | Fig. 16a–c: kernel latency vs matrix size + fits |
//! | `table1_blocks` | Table I: kernel → building-block decomposition |
//! | `table2_resources` | Table II + the SB saving of Sec. VII-D |
//! | `evaluation` | Figs. 17–21: latency/SD/FPS/energy, baseline vs accelerated, both platforms |
//! | `sched_eval` | Sec. VII-F: scheduler R², oracle comparison, offload rates |
//! | `table3_baselines` | Table III: speedups over CPU/GPU/DSP baselines |
//! | `accuracy_check` | Sec. IV-A: relative trajectory error of the unified framework |
//!
//! Run any of them with
//! `cargo run --release -p eudoxus-bench --bin <name>`.
//!
//! Two support modules back the performance trajectory:
//! [`baseline`] preserves the seed frontend kernels, the seed
//! bundle-adjustment solve, SLAM backend and dense kernels (the before of
//! every before/after comparison, and the golden references), and
//! [`alloc_track`] counts heap allocations
//! (install via the `count-alloc` feature). The `throughput` binary ties
//! them together and writes `BENCH_throughput.json`.

pub mod alloc_track;
pub mod baseline;

use eudoxus_core::{PipelineConfig, RunLog, SessionBuilder};
use eudoxus_sim::{Dataset, Platform, ScenarioBuilder, ScenarioKind};

/// Builds a dataset with the harness defaults.
pub fn dataset(kind: ScenarioKind, platform: Platform, frames: usize, seed: u64) -> Dataset {
    ScenarioBuilder::new(kind)
        .frames(frames)
        .fps(10.0)
        .seed(seed)
        .platform(platform)
        .build()
}

/// Runs the unified pipeline over a dataset, ground-truth anchored.
pub fn run_pipeline(data: &Dataset) -> RunLog {
    let mut system = SessionBuilder::new(PipelineConfig::anchored()).build_batch();
    system.process_dataset(data)
}

/// Runs the pipeline with a map (registration enabled), surveying first.
pub fn run_pipeline_with_map(data: &Dataset) -> RunLog {
    let map = eudoxus_core::build_map(data, &PipelineConfig::anchored());
    let mut system = SessionBuilder::new(PipelineConfig::anchored()).map(map).build_batch();
    system.process_dataset(data)
}

/// Asserts two [`TrackOutcome`](eudoxus_frontend::TrackOutcome) slices
/// are **bit-identical**: `Tracked` positions and residuals are compared
/// at the bit level (`f32::to_bits`), every other variant by equality.
/// The one definition of "same output" every KLT bit-identity harness
/// (golden, property, unit) compares against.
///
/// # Panics
///
/// Panics with `what` and the point index on the first mismatch.
pub fn assert_outcomes_bit_identical(
    a: &[eudoxus_frontend::TrackOutcome],
    b: &[eudoxus_frontend::TrackOutcome],
    what: &str,
) {
    use eudoxus_frontend::TrackOutcome;
    assert_eq!(a.len(), b.len(), "{what}: outcome count");
    for (i, (oa, ob)) in a.iter().zip(b).enumerate() {
        match (oa, ob) {
            (
                TrackOutcome::Tracked { x: ax, y: ay, residual: ar },
                TrackOutcome::Tracked { x: bx, y: by, residual: br },
            ) => {
                assert_eq!(ax.to_bits(), bx.to_bits(), "{what}: point {i} x");
                assert_eq!(ay.to_bits(), by.to_bits(), "{what}: point {i} y");
                assert_eq!(ar.to_bits(), br.to_bits(), "{what}: point {i} residual");
            }
            _ => assert_eq!(oa, ob, "{what}: point {i}"),
        }
    }
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" |"));
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_builds_and_runs_small() {
        let d = dataset(ScenarioKind::IndoorUnknown, Platform::Drone, 2, 1);
        let log = run_pipeline(&d);
        assert_eq!(log.len(), 2);
    }
}
