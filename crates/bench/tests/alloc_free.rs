//! Counting-allocator proof of the allocation-free steady state: after
//! one warm-up call, the scratch-reused kernels (blur, FAST, pyramid
//! rebuild, KLT, ORB) perform zero heap allocations, a warm
//! `Frontend::process` allocates far less than a cold one, and the
//! telemetry recording path (`SpanRing::record`, `Histogram::record`,
//! the full `TelemetryHub::record` round trip) allocates nothing at all.
//! The KLT and ORB checks go through the public API, so they prove
//! whichever kernels the host selects: the AVX2 ones on AVX2 hosts.
//!
//! The counting allocator is global to this test binary, so everything
//! runs inside a single `#[test]` — parallel test threads would otherwise
//! pollute each other's deltas.

use eudoxus_bench::alloc_track::{allocations, CountingAllocator};
use eudoxus_frontend::{
    compute_orb, detect_fast_into, track_pyramidal_into, FastConfig, FastScratch, Frontend,
    FrontendConfig, KltConfig, KltScratch, OrbConfig, KLT_LANES,
};
use eudoxus_image::{gaussian_blur_into, FilterScratch, GrayImage, Pyramid};
use eudoxus_sim::{Platform, ScenarioBuilder, ScenarioKind};
use eudoxus_telemetry::{Histogram, Span, SpanRing, SpanScope, TelemetryConfig, TelemetryHub};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocation events it performed.
fn alloc_delta(mut f: impl FnMut()) -> u64 {
    let before = allocations();
    f();
    allocations() - before
}

#[test]
fn steady_state_kernels_are_allocation_free() {
    let data = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
        .frames(3)
        .seed(7)
        .platform(Platform::Drone)
        .build();
    let left = &data.frames[0].left;
    let right = &data.frames[0].right;
    let next_left = &data.frames[1].left;

    // Gaussian blur (the IF task).
    let mut filter = FilterScratch::default();
    let mut blurred = GrayImage::default();
    gaussian_blur_into(left, 1.2, &mut filter, &mut blurred); // warm-up
    let d = alloc_delta(|| gaussian_blur_into(left, 1.2, &mut filter, &mut blurred));
    assert_eq!(d, 0, "warm gaussian_blur_into allocated {d} times");

    // FAST detection (the FD task), including NMS, bucketing and sorting.
    let mut fast = FastScratch::default();
    let mut kps = Vec::new();
    detect_fast_into(left, &FastConfig::default(), &mut fast, &mut kps); // warm-up
    let d = alloc_delta(|| detect_fast_into(left, &FastConfig::default(), &mut fast, &mut kps));
    assert_eq!(d, 0, "warm detect_fast_into allocated {d} times");
    assert!(!kps.is_empty(), "rendered frame must yield corners");
    // The row mask and the list of positive responses: threshold 0 fills
    // both the most, a smaller image shrinks the response map, and the
    // map grows back within its capacity.
    let dense = FastConfig {
        threshold: 0,
        ..FastConfig::default()
    };
    let mut crop = GrayImage::default();
    crop.reshape(101, 57);
    detect_fast_into(left, &dense, &mut fast, &mut kps); // warm-up
    let d = alloc_delta(|| {
        detect_fast_into(left, &dense, &mut fast, &mut kps);
        detect_fast_into(right, &FastConfig::default(), &mut fast, &mut kps);
        detect_fast_into(&crop, &dense, &mut fast, &mut kps);
        detect_fast_into(left, &FastConfig::default(), &mut fast, &mut kps);
    });
    assert_eq!(d, 0, "warm FAST mask and positive list allocated {d} times");

    // Pyramid rebuild (the per-frame pyramid of the DC/LSS tasks).
    let klt_cfg = KltConfig::default();
    let mut pyr = Pyramid::empty();
    pyr.rebuild_from(left, klt_cfg.levels); // warm-up
    let d = alloc_delta(|| pyr.rebuild_from(next_left, klt_cfg.levels));
    assert_eq!(d, 0, "warm Pyramid::rebuild_from allocated {d} times");

    // Batched KLT tracking between cached pyramids (the DC + LSS tasks):
    // the `TrackBatch` SoA state — lane position/tensor/mask arrays plus
    // the lane-interleaved window buffers — lives in `KltScratch`, so one
    // warm-up call covers every subsequent batch.
    let prev_pyr = Pyramid::build((**left).clone(), klt_cfg.levels);
    let next_pyr = Pyramid::build((**next_left).clone(), klt_cfg.levels);
    let points: Vec<(f32, f32)> = kps.iter().take(100).map(|k| (k.x, k.y)).collect();
    assert!(points.len() > 2 * KLT_LANES, "need several full batches");
    let mut klt = KltScratch::default();
    let mut outcomes = Vec::new();
    track_pyramidal_into(&prev_pyr, &next_pyr, &points, &klt_cfg, &mut klt, &mut outcomes);
    let d = alloc_delta(|| {
        track_pyramidal_into(&prev_pyr, &next_pyr, &points, &klt_cfg, &mut klt, &mut outcomes)
    });
    assert_eq!(d, 0, "warm track_pyramidal_into allocated {d} times");
    // Remainder batches (a masked tail, a partial batch, a lone lane)
    // reuse the same SoA arrays — still zero allocations.
    for count in [points.len() - 3, KLT_LANES + 1, KLT_LANES - 1, 1] {
        let pts = &points[..count];
        let d = alloc_delta(|| {
            track_pyramidal_into(&prev_pyr, &next_pyr, pts, &klt_cfg, &mut klt, &mut outcomes)
        });
        assert_eq!(d, 0, "warm batched KLT with {count} tracks allocated {d} times");
    }
    // The widest window the kernels are tested at: the DC sample grid
    // and the window buffers grow on the warm-up call, then stay warm.
    let wide = KltConfig {
        window_radius: 10,
        ..klt_cfg
    };
    track_pyramidal_into(
        &prev_pyr,
        &next_pyr,
        &points,
        &wide,
        &mut klt,
        &mut outcomes,
    );
    let d = alloc_delta(|| {
        track_pyramidal_into(
            &prev_pyr,
            &next_pyr,
            &points,
            &wide,
            &mut klt,
            &mut outcomes,
        )
    });
    assert_eq!(d, 0, "warm radius-10 KLT allocated {d} times");

    // ORB descriptors (the FC task): the pattern tables are built on
    // first use and every descriptor is a stack value.
    let orb_cfg = OrbConfig::default();
    let described = kps
        .iter()
        .filter_map(|k| compute_orb(&blurred, k, &orb_cfg))
        .count();
    assert!(described > 0, "rendered frame must yield descriptors");
    let d = alloc_delta(|| {
        for k in &kps {
            std::hint::black_box(compute_orb(&blurred, k, &orb_cfg));
        }
    });
    assert_eq!(d, 0, "warm compute_orb allocated {d} times");

    // Full frontend: response maps, blur buffers and pyramids no longer
    // allocate, so a warm frame must cost a small fraction of the cold
    // frame's allocations (what remains: the returned observations, the
    // stereo matcher's internals, ORB bookkeeping).
    let mut frontend = Frontend::new(FrontendConfig::default());
    let cold = alloc_delta(|| {
        frontend.process(left, right);
    });
    frontend.process(next_left, right); // settle track state
    let warm = alloc_delta(|| {
        frontend.process(left, right);
    });
    assert!(
        warm * 2 < cold,
        "warm Frontend::process allocated {warm} times vs {cold} cold — scratch reuse regressed"
    );

    // Telemetry span ring: storage is reserved at construction, so
    // recording — including wrap-around overwrites once the ring is
    // full — never allocates.
    let mut ring = SpanRing::new(64);
    let span = Span {
        scope: SpanScope::Kernel,
        kernel: "detect_fast",
        frame_idx: 0,
        start_ns: 0,
        dur_ns: 5,
        track: 0,
    };
    let d = alloc_delta(|| {
        for _ in 0..1_000 {
            ring.record(span);
        }
    });
    assert_eq!(d, 0, "SpanRing::record allocated {d} times");
    assert_eq!(ring.dropped(), 1_000 - 64, "ring must have wrapped");

    // Streaming histogram: a flat inline bucket array — recording is an
    // index computation and an increment.
    let mut hist = Histogram::new();
    let d = alloc_delta(|| {
        for v in 0..1_000u64 {
            hist.record(v * 997);
        }
    });
    assert_eq!(d, 0, "Histogram::record allocated {d} times");

    // The full hub round trip (clock read + ring store + histogram
    // feed): zero allocations after one warm-up sighting of each kernel
    // name (the hub pre-reserves kernel slots, so even that is cold-path
    // only).
    let hub = TelemetryHub::new(TelemetryConfig::deterministic(100));
    let t = hub.start();
    hub.record(SpanScope::Kernel, "gaussian_blur", 0, t);
    let d = alloc_delta(|| {
        for i in 0..512u64 {
            let t = hub.start();
            hub.record(SpanScope::Kernel, "gaussian_blur", i, t);
            let t = hub.start();
            hub.record(SpanScope::Frame, "frame", i, t);
        }
    });
    assert_eq!(d, 0, "warm TelemetryHub::record allocated {d} times");
}
