//! Criterion benchmark of the sensor-fault injector on one rendered
//! 640x480 stereo image event: the seed process, which drew each pixel's
//! noise from a sequential generator, against the live counter-based one.

use criterion::{criterion_group, criterion_main, Criterion};
use eudoxus_bench::baseline::BaselineFaultProcess;
use eudoxus_faults::{FaultProcess, FaultProfile};
use eudoxus_sim::{Platform, ScenarioBuilder, ScenarioKind};
use eudoxus_stream::SensorEvent;
use std::hint::black_box;

fn bench_faults(c: &mut Criterion) {
    let data = ScenarioBuilder::new(ScenarioKind::IndoorUnknown)
        .frames(1)
        .seed(7)
        .platform(Platform::Drone)
        .build();
    let Some(image) = data.events().find(|e| e.is_image()) else {
        panic!("a one-frame dataset emits an image event");
    };
    // `dusty_site` at source frame 6: exposure ramp at 40 % and pixel
    // noise, outside the blackout window, so both eyes are corrupted.
    let plan = FaultProfile::dusty_site().plan;
    let (mut live, mut seed) = (
        FaultProcess::new(plan, 42),
        BaselineFaultProcess::new(plan, 42),
    );
    for _ in 0..6 {
        live.apply(image.clone());
        seed.apply(image.clone());
    }
    let corrupted = |out: Option<SensorEvent>| match out {
        Some(SensorEvent::Image(ev)) => black_box(ev.left.as_raw()[0]),
        _ => panic!("frame 6 of dusty_site is delivered"),
    };
    c.bench_function("fault_apply_640x480_stereo_seed_baseline", |b| {
        b.iter(|| corrupted(seed.clone().apply(black_box(image.clone()))))
    });
    c.bench_function("fault_apply_640x480_stereo", |b| {
        b.iter(|| corrupted(live.clone().apply(black_box(image.clone()))))
    });
}

criterion_group!(benches, bench_faults);
criterion_main!(benches);
