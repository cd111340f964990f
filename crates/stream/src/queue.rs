//! Bounded per-agent ingest queues with backpressure accounting.
//!
//! A production ingestion layer cannot buffer unboundedly: when an agent
//! produces faster than its session drains, something must give. The two
//! industry-standard answers are modeled here as [`OverflowPolicy`]:
//!
//! * **Drop** ([`OverflowPolicy::DropNewest`]) — lossy, latency-first: the
//!   incoming event is discarded and counted. Right for live deployments
//!   where a stale frame is worth less than a fresh one.
//! * **Defer** ([`OverflowPolicy::Defer`]) — lossless, throughput-first:
//!   the event is *refused* and handed back to the producer, which must
//!   retry after the consumer drains. This is the policy that propagates
//!   backpressure upstream (a [`StreamMux`](crate::StreamMux) holds the
//!   refused event as its source's head and re-offers it later).
//!
//! Every admission decision is counted in [`IngestCounters`], the numbers
//! `eudoxus_core`'s instrumentation surfaces per agent.

use crate::event::SensorEvent;
use std::collections::VecDeque;

/// What a bounded queue does with an event that arrives while full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Discard the incoming event (lossy; dropped frames are counted
    /// separately from dropped sensor readings).
    DropNewest,
    /// Refuse the event and hand it back to the producer for a later
    /// retry (lossless; the refusal is counted as a deferral).
    Defer,
}

/// Backpressure accounting for one ingest queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounters {
    /// Events admitted into the queue.
    pub accepted: u64,
    /// Image (frame) events discarded by [`OverflowPolicy::DropNewest`].
    pub frames_dropped: u64,
    /// Non-frame events (IMU/GPS/boundaries) discarded by
    /// [`OverflowPolicy::DropNewest`].
    pub events_dropped: u64,
    /// Events refused (handed back to the producer) by
    /// [`OverflowPolicy::Defer`]. One event deferred `n` times counts
    /// `n`.
    pub deferred: u64,
    /// Largest queue depth ever observed.
    pub high_watermark: usize,
}

impl IngestCounters {
    /// Total events discarded (frames + other).
    pub fn dropped(&self) -> u64 {
        self.frames_dropped + self.events_dropped
    }
}

impl eudoxus_telemetry::Telemetry for IngestCounters {
    fn publish(&self, reg: &mut eudoxus_telemetry::CounterRegistry) {
        reg.counter("accepted", self.accepted);
        reg.counter("frames_dropped", self.frames_dropped);
        reg.counter("events_dropped", self.events_dropped);
        reg.counter("deferred", self.deferred);
        reg.counter("high_watermark", self.high_watermark as u64);
    }
}

/// Outcome of [`IngestQueue::offer`].
#[derive(Debug)]
pub enum Admission {
    /// The event was queued.
    Accepted,
    /// The queue was full and the event was discarded
    /// ([`OverflowPolicy::DropNewest`]).
    Dropped,
    /// The queue was full and refuses the event; it is returned to the
    /// caller to retry later ([`OverflowPolicy::Defer`]).
    Deferred(SensorEvent),
}

/// A bounded FIFO of sensor events with an overflow policy and
/// backpressure counters. `capacity == usize::MAX` (the
/// [`unbounded`](IngestQueue::unbounded) constructor) never overflows.
#[derive(Debug, Clone)]
pub struct IngestQueue {
    events: VecDeque<SensorEvent>,
    capacity: usize,
    policy: OverflowPolicy,
    counters: IngestCounters,
}

impl Default for IngestQueue {
    fn default() -> Self {
        IngestQueue::unbounded()
    }
}

impl IngestQueue {
    /// A queue that never overflows (capacity `usize::MAX`).
    pub fn unbounded() -> Self {
        IngestQueue::bounded(usize::MAX, OverflowPolicy::Defer)
    }

    /// A queue holding at most `capacity` events, applying `policy` when
    /// full. A capacity of 0 — a queue that could never admit anything,
    /// turning every offer into a silent drop/defer loop — is clamped
    /// to 1.
    pub fn bounded(capacity: usize, policy: OverflowPolicy) -> Self {
        IngestQueue {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            policy,
            counters: IngestCounters::default(),
        }
    }

    /// Re-bounds the queue in place, keeping queued events and counters.
    /// Shrinking below the current depth is allowed: existing events stay,
    /// only future offers are refused until the queue drains. Capacity 0
    /// is clamped to 1 (see [`bounded`](IngestQueue::bounded)).
    pub fn set_limit(&mut self, capacity: usize, policy: OverflowPolicy) {
        self.capacity = capacity.max(1);
        self.policy = policy;
    }

    /// Maximum depth (`usize::MAX` when unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured overflow policy.
    pub fn policy(&self) -> OverflowPolicy {
        self.policy
    }

    /// Admission counters so far.
    pub fn counters(&self) -> IngestCounters {
        self.counters
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether the next [`offer`](IngestQueue::offer) would overflow.
    pub fn is_full(&self) -> bool {
        self.events.len() >= self.capacity
    }

    /// Queued events in FIFO order (front first).
    pub fn iter(&self) -> impl Iterator<Item = &SensorEvent> {
        self.events.iter()
    }

    /// Offers one event, applying the overflow policy when full. A
    /// [`Deferred`](Admission::Deferred) event is handed back for the
    /// producer to retry.
    pub fn offer(&mut self, event: SensorEvent) -> Admission {
        if self.is_full() {
            match self.policy {
                OverflowPolicy::DropNewest => {
                    if event.is_image() {
                        self.counters.frames_dropped += 1;
                    } else {
                        self.counters.events_dropped += 1;
                    }
                    Admission::Dropped
                }
                OverflowPolicy::Defer => {
                    self.counters.deferred += 1;
                    Admission::Deferred(event)
                }
            }
        } else {
            self.events.push_back(event);
            self.counters.accepted += 1;
            self.counters.high_watermark = self.counters.high_watermark.max(self.events.len());
            Admission::Accepted
        }
    }

    /// Takes the oldest queued event.
    pub fn pop(&mut self) -> Option<SensorEvent> {
        self.events.pop_front()
    }

    /// Discards all queued events (counters keep their history).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ImageEvent, ImuSample};
    use crate::Environment;
    use eudoxus_geometry::{PinholeCamera, StereoRig, Vec3};
    use eudoxus_image::GrayImage;
    use std::sync::Arc;

    fn imu(t: f64) -> SensorEvent {
        SensorEvent::Imu(ImuSample {
            t,
            gyro: Vec3::zero(),
            accel: Vec3::zero(),
        })
    }

    fn image(t: f64) -> SensorEvent {
        let img = Arc::new(GrayImage::new(4, 4));
        SensorEvent::Image(ImageEvent {
            t,
            environment: Environment::IndoorUnknown,
            left: Arc::clone(&img),
            right: img,
            rig: StereoRig::new(PinholeCamera::centered(50.0, 4, 4), 0.1),
            ground_truth: None,
        })
    }

    #[test]
    fn unbounded_accepts_everything() {
        let mut q = IngestQueue::unbounded();
        for i in 0..1000 {
            assert!(matches!(q.offer(imu(i as f64)), Admission::Accepted));
        }
        assert_eq!(q.len(), 1000);
        assert_eq!(q.counters().accepted, 1000);
        assert_eq!(q.counters().high_watermark, 1000);
        assert_eq!(q.counters().dropped(), 0);
    }

    #[test]
    fn drop_policy_discards_and_classifies() {
        let mut q = IngestQueue::bounded(2, OverflowPolicy::DropNewest);
        assert!(matches!(q.offer(imu(0.0)), Admission::Accepted));
        assert!(matches!(q.offer(imu(0.1)), Admission::Accepted));
        assert!(matches!(q.offer(image(0.2)), Admission::Dropped));
        assert!(matches!(q.offer(imu(0.3)), Admission::Dropped));
        let c = q.counters();
        assert_eq!(c.frames_dropped, 1);
        assert_eq!(c.events_dropped, 1);
        assert_eq!(c.dropped(), 2);
        assert_eq!(c.deferred, 0);
        assert_eq!(q.len(), 2);
        // FIFO order survives the overflow.
        assert_eq!(q.pop().unwrap().timestamp(), Some(0.0));
        // Draining reopens admission.
        assert!(matches!(q.offer(image(0.4)), Admission::Accepted));
    }

    #[test]
    fn defer_policy_returns_the_event() {
        let mut q = IngestQueue::bounded(1, OverflowPolicy::Defer);
        assert!(matches!(q.offer(image(0.0)), Admission::Accepted));
        let Admission::Deferred(back) = q.offer(image(1.0)) else {
            panic!("full Defer queue must hand the event back");
        };
        assert_eq!(back.timestamp(), Some(1.0));
        assert_eq!(q.counters().deferred, 1);
        assert_eq!(q.counters().dropped(), 0);
        // Nothing was lost: drain, retry, accepted.
        q.pop().unwrap();
        assert!(matches!(q.offer(back), Admission::Accepted));
        assert_eq!(q.counters().accepted, 2);
    }

    #[test]
    fn shrinking_keeps_queued_events() {
        let mut q = IngestQueue::unbounded();
        for i in 0..4 {
            q.offer(imu(i as f64));
        }
        q.set_limit(2, OverflowPolicy::DropNewest);
        assert_eq!(q.len(), 4, "shrink must not lose queued events");
        assert!(q.is_full());
        assert!(matches!(q.offer(imu(9.0)), Admission::Dropped));
        q.pop();
        q.pop();
        q.pop();
        assert!(matches!(q.offer(imu(10.0)), Admission::Accepted));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        // A queue that could never admit would turn the whole stream
        // into a silent drop/defer loop; the constructor forbids it.
        let mut q = IngestQueue::bounded(0, OverflowPolicy::Defer);
        assert_eq!(q.capacity(), 1);
        assert!(matches!(q.offer(imu(0.0)), Admission::Accepted));
        q.set_limit(0, OverflowPolicy::DropNewest);
        assert_eq!(q.capacity(), 1);
    }

    #[test]
    fn high_watermark_tracks_peak_depth() {
        let mut q = IngestQueue::unbounded();
        q.offer(imu(0.0));
        q.offer(imu(1.0));
        q.pop();
        q.offer(imu(2.0));
        assert_eq!(q.counters().high_watermark, 2);
    }
}
