//! The closed control loop: hysteretic frame throttling and
//! deadline-aware admission control.
//!
//! PR 5's engines *observe and price* each frame; this module is where
//! the verdict steers execution. Two controllers live here:
//!
//! - [`ThrottleController`] — a per-session hysteresis loop fed the
//!   modeled frame period after every engine report. When the period
//!   exceeds the deadline for `enter_frames` consecutive frames, it
//!   issues a [`FrameDirective`] that the session applies to the
//!   frontend on the *next* frame (shrunken feature budget, shallower
//!   pyramid). Severity is
//!   *graded*: the controller carries a three-rung ladder of
//!   directives and enters at the rung matching how badly the period
//!   overshoots the deadline (`level2_ratio` / `level3_ratio`). While
//!   throttled, frames that *still* miss the deadline
//!   ([`ExecutionReport::deadline_missed`](crate::engine::ExecutionReport))
//!   for `enter_frames` consecutive frames escalate one rung; the same
//!   calm hysteresis that used to exit now first steps *down* one rung
//!   at a time, and only exits from the bottom rung. The directive
//!   stays in force until the *raw* modeled period drops below
//!   `exit_margin × min(throttled baseline, deadline)` for
//!   `exit_frames` consecutive frames — on constant load the throttled
//!   period equals its own baseline and never clears the margin, so
//!   the loop cannot oscillate (each rung re-settles and samples its
//!   own baseline).
//! - [`AdmissionConfig`] — policy for `SessionManager::try_enqueue`:
//!   an agent whose (health-weighted) modeled frame period exceeds its
//!   deadline has image frames decimated (admit one in
//!   `degrade_keep`), and one whose period exceeds
//!   `shed_factor × deadline` is shed outright. Counters in
//!   [`AdmissionStats`] conserve: `offered == admitted + degraded + shed`.
//!
//! Both controllers are deterministic functions of the modeled load —
//! no wall-clock reads — so throttled runs replay bit-identically.

use eudoxus_frontend::FrameDirective;

/// Configuration for the per-session throttle loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleConfig {
    /// Deadline on the modeled frame period (milliseconds).
    pub deadline_ms: f64,
    /// Consecutive modeled overruns required to *enter* throttling.
    pub enter_frames: u32,
    /// Consecutive under-threshold frames required to *exit*.
    pub exit_frames: u32,
    /// Exit threshold as a fraction of `min(throttled baseline,
    /// deadline)`. Must be `< 1.0` for the no-oscillation guarantee.
    pub exit_margin: f64,
    /// EWMA smoothing factor for the reported modeled period
    /// (`0 < smoothing <= 1`; 1 = no smoothing).
    pub smoothing: f64,
    /// The severity ladder, mildest first: rung 1 is issued on a small
    /// overshoot, rung 3 on a gross one (or after repeated deadline
    /// misses escalate the loop).
    pub directives: [FrameDirective; 3],
    /// Overshoot ratio (`modeled period / deadline`) at or above which
    /// the loop *enters* directly at rung 2.
    pub level2_ratio: f64,
    /// Overshoot ratio at or above which the loop enters at rung 3.
    pub level3_ratio: f64,
}

impl ThrottleConfig {
    /// A conservative default policy for the given deadline.
    pub fn new(deadline_ms: f64) -> Self {
        ThrottleConfig {
            deadline_ms,
            enter_frames: 2,
            exit_frames: 4,
            exit_margin: 0.8,
            smoothing: 0.3,
            directives: [
                FrameDirective::mild(),
                FrameDirective::throttled(),
                FrameDirective::severe(),
            ],
            level2_ratio: 1.5,
            level3_ratio: 2.5,
        }
    }

    /// Collapses the ladder to a single directive issued at every rung
    /// — the pre-ladder fixed-severity behavior.
    pub fn with_directive(mut self, directive: FrameDirective) -> Self {
        self.directives = [directive; 3];
        self
    }

    /// Replaces the full severity ladder, mildest first.
    pub fn with_ladder(mut self, directives: [FrameDirective; 3]) -> Self {
        self.directives = directives;
        self
    }
}

/// Counters describing one session's throttle history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThrottleStats {
    /// Frames observed by the controller.
    pub frames: u64,
    /// Frames processed while a directive was in force.
    pub throttled_frames: u64,
    /// Times the loop entered throttling.
    pub entries: u64,
    /// Times the loop exited throttling.
    pub exits: u64,
    /// Times the loop stepped *up* a rung while already throttled
    /// (consecutive deadline misses under the current directive).
    pub escalations: u64,
    /// Times the calm hysteresis stepped *down* a rung without exiting.
    pub deescalations: u64,
}

impl eudoxus_telemetry::Telemetry for ThrottleStats {
    fn publish(&self, reg: &mut eudoxus_telemetry::CounterRegistry) {
        reg.counter("frames", self.frames);
        reg.counter("throttled_frames", self.throttled_frames);
        reg.counter("entries", self.entries);
        reg.counter("exits", self.exits);
        reg.counter("escalations", self.escalations);
        reg.counter("deescalations", self.deescalations);
        reg.gauge("throttle_rate", self.throttle_rate());
    }
}

impl ThrottleStats {
    /// Fraction of observed frames spent throttled.
    pub fn throttle_rate(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.throttled_frames as f64 / self.frames as f64
        }
    }
}

/// Frames the controller waits after entering throttling before it
/// samples the throttled baseline (lets the shrunken budget take
/// effect — the directive applies to the *next* frame).
const SETTLE_FRAMES: u32 = 2;

/// Deterministic hysteresis loop turning modeled frame periods into
/// [`FrameDirective`]s. See the module docs for the contract.
#[derive(Debug, Clone)]
pub struct ThrottleController {
    config: ThrottleConfig,
    /// Severity rung in force: 0 = unthrottled, 1..=3 index the ladder.
    level: u8,
    overrun_streak: u32,
    calm_streak: u32,
    /// Consecutive deadline-missed frames under the current rung
    /// (post-settle) — the escalation trigger.
    miss_streak: u32,
    settle_left: u32,
    /// Raw modeled period sampled once the current rung's budget has
    /// taken effect; the exit threshold is relative to this.
    baseline: Option<f64>,
    /// EWMA of the modeled period (reporting only; decisions use raw).
    period: Option<f64>,
    stats: ThrottleStats,
}

impl ThrottleController {
    /// Creates an idle (unthrottled) controller.
    pub fn new(config: ThrottleConfig) -> Self {
        ThrottleController {
            config,
            level: 0,
            overrun_streak: 0,
            calm_streak: 0,
            miss_streak: 0,
            settle_left: 0,
            baseline: None,
            period: None,
            stats: ThrottleStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ThrottleConfig {
        &self.config
    }

    /// Whether a directive is currently in force.
    pub fn is_throttled(&self) -> bool {
        self.level > 0
    }

    /// The severity rung in force: 0 = unthrottled, 1 (mildest) to 3.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Smoothed modeled frame period (ms), if any frame was observed.
    pub fn modeled_period_ms(&self) -> Option<f64> {
        self.period
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ThrottleStats {
        self.stats
    }

    /// The directive to apply to the next frame, if throttled.
    pub fn directive(&self) -> Option<FrameDirective> {
        (self.level > 0).then(|| self.config.directives[usize::from(self.level - 1)])
    }

    /// The rung the loop would enter at for this overshoot ratio.
    fn entry_level(&self, modeled_period_ms: f64) -> u8 {
        let ratio = modeled_period_ms / self.config.deadline_ms;
        if ratio >= self.config.level3_ratio {
            3
        } else if ratio >= self.config.level2_ratio {
            2
        } else {
            1
        }
    }

    /// Moves to `level` and restarts the settle window: the new rung's
    /// directive steers the *next* frame, so its baseline must be
    /// resampled before the calm hysteresis can act.
    fn enter_level(&mut self, level: u8) {
        self.level = level;
        self.settle_left = SETTLE_FRAMES;
        self.baseline = None;
        self.calm_streak = 0;
        self.miss_streak = 0;
    }

    /// Feeds one modeled frame period (ms) and returns the directive
    /// for the *next* frame. Equivalent to
    /// [`observe_with_miss`](Self::observe_with_miss) with no deadline
    /// miss — escalation never triggers through this path.
    pub fn observe(&mut self, modeled_period_ms: f64) -> Option<FrameDirective> {
        self.observe_with_miss(modeled_period_ms, false)
    }

    /// Feeds one modeled frame period (ms) plus whether the frame
    /// *still* missed its deadline after the engine's offload plan, and
    /// returns the directive for the *next* frame. `enter_frames`
    /// consecutive misses under a rung escalate one rung up.
    pub fn observe_with_miss(
        &mut self,
        modeled_period_ms: f64,
        deadline_missed: bool,
    ) -> Option<FrameDirective> {
        self.stats.frames += 1;
        let alpha = self.config.smoothing.clamp(f64::EPSILON, 1.0);
        self.period = Some(match self.period {
            Some(p) => p + alpha * (modeled_period_ms - p),
            None => modeled_period_ms,
        });
        if self.level > 0 {
            self.stats.throttled_frames += 1;
            if self.settle_left > 0 {
                // The directive issued on entry steers the *next*
                // frame; skip the frames still priced at full budget.
                self.settle_left -= 1;
                if self.settle_left == 0 {
                    self.baseline = Some(modeled_period_ms);
                }
            } else if deadline_missed && self.level < 3 {
                // The current rung is not enough: the engine's final
                // plan still blew the deadline. Repeats escalate.
                self.miss_streak += 1;
                self.calm_streak = 0;
                if self.miss_streak >= self.config.enter_frames {
                    self.enter_level(self.level + 1);
                    self.stats.escalations += 1;
                }
            } else {
                self.miss_streak = 0;
                let baseline = self.baseline.unwrap_or(self.config.deadline_ms);
                let threshold = self.config.exit_margin * baseline.min(self.config.deadline_ms);
                if modeled_period_ms < threshold {
                    self.calm_streak += 1;
                    if self.calm_streak >= self.config.exit_frames {
                        if self.level > 1 {
                            // Step down one rung and re-settle there;
                            // exiting outright from a deep rung would
                            // forfeit the hysteresis on the way back.
                            self.enter_level(self.level - 1);
                            self.stats.deescalations += 1;
                        } else {
                            self.level = 0;
                            self.calm_streak = 0;
                            self.miss_streak = 0;
                            self.baseline = None;
                            self.stats.exits += 1;
                        }
                    }
                } else {
                    self.calm_streak = 0;
                }
            }
        } else if modeled_period_ms > self.config.deadline_ms {
            self.overrun_streak += 1;
            if self.overrun_streak >= self.config.enter_frames {
                self.overrun_streak = 0;
                self.enter_level(self.entry_level(modeled_period_ms));
                self.stats.entries += 1;
            }
        } else {
            self.overrun_streak = 0;
        }
        self.directive()
    }
}

/// Policy for deadline-aware admission control in `SessionManager`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Deadline on the agent's modeled frame period (milliseconds).
    pub deadline_ms: f64,
    /// Shed outright when the effective period exceeds
    /// `shed_factor × deadline_ms`.
    pub shed_factor: f64,
    /// While degrading (deadline < period ≤ shed threshold), admit one
    /// image frame in every `degrade_keep`.
    pub degrade_keep: u32,
    /// Multiplier on the modeled period for agents stuck below
    /// `Nominal` health — deprioritizes degraded agents first.
    pub health_penalty: f64,
}

impl AdmissionConfig {
    /// A conservative default policy for the given deadline.
    pub fn new(deadline_ms: f64) -> Self {
        AdmissionConfig {
            deadline_ms,
            shed_factor: 2.0,
            degrade_keep: 2,
            health_penalty: 1.5,
        }
    }
}

/// Per-agent admission counters. Invariant:
/// `offered == admitted + degraded + shed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Image frames offered to the gate.
    pub offered: u64,
    /// Frames admitted to the agent's inbox gate.
    pub admitted: u64,
    /// Frames dropped by degrade-mode decimation.
    pub degraded: u64,
    /// Frames shed because the agent cannot meet its deadline.
    pub shed: u64,
}

impl eudoxus_telemetry::Telemetry for AdmissionStats {
    fn publish(&self, reg: &mut eudoxus_telemetry::CounterRegistry) {
        reg.counter("offered", self.offered);
        reg.counter("admitted", self.admitted);
        reg.counter("degraded", self.degraded);
        reg.counter("shed", self.shed);
        reg.gauge("shed_rate", self.shed_rate());
    }
}

impl AdmissionStats {
    /// Fraction of offered frames shed outright.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_throttle_enters_after_consecutive_overruns() {
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        assert!(tc.observe(20.0).is_none(), "one overrun must not trigger");
        assert!(tc.observe(20.0).is_some(), "second consecutive overrun triggers");
        assert_eq!(tc.stats().entries, 1);
    }

    #[test]
    fn control_throttle_single_overruns_never_trigger() {
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        for _ in 0..50 {
            assert!(tc.observe(20.0).is_none());
            assert!(tc.observe(5.0).is_none());
        }
        assert_eq!(tc.stats().entries, 0);
    }

    #[test]
    fn control_throttle_exits_when_load_falls_away() {
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        tc.observe(20.0);
        tc.observe(20.0);
        assert!(tc.is_throttled());
        assert_eq!(tc.level(), 2, "2× overshoot enters the middle rung");
        // Settle frames still reflect the unthrottled budget.
        tc.observe(20.0);
        tc.observe(6.0); // baseline sampled: 6.0
        // Load collapses well below margin × baseline: down to rung 1.
        for _ in 0..tc.config().exit_frames {
            tc.observe(1.0);
        }
        assert_eq!(tc.level(), 1);
        // Rung 1 settles, baselines, and the calm walks the loop out.
        tc.observe(1.0);
        tc.observe(1.0);
        for _ in 0..tc.config().exit_frames {
            tc.observe(0.1);
        }
        assert!(!tc.is_throttled());
        assert_eq!(tc.stats().exits, 1);
    }

    #[test]
    fn control_throttle_constant_load_does_not_oscillate() {
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        // Constant overload: throttled period equals its own baseline,
        // which never clears the exit margin.
        for _ in 0..200 {
            tc.observe(15.0);
        }
        assert_eq!(tc.stats().entries, 1);
        assert_eq!(tc.stats().exits, 0);
        assert!(tc.is_throttled());
    }

    #[test]
    fn control_throttle_enters_at_rung_matching_overshoot() {
        // Just past the deadline → mildest rung.
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        tc.observe(12.0);
        tc.observe(12.0);
        assert_eq!(tc.level(), 1);
        assert_eq!(tc.directive(), Some(FrameDirective::mild()));
        // level2_ratio (1.5×) → middle rung.
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        tc.observe(16.0);
        tc.observe(16.0);
        assert_eq!(tc.level(), 2);
        assert_eq!(tc.directive(), Some(FrameDirective::throttled()));
        // level3_ratio (2.5×) → deepest rung.
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        tc.observe(30.0);
        tc.observe(30.0);
        assert_eq!(tc.level(), 3);
        assert_eq!(tc.directive(), Some(FrameDirective::severe()));
    }

    #[test]
    fn control_throttle_escalates_on_repeated_deadline_misses() {
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        tc.observe(12.0);
        tc.observe(12.0);
        assert_eq!(tc.level(), 1);
        // Settle frames first, then misses under the rung escalate.
        tc.observe_with_miss(12.0, true);
        tc.observe_with_miss(12.0, true);
        assert_eq!(tc.level(), 1, "settle window absorbs the first misses");
        tc.observe_with_miss(12.0, true);
        tc.observe_with_miss(12.0, true);
        assert_eq!(tc.level(), 2);
        assert_eq!(tc.stats().escalations, 1);
        // Each rung re-settles before it can escalate again.
        tc.observe_with_miss(12.0, true);
        tc.observe_with_miss(12.0, true);
        tc.observe_with_miss(12.0, true);
        tc.observe_with_miss(12.0, true);
        assert_eq!(tc.level(), 3);
        assert_eq!(tc.stats().escalations, 2);
        // The top rung has nowhere to go.
        for _ in 0..10 {
            tc.observe_with_miss(12.0, true);
        }
        assert_eq!(tc.level(), 3);
        assert_eq!(tc.stats().escalations, 2);
        assert_eq!(tc.stats().entries, 1, "escalation is not re-entry");
    }

    #[test]
    fn control_throttle_deescalates_one_rung_at_a_time() {
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0));
        tc.observe(30.0);
        tc.observe(30.0);
        assert_eq!(tc.level(), 3);
        tc.observe(30.0);
        tc.observe(8.0); // baseline for rung 3
        // Calm frames step down to rung 2, not straight out.
        for _ in 0..tc.config().exit_frames {
            tc.observe(1.0);
        }
        assert_eq!(tc.level(), 2);
        assert_eq!(tc.stats().deescalations, 1);
        assert_eq!(tc.stats().exits, 0);
        assert!(tc.is_throttled());
        // Rung 2 re-settles, samples its own baseline, then the same
        // calm hysteresis walks the rest of the ladder down and out.
        tc.observe(1.0);
        tc.observe(1.0);
        for _ in 0..tc.config().exit_frames {
            tc.observe(0.1);
        }
        assert_eq!(tc.level(), 1);
        assert_eq!(tc.stats().deescalations, 2);
        tc.observe(0.1);
        tc.observe(0.1);
        for _ in 0..tc.config().exit_frames {
            tc.observe(0.01);
        }
        assert!(!tc.is_throttled());
        assert_eq!(tc.stats().exits, 1);
    }

    #[test]
    fn control_throttle_with_directive_collapses_ladder() {
        let fixed = FrameDirective {
            max_keypoints: 99,
            max_tracks: 50,
            max_pyramid_levels: 1,
        };
        let mut tc = ThrottleController::new(ThrottleConfig::new(10.0).with_directive(fixed));
        tc.observe(30.0);
        tc.observe(30.0);
        assert_eq!(tc.level(), 3, "entry grading still applies");
        assert_eq!(tc.directive(), Some(fixed), "but every rung issues the same directive");
    }

    #[test]
    fn control_admission_stats_rates() {
        let s = AdmissionStats {
            offered: 10,
            admitted: 5,
            degraded: 3,
            shed: 2,
        };
        assert_eq!(s.offered, s.admitted + s.degraded + s.shed);
        assert!((s.shed_rate() - 0.2).abs() < 1e-12);
        assert_eq!(AdmissionStats::default().shed_rate(), 0.0);
    }
}
