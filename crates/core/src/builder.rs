//! One construction surface for sessions, managers and batch systems.
//!
//! [`SessionBuilder`] is the only way to build a session: configure
//! once — pipeline config, in-loop
//! [`ExecutionEngine`](crate::engine::ExecutionEngine), persisted map,
//! custom backends, faults, health, throttle, telemetry, agents, ingest
//! bounds — then [`build`] a single session, [`build_manager`] a
//! many-agent manager, or [`build_batch`] a dataset-replay [`Eudoxus`].
//!
//! ```no_run
//! use eudoxus_core::{ModeledAccelEngine, PipelineConfig, SessionBuilder};
//! use eudoxus_stream::OverflowPolicy;
//!
//! // One serving blueprint, stamped out for four agents with bounded
//! // lossless queues and a live EDX-DRONE estimate on every frame.
//! let manager = SessionBuilder::new(PipelineConfig::anchored())
//!     .engine(ModeledAccelEngine::edx_drone())
//!     .ingest_limit(32, OverflowPolicy::Defer)
//!     .agent("car")
//!     .agent("drone")
//!     .build_manager();
//! assert_eq!(manager.agent_count(), 2);
//! ```
//!
//! [`build`]: SessionBuilder::build
//! [`build_manager`]: SessionBuilder::build_manager
//! [`build_batch`]: SessionBuilder::build_batch

use crate::control::{AdmissionConfig, ThrottleConfig};
use crate::engine::{CpuEngine, ExecutionEngine};
use crate::health::HealthConfig;
use crate::pipeline::{Eudoxus, PipelineConfig};
use crate::session::{LocalizationSession, SessionManager};
use eudoxus_backend::{Backend, Registration, Slam, Vio, WorldMap};
use eudoxus_faults::{FaultPlan, FaultProcess};
use eudoxus_link::LinkModel;
use eudoxus_stream::OverflowPolicy;
use eudoxus_telemetry::TelemetryConfig;

/// Fluent constructor for [`LocalizationSession`]s (and everything built
/// from them). See the [module docs](self) for the construction surface
/// it unifies.
///
/// Custom backends are supplied as *factories* (`.backend(|| ..)`) and
/// the engine is [`fork`](ExecutionEngine::fork)ed per session, because
/// one builder can stamp out many sessions ([`build_manager`] creates one
/// per declared [`agent`]); everything else (`config`, `map`) is cloned.
///
/// [`build_manager`]: Self::build_manager
/// [`agent`]: Self::agent
pub struct SessionBuilder {
    config: PipelineConfig,
    engine: Box<dyn ExecutionEngine>,
    map: Option<WorldMap>,
    backends: Vec<Box<dyn Fn() -> Box<dyn Backend>>>,
    default_registry: bool,
    agents: Vec<String>,
    ingest_limit: Option<(usize, OverflowPolicy)>,
    link: Option<Box<dyn LinkModel>>,
    deadline_ms: Option<f64>,
    faults: Option<FaultProcess>,
    health: Option<HealthConfig>,
    throttle: Option<ThrottleConfig>,
    admission: Option<AdmissionConfig>,
    telemetry: Option<TelemetryConfig>,
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SessionBuilder(engine: {}, link: {}, map: {}, custom backends: {}, agents: {:?})",
            self.engine.name(),
            self.link.as_ref().map_or("none", |l| l.name()),
            self.map.is_some(),
            self.backends.len(),
            self.agents
        )
    }
}

impl SessionBuilder {
    /// Starts a builder with the defaults: the VIO + SLAM estimator
    /// registry, no map, and the passthrough [`CpuEngine`] (no per-frame
    /// accelerator reports).
    pub fn new(config: PipelineConfig) -> Self {
        SessionBuilder {
            config,
            engine: Box::new(CpuEngine),
            map: None,
            backends: Vec::new(),
            default_registry: true,
            agents: Vec::new(),
            ingest_limit: None,
            link: None,
            deadline_ms: None,
            faults: None,
            health: None,
            throttle: None,
            admission: None,
            telemetry: None,
        }
    }

    /// Selects the in-loop execution engine consulted after every frame
    /// (default: the passthrough [`CpuEngine`]). Attach a
    /// [`ModeledAccelEngine`](crate::engine::ModeledAccelEngine) for live
    /// EDX-CAR/EDX-DRONE estimates or a
    /// [`ScheduledEngine`](crate::engine::ScheduledEngine) to run the
    /// paper's offload scheduler inside
    /// [`push`](LocalizationSession::push).
    pub fn engine(mut self, engine: impl ExecutionEngine + 'static) -> Self {
        self.engine = Box::new(engine);
        self
    }

    /// Puts the accelerator behind a modeled communication channel:
    /// every built session's engine gets a
    /// [`fork`](LinkModel::fork) of `link` (independent channel per
    /// agent, restarted at frame 0) and re-prices offloads against its
    /// per-frame state — see the
    /// [crate docs](crate#communication-adaptive-offload-sessionbuilderlink).
    /// Engines that do not price transfers ([`CpuEngine`],
    /// [`ModeledAccelEngine`](crate::engine::ModeledAccelEngine))
    /// ignore the link.
    pub fn link(mut self, link: impl LinkModel + 'static) -> Self {
        self.link = Some(Box::new(link));
        self
    }

    /// Sets the per-frame latency budget (ms) for modeled engines (with
    /// or without a link): frames whose modeled total with offloads
    /// would exceed it are kept fully local
    /// ([`FallbackCause::DeadlineExceeded`](crate::engine::FallbackCause)),
    /// and frames still late under the all-local plan are counted as
    /// deadline misses.
    pub fn deadline_ms(mut self, deadline_ms: f64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Arms the closed-loop frame throttle on every built session: the
    /// engine's modeled frame period is compared against the config's
    /// deadline and, hysteretically, a
    /// [`FrameDirective`](eudoxus_frontend::FrameDirective) steers the
    /// next frame's frontend budget (see
    /// [`ThrottleController`](crate::control::ThrottleController)).
    /// Needs a reporting engine — under the passthrough [`CpuEngine`]
    /// the controller never observes a period and stays idle.
    pub fn throttle(mut self, config: ThrottleConfig) -> Self {
        self.throttle = Some(config);
        self
    }

    /// Arms deadline-aware admission control on managers built with
    /// [`build_manager`](Self::build_manager): image events for agents
    /// whose modeled frame period cannot meet the config's deadline are
    /// degraded or shed at the ingest gate (see
    /// [`AdmissionConfig`](crate::control::AdmissionConfig)). Ignored
    /// by [`build`](Self::build) — single sessions have no ingest gate.
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Arms span + histogram telemetry on every built session: each
    /// gets its own
    /// [`TelemetryHub`](eudoxus_telemetry::TelemetryHub) (per-agent
    /// rings and histograms; the manager assigns trace tracks) stamping
    /// frame, kernel, backend, engine and health spans. Off by default.
    /// Pure observation — an armed session's poses and modeled
    /// quantities are bit-identical to a plain one's.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Installs a persisted map: each built session gets a registration
    /// backend over (a clone of) it, enabling registration mode.
    pub fn map(mut self, map: WorldMap) -> Self {
        self.map = Some(map);
        self
    }

    /// Attaches deterministic fault injection: every built session gets
    /// a [`fork`](FaultProcess::fork) of the seeded process (independent
    /// identical degradation per agent, restarted at event 0), applied
    /// to every pushed event before it reaches the estimators. Also
    /// enables health monitoring (default thresholds unless
    /// [`health`](Self::health) set others) — the graceful-degradation
    /// reflex the faults exercise.
    pub fn faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.faults = Some(FaultProcess::new(plan, seed));
        self
    }

    /// Enables health monitoring + graceful degradation with explicit
    /// thresholds (see
    /// [`HealthMonitor`](crate::health::HealthMonitor)). Without this
    /// (or [`faults`](Self::faults)) sessions keep the historical
    /// serving behavior bit for bit and their records carry
    /// `health: None`.
    pub fn health(mut self, config: HealthConfig) -> Self {
        self.health = Some(config);
        self
    }

    /// Registers a custom estimator. The factory runs once per built
    /// session; its backend replaces any registered backend of the same
    /// mode (defaults included), so e.g.
    /// `.backend(|| MyVio::new())` swaps the stock VIO out.
    pub fn backend<B, F>(mut self, make: F) -> Self
    where
        B: Backend + 'static,
        F: Fn() -> B + 'static,
    {
        self.backends.push(Box::new(move || Box::new(make())));
        self
    }

    /// Drops the default VIO + SLAM registry: sessions carry only the
    /// backends added via [`backend`](Self::backend) /
    /// [`map`](Self::map). The registry should still cover every frame
    /// the stream will carry — frames it cannot serve come back as
    /// unserved records (held pose, `tracking: false`).
    pub fn without_default_backends(mut self) -> Self {
        self.default_registry = false;
        self
    }

    /// Declares an agent for [`build_manager`](Self::build_manager); one
    /// session is stamped from this blueprint per declared agent. Call
    /// repeatedly, in round-robin priority order.
    pub fn agent(mut self, id: impl Into<String>) -> Self {
        self.agents.push(id.into());
        self
    }

    /// Bounds every manager-built agent's ingest queue (capacity +
    /// overflow policy). Unset means unbounded — the
    /// [`add_agent`](SessionManager::add_agent) default.
    pub fn ingest_limit(mut self, capacity: usize, policy: OverflowPolicy) -> Self {
        self.ingest_limit = Some((capacity, policy));
        self
    }

    /// Stamps one session from the blueprint.
    fn assemble(&self, mut engine: Box<dyn ExecutionEngine>) -> LocalizationSession {
        if let Some(link) = &self.link {
            engine.attach_link(link.fork(), self.deadline_ms);
        } else if let Some(deadline) = self.deadline_ms {
            // A deadline without a link used to be silently ignored;
            // now it arms deadline shedding on the bus-backed engine.
            engine.set_deadline_ms(deadline);
        }
        let mut session = LocalizationSession::from_parts(self.config.clone(), engine);
        if self.default_registry {
            session.register(Box::new(Vio::new(self.config.vio)));
            session.register(Box::new(Slam::new(self.config.slam)));
        }
        if let Some(map) = &self.map {
            session.register(Box::new(Registration::new(
                map.clone(),
                self.config.registration,
            )));
        }
        for make in &self.backends {
            session.register(make());
        }
        if let Some(config) = self.health {
            session.enable_health(config);
        }
        if let Some(process) = &self.faults {
            session.attach_faults(process.fork());
        }
        if let Some(config) = self.throttle {
            session.enable_throttle(config);
        }
        if let Some(config) = self.telemetry {
            session.enable_telemetry(config);
        }
        session
    }

    /// Builds a single streaming session.
    pub fn build(self) -> LocalizationSession {
        let engine = self.engine.fork();
        self.assemble(engine)
    }

    /// Builds a [`SessionManager`] with one session per declared
    /// [`agent`](Self::agent) (none declared → an empty manager; agents
    /// can still join later via
    /// [`add_agent`](SessionManager::add_agent)), each with a
    /// [`fork`](ExecutionEngine::fork) of the engine and the configured
    /// [`ingest_limit`](Self::ingest_limit) applied.
    pub fn build_manager(self) -> SessionManager {
        let mut manager = SessionManager::new();
        if let Some(config) = self.admission {
            manager.set_admission_control(config);
        }
        for id in &self.agents {
            let session = self.assemble(self.engine.fork());
            manager.add_agent(id.clone(), session);
            if let Some((capacity, policy)) = self.ingest_limit {
                manager.set_ingest_limit(id, capacity, policy);
            }
        }
        manager
    }

    /// Builds the batch adapter: a [`Eudoxus`] replaying recorded
    /// datasets through a session stamped from this blueprint.
    pub fn build_batch(self) -> Eudoxus {
        Eudoxus::from_session(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ModeledAccelEngine;
    use eudoxus_backend::BackendMode;
    use eudoxus_stream::Environment;

    #[test]
    fn default_build_carries_default_registry_and_cpu_engine() {
        let session = SessionBuilder::new(PipelineConfig::anchored()).build();
        assert_eq!(session.registered_modes().len(), 2);
        assert_eq!(session.engine().name(), "cpu");
        assert_eq!(
            session.effective_mode(Environment::OutdoorUnknown),
            BackendMode::Vio
        );
    }

    #[test]
    fn map_enables_registration() {
        let session = SessionBuilder::new(PipelineConfig::anchored())
            .map(WorldMap::default())
            .build();
        assert!(session.backend(BackendMode::Registration).is_some());
        assert_eq!(
            session.effective_mode(Environment::IndoorKnown),
            BackendMode::Registration
        );
    }

    #[test]
    fn without_default_backends_leaves_only_customs() {
        let config = PipelineConfig::anchored();
        let vio = config.vio;
        let session = SessionBuilder::new(config)
            .without_default_backends()
            .backend(move || Vio::new(vio))
            .build();
        assert_eq!(session.registered_modes(), vec![BackendMode::Vio]);
        // Indoor frames degrade all the way to odometry.
        assert_eq!(
            session.effective_mode(Environment::IndoorUnknown),
            BackendMode::Vio
        );
    }

    #[test]
    fn custom_backend_replaces_same_mode_default() {
        let config = PipelineConfig::anchored();
        let vio = config.vio;
        let session = SessionBuilder::new(config)
            .backend(move || Vio::new(vio))
            .build();
        assert_eq!(session.registered_modes().len(), 2, "no duplicate modes");
    }

    #[test]
    fn build_manager_stamps_all_agents_with_limits_and_engine() {
        let manager = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ModeledAccelEngine::edx_drone())
            .ingest_limit(16, OverflowPolicy::Defer)
            .agent("a")
            .agent("b")
            .agent("c")
            .build_manager();
        assert_eq!(manager.agent_count(), 3);
        let ids: Vec<&str> = manager.agent_ids().collect();
        assert_eq!(ids, vec!["a", "b", "c"], "round-robin order preserved");
        for stats in manager.ingest_stats() {
            assert_eq!(stats.capacity, 16);
        }
        assert_eq!(
            manager.session("b").unwrap().engine().name(),
            "edx-drone"
        );
    }

    #[test]
    fn build_manager_without_agents_is_empty() {
        let manager = SessionBuilder::new(PipelineConfig::anchored()).build_manager();
        assert_eq!(manager.agent_count(), 0);
    }

    #[test]
    fn link_attaches_to_scheduled_engines_per_agent() {
        use crate::engine::{LinkStats, OffloadPolicy, ScheduledEngine};
        use eudoxus_accel::Platform;
        use eudoxus_link::StaticLink;

        // Each agent's engine gets its own fork of the link, with fresh
        // counters.
        let manager = SessionBuilder::new(PipelineConfig::anchored())
            .engine(ScheduledEngine::with_policy(
                Platform::edx_drone(),
                OffloadPolicy::Always,
            ))
            .link(StaticLink::new(1e8, 2e-3))
            .deadline_ms(40.0)
            .agent("a")
            .agent("b")
            .build_manager();
        for id in ["a", "b"] {
            let engine = manager.session(id).unwrap().engine();
            assert_eq!(engine.link_stats(), Some(LinkStats::default()));
        }

        // Engines that don't price transfers simply ignore the link.
        let session = SessionBuilder::new(PipelineConfig::anchored())
            .link(StaticLink::new(1e8, 2e-3))
            .build();
        assert!(session.engine().link_stats().is_none());
    }
}
