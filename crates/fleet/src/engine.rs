//! The fleet engine: epoch-synchronized execution over N nodes with a
//! bounded-admission front door.
//!
//! # Execution
//!
//! Everything runs on the coordinator thread. Between boundaries the
//! coordinator steps every node to the next boundary in `NodeId`
//! order. An epoch holds only microseconds of node work, less than the
//! cost of handing nodes to other threads and waiting for them, so
//! threaded stepping measures slower than this loop (DESIGN.md §10 has
//! the numbers).
//!
//! # Determinism rules
//!
//! Same seed, same trace, same policy ⇒ byte-identical results, because:
//!
//! 1. **Routing is sequential.** All routing decisions happen on the
//!    coordinator at epoch boundaries, in trace order, against node
//!    views snapshotted in `NodeId` order.
//! 2. **Node stepping is independent.** Between boundaries each node
//!    advances its own `System` to the same horizon; nodes share no
//!    state, and each has its own telemetry hub, so the order in which
//!    nodes are stepped cannot be observed. This rule is what would make
//!    parallel stepping safe again if a workload ever needs it.
//! 3. **Merging is ordered.** Summaries and the fleet journal are
//!    assembled in `NodeId` order once every node has drained;
//!    timestamps are simulation-time only.

use crate::node::{Node, NodeConfig, NodeId, NodeSummary, NodeView};
use crate::routing::{JobView, RoutingPolicy};
use avfs_core::daemon::DaemonStats;
use avfs_sim::time::{SimDuration, SimTime};
use avfs_telemetry::{Telemetry, TraceKind, Value};
use avfs_workloads::{IntensityClass, WorkloadTrace};

/// Fleet-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The nodes, in `NodeId` order.
    pub nodes: Vec<NodeConfig>,
    /// Epoch length: arrivals are admitted at epoch boundaries and all
    /// nodes synchronize on the boundary clock.
    pub epoch: SimDuration,
    /// When true, the coordinator and every node get a telemetry hub and
    /// the run exports a merged fleet journal.
    pub telemetry: bool,
}

impl FleetConfig {
    /// A fleet over the given nodes with 1 s epochs and telemetry off.
    pub fn new(nodes: Vec<NodeConfig>) -> Self {
        FleetConfig {
            nodes,
            epoch: SimDuration::from_secs(1),
            telemetry: false,
        }
    }
}

/// Front-door admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Jobs that reached the front door.
    pub submitted: u64,
    /// Jobs admitted to some node.
    pub admitted: u64,
    /// Jobs shed because the chosen node (or every node) was at its
    /// admission bound.
    pub shed_full: u64,
    /// Jobs shed because the policy declined or named an unknown node.
    pub shed_unroutable: u64,
}

impl AdmissionStats {
    /// Total jobs shed.
    pub fn shed(&self) -> u64 {
        self.shed_full + self.shed_unroutable
    }
}

/// Why one front-door job was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShedReason {
    Declined,
    UnknownNode,
    Full,
}

impl ShedReason {
    fn label(self) -> &'static str {
        match self {
            ShedReason::Declined => "declined",
            ShedReason::UnknownNode => "unknown-node",
            ShedReason::Full => "full",
        }
    }
}

/// A cluster of simulated nodes behind one admission front door.
#[derive(Debug)]
pub struct Fleet {
    nodes: Vec<Node>,
    epoch: SimDuration,
    telemetry: Telemetry,
    /// Reused routing-view buffer: `try_place` runs once per routed
    /// job, so the view set is rebuilt in place instead of collected
    /// fresh each time.
    view_scratch: Vec<NodeView>,
}

impl Fleet {
    /// Starts a [`FleetBuilder`] — the blessed construction path:
    ///
    /// ```
    /// use avfs_fleet::{Fleet, NodeConfig, NodeKind};
    ///
    /// let fleet = Fleet::builder()
    ///     .node(NodeConfig::new(NodeKind::XGene2, 42))
    ///     .node(NodeConfig::new(NodeKind::XGene3, 43))
    ///     .build();
    /// assert_eq!(fleet.len(), 2);
    /// ```
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            config: FleetConfig::new(Vec::new()),
        }
    }

    /// Builds the fleet: every node gets its own chip, driver, seed, and
    /// (when enabled) telemetry hub; drivers observe their first monitor
    /// tick immediately.
    fn from_config(config: &FleetConfig) -> Self {
        let coordinator = if config.telemetry {
            Telemetry::hub()
        } else {
            Telemetry::null()
        };
        let nodes = config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nc)| {
                let id = NodeId(u16::try_from(i).unwrap_or(u16::MAX));
                let tel = if config.telemetry {
                    Telemetry::hub()
                } else {
                    Telemetry::null()
                };
                Node::build(id, nc, tel)
            })
            .collect();
        Fleet {
            nodes,
            epoch: config.epoch,
            telemetry: coordinator,
            view_scratch: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Runs the trace through the front door to completion and returns
    /// the cluster summary. Consumes the fleet: nodes are single-run,
    /// like [`avfs_sched::System`].
    ///
    /// Arrivals are admitted at the first epoch boundary at or after
    /// their trace timestamp, in trace order; between boundaries every
    /// node advances to the next boundary, stepped in `NodeId` order on
    /// the calling thread. Once every arrival is routed, the nodes drain
    /// to idle.
    pub fn run(mut self, trace: &WorkloadTrace, policy: &mut dyn RoutingPolicy) -> FleetSummary {
        let mut stats = AdmissionStats::default();
        let mut now = SimTime::ZERO;
        let mut next = 0usize;

        loop {
            // Route everything due at this boundary, in trace order.
            while next < trace.arrivals.len() && trace.arrivals[next].at <= now {
                let a = &trace.arrivals[next];
                next += 1;
                self.route_one(JobView::of(a.bench, a.threads, a.scale), policy, &mut stats);
            }
            if next >= trace.arrivals.len() {
                break;
            }
            now += self.epoch;
            for n in &mut self.nodes {
                n.step_to(now);
            }
        }

        // All work routed: drain every node to idle.
        for n in &mut self.nodes {
            n.drain();
        }
        self.finish(policy.name(), stats)
    }

    /// One front-door routing decision: place, admit, and trace — or
    /// shed through the single counted-and-traced shed path.
    fn route_one(
        &mut self,
        job: JobView,
        policy: &mut dyn RoutingPolicy,
        stats: &mut AdmissionStats,
    ) {
        stats.submitted += 1;
        match self.try_place(&job, policy) {
            Ok(id) => {
                self.admit(id, &job);
                stats.admitted += 1;
                let class_label = class_label(job.class);
                self.telemetry.trace(TraceKind::FleetRoute, || {
                    vec![
                        ("node", Value::U64(u64::from(id.0))),
                        ("bench", Value::Str(job.bench.name())),
                        ("threads", Value::U64(job.threads as u64)),
                        ("class", Value::Str(class_label)),
                    ]
                });
            }
            Err(reason) => self.shed(stats, reason, &job),
        }
    }

    /// Consults the policy against every node's view and validates the
    /// choice. Pure with respect to admission: the caller admits or
    /// sheds.
    fn try_place(
        &mut self,
        job: &JobView,
        policy: &mut dyn RoutingPolicy,
    ) -> Result<NodeId, ShedReason> {
        let mut views = std::mem::take(&mut self.view_scratch);
        views.clear();
        views.extend(self.nodes.iter().map(Node::view));
        // Views are in `NodeId` order and ids are dense, so an id indexes
        // its view.
        let placed = match policy.route(job, &views) {
            None => Err(ShedReason::Declined),
            Some(id) => match views.get(id.index()) {
                Some(v) if v.has_space() => Ok(id),
                Some(_) => Err(ShedReason::Full),
                None => Err(ShedReason::UnknownNode),
            },
        };
        self.view_scratch = views;
        placed
    }

    /// Admits one job to `id` by injecting its arrival.
    fn admit(&mut self, id: NodeId, job: &JobView) {
        let node = &mut self.nodes[id.index()];
        node.system.inject_arrival(
            &mut node.st,
            node.driver.as_dyn_mut(),
            job.bench,
            job.threads,
            job.scale,
        );
        node.admitted += 1;
        match job.class {
            IntensityClass::CpuIntensive => node.cpu_jobs += 1,
            IntensityClass::MemoryIntensive => node.mem_jobs += 1,
        }
    }

    /// The *single* front-door shed path: the counter bump and the
    /// FleetShed trace are emitted together, so the journal and the
    /// summary can never disagree about what was shed.
    fn shed(&mut self, stats: &mut AdmissionStats, reason: ShedReason, job: &JobView) {
        match reason {
            ShedReason::Full => stats.shed_full += 1,
            _ => stats.shed_unroutable += 1,
        }
        let class_label = class_label(job.class);
        let label = reason.label();
        self.telemetry.trace(TraceKind::FleetShed, || {
            vec![
                ("bench", Value::Str(job.bench.name())),
                ("class", Value::Str(class_label)),
                ("reason", Value::Str(label)),
            ]
        });
    }

    /// Finalizes node metrics and assembles the summary in id order.
    fn finish(self, policy: &'static str, stats: AdmissionStats) -> FleetSummary {
        let mut summary = FleetSummary {
            policy,
            admission: stats,
            completed: 0,
            cluster_energy_j: 0.0,
            cluster_makespan: SimDuration::ZERO,
            migrations: 0,
            voltage_changes: 0,
            failures: 0,
            unsafe_time_s: 0.0,
            daemon: DaemonStats::default(),
            nodes: Vec::with_capacity(self.nodes.len()),
            journal: None,
        };
        let mut journal = String::new();
        let coordinator_journal = self.telemetry.export_jsonl();
        for mut node in self.nodes {
            let metrics = node.system.finish_run(node.st);
            summary.completed += metrics.completed.len() as u64;
            summary.cluster_energy_j += metrics.energy_j;
            summary.cluster_makespan = summary.cluster_makespan.max(metrics.makespan);
            summary.migrations += metrics.migrations;
            summary.voltage_changes += metrics.voltage_changes;
            summary.failures += metrics.failures;
            summary.unsafe_time_s += metrics.unsafe_time_s;
            let daemon = node.driver.stats();
            if let Some(ds) = &daemon {
                add_stats(&mut summary.daemon, ds);
            }
            if let Some(tagged) = node
                .telemetry
                .with_hub(|h| h.export_jsonl_tagged("node", u64::from(node.id.0)))
            {
                journal.push_str(&tagged);
            }
            summary.nodes.push(NodeSummary {
                id: node.id,
                kind: node.kind,
                cores: node.kind.cores(),
                admitted: node.admitted,
                completed: metrics.completed.len() as u64,
                cpu_jobs: node.cpu_jobs,
                mem_jobs: node.mem_jobs,
                metrics,
                daemon,
            });
        }
        if let Some(cj) = coordinator_journal {
            summary.journal = Some(format!("{cj}{journal}"));
        }
        summary
    }
}

/// Builder for [`Fleet`] — the single blessed construction path.
///
/// Starts from [`FleetConfig::new`]'s defaults (1 s epochs, telemetry
/// off); every knob has a setter, and
/// [`config`](FleetBuilder::config) swaps in a prepared configuration
/// wholesale.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    config: FleetConfig,
}

impl FleetBuilder {
    /// Replaces the node list.
    #[must_use]
    pub fn nodes(mut self, nodes: Vec<NodeConfig>) -> Self {
        self.config.nodes = nodes;
        self
    }

    /// Appends one node.
    #[must_use]
    pub fn node(mut self, node: NodeConfig) -> Self {
        self.config.nodes.push(node);
        self
    }

    /// Sets the epoch length.
    #[must_use]
    pub fn epoch(mut self, epoch: SimDuration) -> Self {
        self.config.epoch = epoch;
        self
    }

    /// Does nothing: nodes are stepped on the coordinator thread. Kept
    /// so existing callers compile; it will be removed.
    #[deprecated(note = "nodes are stepped on the coordinator thread; drop the call")]
    #[must_use]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Enables or disables telemetry hubs and the merged journal.
    #[must_use]
    pub fn telemetry(mut self, on: bool) -> Self {
        self.config.telemetry = on;
        self
    }

    /// Replaces the whole configuration (setters called afterwards
    /// still apply on top).
    #[must_use]
    pub fn config(mut self, config: FleetConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the fleet.
    pub fn build(self) -> Fleet {
        Fleet::from_config(&self.config)
    }
}

/// Stable label for a job's intensity class.
fn class_label(class: IntensityClass) -> &'static str {
    match class {
        IntensityClass::CpuIntensive => "cpu",
        IntensityClass::MemoryIntensive => "memory",
    }
}

/// Field-by-field accumulation of daemon counters.
fn add_stats(acc: &mut DaemonStats, s: &DaemonStats) {
    acc.invocations += s.invocations;
    acc.plans += s.plans;
    acc.pins += s.pins;
    acc.voltage_raises += s.voltage_raises;
    acc.voltage_lowers += s.voltage_lowers;
    acc.deferred_pins += s.deferred_pins;
    acc.mailbox_faults += s.mailbox_faults;
    acc.retries += s.retries;
    acc.backoff_us += s.backoff_us;
    acc.safe_mode_entries += s.safe_mode_entries;
    acc.safe_mode_exits += s.safe_mode_exits;
    acc.watchdog_fires += s.watchdog_fires;
    acc.droop_emergencies += s.droop_emergencies;
}

/// Cluster-level aggregation of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// The routing policy that produced this run.
    pub policy: &'static str,
    /// Front-door admission counters.
    pub admission: AdmissionStats,
    /// Jobs completed across all nodes.
    pub completed: u64,
    /// Total energy across all nodes, J.
    pub cluster_energy_j: f64,
    /// Longest per-node makespan (cluster drain time).
    pub cluster_makespan: SimDuration,
    /// Total migrations across nodes.
    pub migrations: u64,
    /// Total committed voltage changes across nodes.
    pub voltage_changes: u64,
    /// Total injected failures across nodes.
    pub failures: u64,
    /// Total unsafe rail time across nodes, seconds.
    pub unsafe_time_s: f64,
    /// Aggregated daemon decision/recovery counters (zeros for
    /// baseline-only fleets).
    pub daemon: DaemonStats,
    /// Per-node summaries, in `NodeId` order.
    pub nodes: Vec<NodeSummary>,
    /// Merged fleet journal (coordinator first, then nodes in id order,
    /// each line tagged `"node":<id>`); `None` when telemetry was off.
    pub journal: Option<String>,
}

impl FleetSummary {
    /// Conservation check: every submitted job is accounted for — shed
    /// at the front door or admitted to exactly one node — and every
    /// admitted job completed once the nodes drained.
    pub fn conserves_jobs(&self) -> bool {
        let a = &self.admission;
        let node_admitted: u64 = self.nodes.iter().map(|n| n.admitted).sum();
        a.submitted == a.admitted + a.shed()
            && node_admitted == a.admitted
            && a.admitted == self.completed
    }

    /// Cluster energy savings vs a baseline run, percent.
    pub fn energy_savings_vs(&self, base: &FleetSummary) -> f64 {
        if base.cluster_energy_j <= 0.0 {
            return 0.0;
        }
        (1.0 - self.cluster_energy_j / base.cluster_energy_j) * 100.0
    }

    /// Cluster makespan penalty vs a baseline run, percent (negative
    /// means faster).
    pub fn time_penalty_vs(&self, base: &FleetSummary) -> f64 {
        let b = base.cluster_makespan.as_secs_f64();
        if b <= 0.0 {
            return 0.0;
        }
        (self.cluster_makespan.as_secs_f64() / b - 1.0) * 100.0
    }

    /// A deterministic digest of everything observable in the summary
    /// (floats rendered via `to_bits`, nodes in id order). Two runs are
    /// byte-identical iff their fingerprints (and journals) match.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + 160 * self.nodes.len());
        let a = &self.admission;
        let _ = write!(
            out,
            "policy={} submitted={} admitted={} shed_full={} shed_unroutable={} \
             completed={} energy={:016x} makespan_ns={} migrations={} vchanges={} \
             failures={} unsafe={:016x} daemon=[{}]",
            self.policy,
            a.submitted,
            a.admitted,
            a.shed_full,
            a.shed_unroutable,
            self.completed,
            self.cluster_energy_j.to_bits(),
            self.cluster_makespan.as_nanos(),
            self.migrations,
            self.voltage_changes,
            self.failures,
            self.unsafe_time_s.to_bits(),
            self.daemon,
        );
        for n in &self.nodes {
            let _ = write!(
                out,
                "\n{} kind={} admitted={} completed={} cpu={} mem={} energy={:016x} \
                 makespan_ns={} migrations={} vchanges={} unsafe={:016x}",
                n.id,
                n.kind,
                n.admitted,
                n.completed,
                n.cpu_jobs,
                n.mem_jobs,
                n.metrics.energy_j.to_bits(),
                n.metrics.makespan.as_nanos(),
                n.metrics.migrations,
                n.metrics.voltage_changes,
                n.metrics.unsafe_time_s.to_bits(),
            );
        }
        out
    }
}
