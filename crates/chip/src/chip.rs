//! The runtime chip: state plus all calibrated models.
//!
//! [`Chip`] owns the voltage rail, the per-PMD frequency steps, and the
//! calibrated Vmin / droop / failure / power models. Software
//! (the scheduler substrate and the daemon) manipulates it only through
//! the knobs a real X-Gene exposes: per-PMD frequency requests (cpufreq)
//! and SLIMpro mailbox messages (voltage).

use crate::droop::DroopModel;
use crate::error::ChipError;
use crate::failure::{FailureModel, RunOutcome};
use crate::fault::{FaultPlan, FaultStats, MailboxFault};
use crate::freq::{CppcBehavior, FreqStep, FreqVminClass, FrequencyMhz};
use crate::power::{PowerInputs, PowerLut, PowerModel};
use crate::slimpro::{MailboxRequest, MailboxResponse, MailboxStats};
use crate::topology::{ChipSpec, CoreSet, PmdId};
use crate::vmin::{VminDrift, VminModel, VminQuery};
use crate::voltage::{Millivolts, VoltageRail};
use avfs_sim::rng::{fnv1a_fold, FNV_OFFSET_BASIS};
use avfs_sim::RngStream;
use avfs_telemetry::{Telemetry, TraceKind, Value};
use std::sync::Arc;

/// A fully assembled chip instance.
///
/// The construction-time models are shared, not copied, between clones:
/// a clone copies only the mutable control state. Vmin drift replaces
/// the drifted chip's own Vmin model.
#[derive(Debug, Clone)]
pub struct Chip {
    spec: Arc<ChipSpec>,
    behavior: CppcBehavior,
    rail: VoltageRail,
    pmd_steps: Vec<FreqStep>,
    vmin: Arc<VminModel>,
    power: Arc<PowerModel>,
    /// [`PowerLut`] tabulation of `power` over the chip's operating
    /// points; bit-identical to the model and rebuilt only at
    /// construction (the model itself never changes at runtime).
    power_lut: Arc<PowerLut>,
    droop: Arc<DroopModel>,
    failure: Arc<FailureModel>,
    mailbox_stats: MailboxStats,
    /// Power reported by the sensor on the last mailbox read, mW.
    last_sensor_mw: u64,
    /// Optional seeded fault-injection plan; `None` (the default) leaves
    /// every operation exactly as reliable as before the fault layer
    /// existed.
    fault: Option<FaultPlan>,
    /// Monotonic counter bumped whenever power/safety-relevant state
    /// actually changes (rail voltage, a PMD step, the Vmin surface, the
    /// fault plan). Lets callers cache quantities derived from chip
    /// state and revalidate with one integer compare instead of
    /// re-deriving per slice. Re-asserting an unchanged value does not
    /// bump it.
    state_epoch: u64,
    /// Observer handle for the mailbox/fault paths. Null (one branch,
    /// no observer) unless installed via [`Chip::set_telemetry`]. The
    /// chip owns no clock, so event timestamps come from whoever last
    /// called `Telemetry::advance_to` on the shared hub (the scheduler).
    telemetry: Telemetry,
}

impl Chip {
    /// Assembles a chip from its spec and calibrated models. Use
    /// [`crate::presets`] for the two X-Gene parts.
    pub fn new(
        spec: ChipSpec,
        behavior: CppcBehavior,
        vmin: VminModel,
        power: PowerModel,
        droop: DroopModel,
        failure: FailureModel,
    ) -> Self {
        let rail = VoltageRail::new(
            Millivolts::new(spec.nominal_mv),
            Millivolts::new(spec.vreg_floor_mv),
        );
        let pmds = spec.pmds() as usize;
        let fmax = FrequencyMhz::new(spec.fmax_mhz);
        let power_lut = power.build_lut(
            FreqStep::all().map(|s| s.frequency(fmax).as_mhz()),
            spec.vreg_floor_mv,
            spec.nominal_mv,
        );
        Chip {
            spec: Arc::new(spec),
            behavior,
            rail,
            pmd_steps: vec![FreqStep::MAX; pmds],
            vmin: Arc::new(vmin),
            power: Arc::new(power),
            power_lut: Arc::new(power_lut),
            droop: Arc::new(droop),
            failure: Arc::new(failure),
            mailbox_stats: MailboxStats::default(),
            last_sensor_mw: 0,
            fault: None,
            state_epoch: 0,
            telemetry: Telemetry::null(),
        }
    }

    /// The current state epoch: increments exactly when power/safety
    /// relevant chip state changes (voltage, frequency program, Vmin
    /// drift, fault plan). Two calls returning the same value guarantee
    /// every power/Vmin evaluation in between would have returned the
    /// same result for the same inputs.
    pub fn state_epoch(&self) -> u64 {
        self.state_epoch
    }

    /// Installs a telemetry handle; the mailbox and fault paths report
    /// through it from then on.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The installed telemetry handle (null by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Arms (or disarms) a fault-injection plan. The plan draws from its
    /// own seeded stream, so arming one cannot perturb the simulator's
    /// failure sampling.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
        self.state_epoch += 1;
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// Mutable access to the armed fault plan (the simulator advances
    /// droop excursions and samples PMU glitches through this).
    pub fn fault_plan_mut(&mut self) -> Option<&mut FaultPlan> {
        self.fault.as_mut()
    }

    /// Injected-fault counters (zero when no plan is armed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
            .as_ref()
            .map(FaultPlan::stats)
            .unwrap_or_default()
    }

    /// True while an injected droop excursion is raising the effective
    /// safe Vmin.
    pub fn droop_excursion_active(&self) -> bool {
        self.fault
            .as_ref()
            .is_some_and(FaultPlan::droop_excursion_active)
    }

    /// The static chip description.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// A cheap, deterministic digest of the chip's *mutable control
    /// state*: rail millivolts, the per-PMD frequency program, the
    /// droop-excursion flag and the pending scripted mailbox faults.
    /// Calibrated models and the spec are construction-time constants
    /// and deliberately excluded, as are the mailbox statistics
    /// (observational, not control state) and the fault plan's random
    /// stream (the model checker arms only zero-rate plans).
    /// Used by `avfs-analyze`'s model checker to fingerprint explored
    /// states.
    pub fn state_digest(&self) -> u64 {
        let mut h = fnv1a_fold(FNV_OFFSET_BASIS, u64::from(self.rail.current().as_mv()));
        for step in &self.pmd_steps {
            h = fnv1a_fold(h, u64::from(step.numerator()));
        }
        h = fnv1a_fold(h, u64::from(self.droop_excursion_active()));
        let scripted = self
            .fault_plan()
            .map_or(&[][..], FaultPlan::scripted_mailbox);
        for &fault in scripted {
            h = fnv1a_fold(
                h,
                match fault {
                    MailboxFault::Refuse => 1,
                    MailboxFault::Drop => 2,
                    MailboxFault::LatencySpike => 3,
                },
            );
        }
        h
    }

    /// The CPPC firmware behaviour of this part.
    pub fn behavior(&self) -> CppcBehavior {
        self.behavior
    }

    /// The calibrated Vmin model.
    pub fn vmin_model(&self) -> &VminModel {
        &self.vmin
    }

    /// The calibrated power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// The droop-event model.
    pub fn droop_model(&self) -> &DroopModel {
        &self.droop
    }

    /// The sub-Vmin failure model.
    pub fn failure_model(&self) -> &FailureModel {
        &self.failure
    }

    /// The current rail voltage.
    pub fn voltage(&self) -> Millivolts {
        self.rail.current()
    }

    /// The nominal rail voltage.
    pub fn nominal_voltage(&self) -> Millivolts {
        self.rail.nominal()
    }

    /// The frequency step of a PMD.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidPmd`] for out-of-range PMDs.
    pub fn pmd_freq_step(&self, pmd: PmdId) -> Result<FreqStep, ChipError> {
        self.pmd_steps
            .get(pmd.index())
            .copied()
            .ok_or(ChipError::InvalidPmd(pmd))
    }

    /// Requests a frequency step for one PMD (the cpufreq path).
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidPmd`] for out-of-range PMDs.
    pub fn set_pmd_freq_step(&mut self, pmd: PmdId, step: FreqStep) -> Result<(), ChipError> {
        let slot = self
            .pmd_steps
            .get_mut(pmd.index())
            .ok_or(ChipError::InvalidPmd(pmd))?;
        if *slot != step {
            *slot = step;
            self.state_epoch += 1;
        }
        Ok(())
    }

    /// Sets every PMD to the same step.
    pub fn set_all_freq_steps(&mut self, step: FreqStep) {
        let mut changed = false;
        for s in &mut self.pmd_steps {
            changed |= *s != step;
            *s = step;
        }
        if changed {
            self.state_epoch += 1;
        }
    }

    /// The requested clock of a PMD in MHz.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::InvalidPmd`] for out-of-range PMDs.
    pub fn pmd_frequency(&self, pmd: PmdId) -> Result<FrequencyMhz, ChipError> {
        Ok(self.pmd_freq_step(pmd)?.frequency(self.spec.fmax()))
    }

    /// The frequency-class of the rail requirement given which PMDs are
    /// currently *utilized* (idle PMDs do not constrain Vmin).
    pub fn freq_vmin_class(&self, utilized: impl IntoIterator<Item = PmdId>) -> FreqVminClass {
        self.behavior.vmin_class_of_steps(
            utilized
                .into_iter()
                .filter_map(|p| self.pmd_steps.get(p.index()).copied()),
        )
    }

    /// The safe Vmin of the *current* chip configuration for an
    /// allocation of `active_cores`, assuming a typical workload
    /// (sensitivity 0).
    pub fn current_safe_vmin(&self, active_cores: CoreSet) -> Millivolts {
        let utilized = || active_cores.utilized_pmds(&self.spec);
        let q = VminQuery {
            freq_class: self.freq_vmin_class(utilized()),
            utilized_pmds: utilized().count(),
            active_threads: active_cores.len(),
            workload_sensitivity: 0.0,
        };
        let base = self.vmin.safe_vmin_on(&q, utilized());
        match &self.fault {
            Some(plan) => plan.effective_vmin(base, self.rail.nominal()),
            None => base,
        }
    }

    /// True when the rail currently satisfies the safe Vmin of the given
    /// allocation — the invariant the daemon's fail-safe ordering
    /// maintains.
    pub fn is_voltage_safe_for(&self, active_cores: CoreSet) -> bool {
        self.voltage() >= self.current_safe_vmin(active_cores)
    }

    /// Processes a SLIMpro mailbox request.
    ///
    /// When a fault plan is armed the request may be refused, dropped,
    /// or — for a latency spike — applied with the *response* lost, so
    /// the caller observes a drop but the state changed underneath
    /// (retries must be idempotent, and the daemon's are).
    pub fn mailbox(&mut self, req: MailboxRequest) -> MailboxResponse {
        self.mailbox_stats.requests += 1;
        let op = mailbox_op_label(&req);
        self.telemetry.counter_inc("chip.mailbox.requests");
        self.telemetry
            .trace(TraceKind::MailboxCall, || vec![("op", Value::Str(op))]);
        match self.fault.as_mut().and_then(FaultPlan::sample_mailbox) {
            Some(MailboxFault::Refuse) => {
                self.mailbox_stats.refusals += 1;
                self.telemetry.counter_inc("chip.mailbox.injected_refusals");
                self.telemetry.trace(TraceKind::MailboxFault, || {
                    vec![
                        ("op", Value::Str(op)),
                        ("fault", Value::Str("injected_refuse")),
                    ]
                });
                return MailboxResponse::Refused {
                    reason: "injected fault: management processor busy".to_string(),
                };
            }
            Some(MailboxFault::Drop) => {
                self.mailbox_stats.drops += 1;
                self.telemetry.counter_inc("chip.mailbox.injected_drops");
                self.telemetry.trace(TraceKind::MailboxFault, || {
                    vec![
                        ("op", Value::Str(op)),
                        ("fault", Value::Str("injected_drop")),
                    ]
                });
                return MailboxResponse::Dropped;
            }
            Some(MailboxFault::LatencySpike) => {
                // Apply the request, then lose the response.
                self.mailbox_stats.drops += 1;
                self.telemetry.counter_inc("chip.mailbox.injected_drops");
                self.telemetry.trace(TraceKind::MailboxFault, || {
                    vec![
                        ("op", Value::Str(op)),
                        ("fault", Value::Str("injected_latency_spike")),
                    ]
                });
                let _ = self.mailbox_apply(req);
                return MailboxResponse::Dropped;
            }
            None => {}
        }
        self.mailbox_apply(req)
    }

    /// The fault-free mailbox path: actually processes the request.
    fn mailbox_apply(&mut self, req: MailboxRequest) -> MailboxResponse {
        match req {
            MailboxRequest::SetVoltage(mv) => {
                let before = self.rail.current();
                match self.rail.set(mv) {
                    Ok(()) => {
                        if self.rail.current() != before {
                            self.state_epoch += 1;
                        }
                        self.mailbox_stats.voltage_changes += 1;
                        self.telemetry.counter_inc("chip.mailbox.voltage_sets");
                        MailboxResponse::VoltageSet(mv)
                    }
                    Err(e) => {
                        self.mailbox_stats.refusals += 1;
                        self.telemetry.counter_inc("chip.mailbox.window_refusals");
                        self.telemetry.trace(TraceKind::MailboxFault, || {
                            vec![
                                ("op", Value::Str("set_voltage")),
                                ("fault", Value::Str("window_refused")),
                                ("requested_mv", Value::U64(u64::from(mv.as_mv()))),
                            ]
                        });
                        MailboxResponse::Refused {
                            reason: e.to_string(),
                        }
                    }
                }
            }
            MailboxRequest::GetVoltage => MailboxResponse::Voltage(self.rail.current()),
            MailboxRequest::ReadPowerSensor => MailboxResponse::PowerMw(self.last_sensor_mw),
            MailboxRequest::GetFirmwareInfo => {
                MailboxResponse::FirmwareInfo(format!("SLIMpro/{} (simulated)", self.spec.name))
            }
        }
    }

    /// Mailbox traffic statistics.
    pub fn mailbox_stats(&self) -> MailboxStats {
        self.mailbox_stats
    }

    /// Convenience: set the rail voltage, as the daemon does via the
    /// mailbox.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::VoltageOutOfWindow`] if the request is outside
    /// the regulated window (a caller bug — retrying cannot help),
    /// [`ChipError::MailboxRefused`] if an in-range request was refused
    /// (transient — retry may succeed), and [`ChipError::MailboxDropped`]
    /// if the request or its response was lost in flight.
    pub fn set_voltage(&mut self, mv: Millivolts) -> Result<(), ChipError> {
        let in_range = mv >= self.rail.floor() && mv <= self.rail.nominal();
        match self.mailbox(MailboxRequest::SetVoltage(mv)) {
            MailboxResponse::VoltageSet(_) => Ok(()),
            MailboxResponse::Dropped => Err(ChipError::MailboxDropped),
            MailboxResponse::Refused { reason } if in_range => {
                Err(ChipError::MailboxRefused { reason })
            }
            _ => Err(ChipError::VoltageOutOfWindow {
                requested: mv,
                floor: self.rail.floor(),
                nominal: self.rail.nominal(),
            }),
        }
    }

    /// Evaluates instantaneous power and latches it into the sensor.
    /// Served from the construction-time [`PowerLut`] (bit-identical to
    /// [`PowerModel::power_w`]; off-table inputs fall back to the live
    /// model).
    pub fn evaluate_power_w(&mut self, inputs: &PowerInputs) -> f64 {
        let w = self.power_lut.power_w(inputs);
        self.last_sensor_mw = (w * 1_000.0).round() as u64;
        w
    }

    /// The construction-time power lookup table.
    pub fn power_lut(&self) -> &PowerLut {
        &self.power_lut
    }

    /// Applies a scripted aging/temperature [`VminDrift`]: the chip's
    /// *true* safe-Vmin surface shifts uniformly, so any policy table
    /// characterized before the event is now stale. Traced as a
    /// [`TraceKind::DriftEvent`].
    pub fn apply_vmin_drift(&mut self, drift: VminDrift) {
        self.vmin = Arc::new(self.vmin.with_drift(drift));
        self.state_epoch += 1;
        self.telemetry.counter_inc("chip.vmin.drift_events");
        self.telemetry.trace(TraceKind::DriftEvent, || {
            vec![
                ("base_shift_mv", Value::I64(i64::from(drift.base_shift_mv))),
                (
                    "pmd_offset_shift_mv",
                    Value::I64(i64::from(drift.pmd_offset_shift_mv)),
                ),
            ]
        });
    }

    /// Runs one characterization stress probe at the *current* rail
    /// voltage: the outcome a real campaign would observe when pinning
    /// the queried stress pattern to `pmds` and letting it run.
    ///
    /// The chip's Vmin model stays hidden ground truth — the caller only
    /// sees a sampled [`RunOutcome`], which is failure-free at or above
    /// the true safe Vmin and increasingly crash-prone below it. An
    /// active injected droop excursion raises the effective safe Vmin
    /// exactly as it does for [`Chip::current_safe_vmin`], so probes
    /// taken during an excursion are biased pessimistic (campaigns must
    /// detect and discard them).
    pub fn probe_stress(
        &mut self,
        q: &VminQuery,
        pmds: &[PmdId],
        rng: &mut RngStream,
    ) -> RunOutcome {
        let truth = self.vmin.safe_vmin_on(q, pmds.iter().copied());
        let effective = match &self.fault {
            Some(plan) => plan.effective_vmin(truth, self.rail.nominal()),
            None => truth,
        };
        let class = self.vmin.droop_class(q.utilized_pmds);
        self.failure
            .sample_outcome(self.rail.current(), effective, class, rng)
    }
}

/// Stable label for a mailbox request, used in trace events.
fn mailbox_op_label(req: &MailboxRequest) -> &'static str {
    match req {
        MailboxRequest::SetVoltage(_) => "set_voltage",
        MailboxRequest::GetVoltage => "get_voltage",
        MailboxRequest::ReadPowerSensor => "read_power_sensor",
        MailboxRequest::GetFirmwareInfo => "get_firmware_info",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::topology::CoreId;

    #[test]
    fn defaults_are_nominal_and_fmax() {
        let chip = presets::xgene2().build();
        assert_eq!(chip.voltage().as_mv(), 980);
        for pmd in chip.spec().all_pmds() {
            assert_eq!(chip.pmd_freq_step(pmd).unwrap(), FreqStep::MAX);
            assert_eq!(chip.pmd_frequency(pmd).unwrap().as_mhz(), 2400);
        }
    }

    #[test]
    fn per_pmd_frequency_is_independent() {
        let mut chip = presets::xgene3().build();
        chip.set_pmd_freq_step(PmdId::new(3), FreqStep::HALF)
            .unwrap();
        assert_eq!(chip.pmd_frequency(PmdId::new(3)).unwrap().as_mhz(), 1500);
        assert_eq!(chip.pmd_frequency(PmdId::new(4)).unwrap().as_mhz(), 3000);
    }

    #[test]
    fn invalid_pmd_is_an_error() {
        let mut chip = presets::xgene2().build();
        assert_eq!(
            chip.set_pmd_freq_step(PmdId::new(99), FreqStep::MAX),
            Err(ChipError::InvalidPmd(PmdId::new(99)))
        );
        assert!(chip.pmd_frequency(PmdId::new(99)).is_err());
    }

    #[test]
    fn mailbox_voltage_roundtrip() {
        let mut chip = presets::xgene3().build();
        let resp = chip.mailbox(MailboxRequest::SetVoltage(Millivolts::new(830)));
        assert_eq!(resp, MailboxResponse::VoltageSet(Millivolts::new(830)));
        assert_eq!(
            chip.mailbox(MailboxRequest::GetVoltage),
            MailboxResponse::Voltage(Millivolts::new(830))
        );
        assert_eq!(chip.mailbox_stats().voltage_changes, 1);
    }

    #[test]
    fn mailbox_refuses_over_nominal() {
        let mut chip = presets::xgene3().build();
        let resp = chip.mailbox(MailboxRequest::SetVoltage(Millivolts::new(1_000)));
        assert!(!resp.is_ok());
        assert_eq!(chip.voltage().as_mv(), 870);
        assert_eq!(chip.mailbox_stats().refusals, 1);
        assert!(chip.set_voltage(Millivolts::new(1_000)).is_err());
    }

    #[test]
    fn vmin_class_ignores_idle_pmds() {
        let mut chip = presets::xgene2().build();
        // Drop PMD3 to a divided step, but leave it out of the utilized set.
        chip.set_pmd_freq_step(PmdId::new(3), FreqStep::new(2).unwrap())
            .unwrap();
        let class_active_fast = chip.freq_vmin_class([PmdId::new(0)]);
        assert_eq!(class_active_fast, FreqVminClass::Max);
        // Now only the divided PMD is utilized.
        let class_divided = chip.freq_vmin_class([PmdId::new(3)]);
        assert_eq!(class_divided, FreqVminClass::Divided);
    }

    #[test]
    fn safe_vmin_tracks_allocation_width() {
        let chip = presets::xgene3().build();
        let narrow: CoreSet = [0u16, 1].into_iter().map(CoreId::new).collect(); // 1 PMD
        let wide = CoreSet::first_n(32); // 16 PMDs
        assert!(chip.current_safe_vmin(narrow) < chip.current_safe_vmin(wide));
    }

    #[test]
    fn nominal_voltage_is_always_safe() {
        let chip = presets::xgene3().build();
        assert!(chip.is_voltage_safe_for(CoreSet::first_n(32)));
    }

    #[test]
    fn undervolted_rail_can_become_unsafe_for_wider_allocation() {
        let mut chip = presets::xgene3().build();
        let narrow: CoreSet = [0u16, 1].into_iter().map(CoreId::new).collect();
        let vmin_narrow = chip.current_safe_vmin(narrow);
        chip.set_voltage(vmin_narrow).unwrap();
        assert!(chip.is_voltage_safe_for(narrow));
        assert!(!chip.is_voltage_safe_for(CoreSet::first_n(32)));
    }

    #[test]
    fn power_sensor_latches() {
        let mut chip = presets::xgene2().build();
        let inputs = PowerInputs {
            voltage: chip.voltage(),
            pmd_loads: vec![crate::power::PmdLoad::IDLE; 4],
            mem_traffic: 0.0,
        };
        let w = chip.evaluate_power_w(&inputs);
        match chip.mailbox(MailboxRequest::ReadPowerSensor) {
            MailboxResponse::PowerMw(mw) => {
                assert_eq!(mw, (w * 1000.0).round() as u64);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn injected_mailbox_faults_surface_as_typed_errors() {
        use crate::fault::{FaultPlan, FaultRates};
        let mut chip = presets::xgene3().build();
        chip.set_fault_plan(Some(FaultPlan::new(
            1,
            FaultRates {
                mailbox: 1.0,
                ..FaultRates::ZERO
            },
        )));
        let mut refused = 0;
        let mut dropped = 0;
        for _ in 0..50 {
            match chip.set_voltage(Millivolts::new(860)) {
                Err(ChipError::MailboxRefused { .. }) => refused += 1,
                Err(ChipError::MailboxDropped) => dropped += 1,
                other => panic!("expected an injected fault, got {other:?}"),
            }
        }
        assert!(refused > 0 && dropped > 0);
        assert_eq!(chip.fault_stats().mailbox_total(), 50);
        // Out-of-range stays out-of-range even while faults are armed.
        let mut clean = presets::xgene3().build();
        assert!(matches!(
            clean.set_voltage(Millivolts::new(1_000)),
            Err(ChipError::VoltageOutOfWindow { .. })
        ));
    }

    #[test]
    fn latency_spike_applies_the_request_but_loses_the_response() {
        use crate::fault::{FaultPlan, FaultRates};
        let mut chip = presets::xgene3().build();
        chip.set_fault_plan(Some(FaultPlan::new(
            0,
            FaultRates {
                mailbox: 1.0,
                ..FaultRates::ZERO
            },
        )));
        // Drive until a latency spike lands; the rail must have moved
        // even though the caller saw a drop.
        let mut spiked = false;
        for _ in 0..200 {
            let before = chip.fault_stats().latency_spikes;
            let r = chip.set_voltage(Millivolts::new(860));
            assert!(r.is_err());
            if chip.fault_stats().latency_spikes > before {
                assert_eq!(chip.voltage().as_mv(), 860);
                spiked = true;
                break;
            }
        }
        assert!(spiked, "no latency spike in 200 full-rate draws");
    }

    #[test]
    fn droop_excursion_raises_effective_vmin_then_clears() {
        use crate::fault::{FaultPlan, FaultRates};
        let mut chip = presets::xgene3().build();
        let busy = CoreSet::first_n(8);
        let base = chip.current_safe_vmin(busy);
        chip.set_fault_plan(Some(FaultPlan::new(
            2,
            FaultRates {
                droop: 1.0,
                ..FaultRates::ZERO
            },
        )));
        assert_eq!(chip.current_safe_vmin(busy), base);
        chip.fault_plan_mut().unwrap().droop_check();
        assert!(chip.droop_excursion_active());
        let raised = chip.current_safe_vmin(busy);
        assert!(raised > base, "{raised} vs {base}");
        assert!(raised <= chip.nominal_voltage());
        // A rail sitting exactly at the base Vmin is now unsafe.
        chip.set_voltage(base).unwrap();
        assert!(!chip.is_voltage_safe_for(busy));
        chip.set_voltage(chip.nominal_voltage()).unwrap();
        assert!(chip.is_voltage_safe_for(busy));
    }

    #[test]
    fn zero_rate_plan_changes_nothing() {
        use crate::fault::FaultPlan;
        let mut armed = presets::xgene2().build();
        armed.set_fault_plan(Some(FaultPlan::uniform(9, 0.0)));
        let mut plain = presets::xgene2().build();
        for mv in [900u32, 850, 820, 900] {
            assert_eq!(
                armed.set_voltage(Millivolts::new(mv)).is_ok(),
                plain.set_voltage(Millivolts::new(mv)).is_ok()
            );
        }
        assert_eq!(armed.voltage(), plain.voltage());
        assert_eq!(armed.mailbox_stats(), plain.mailbox_stats());
        assert_eq!(
            armed.current_safe_vmin(CoreSet::first_n(8)),
            plain.current_safe_vmin(CoreSet::first_n(8))
        );
    }

    #[test]
    fn drift_raises_the_true_safe_vmin() {
        let mut chip = presets::xgene3().build();
        let busy = CoreSet::first_n(8);
        let before = chip.current_safe_vmin(busy);
        chip.apply_vmin_drift(VminDrift::aging(15));
        assert_eq!(chip.current_safe_vmin(busy) - before, 15);
    }

    #[test]
    fn probes_above_the_true_vmin_never_fail_and_deep_probes_do() {
        let mut chip = presets::xgene2().build();
        let q = VminQuery {
            freq_class: FreqVminClass::Max,
            utilized_pmds: 2,
            active_threads: 4,
            workload_sensitivity: 1.0,
        };
        let pmds = [PmdId::new(0), PmdId::new(1)];
        let truth = chip.vmin_model().safe_vmin_on(&q, pmds);
        let crash = chip.vmin_model().crash_point(truth);
        let mut rng = avfs_sim::RngStream::from_root(7, "probe-test");
        chip.set_voltage(truth).unwrap();
        for _ in 0..200 {
            assert_eq!(chip.probe_stress(&q, &pmds, &mut rng), RunOutcome::Correct);
        }
        chip.set_voltage(crash).unwrap();
        let failures = (0..200)
            .filter(|_| chip.probe_stress(&q, &pmds, &mut rng).is_failure())
            .count();
        assert!(
            failures > 150,
            "only {failures}/200 failed at the crash point"
        );
    }

    #[test]
    fn firmware_info_names_the_chip() {
        let mut chip = presets::xgene3().build();
        match chip.mailbox(MailboxRequest::GetFirmwareInfo) {
            MailboxResponse::FirmwareInfo(s) => assert!(s.contains("X-Gene 3")),
            other => panic!("unexpected response {other:?}"),
        }
    }
}
