//! Protocol execution: dispensing, transport, mixing, detection.
//!
//! The executor runs a [`MultiplexedIvd`] batch on a chip with a given
//! fault state and (optionally) a local reconfiguration plan. Logical
//! resource cells are remapped through the plan — a mixer or detector whose
//! cell was replaced by a spare physically operates on that spare — and
//! droplet transport routes around catastrophic faults. Timing follows the
//! electrowetting actuation model plus mixer and detector dwell times, with
//! per-resource reservation for concurrency.

use crate::assay::{AssayOutcome, MultiplexedIvd};
use crate::chip::ChipDescription;
use crate::droplet::ElectrowettingModel;
use crate::kinetics::{
    absorbance_545nm, CalibrationCurve, Photodiode, DROPLET_PATH_CM, QUINONEIMINE_EPSILON,
};
use crate::router::{DistanceField, Router};
use dmfb_defects::DefectMap;
use dmfb_grid::HexCoord;
use dmfb_reconfig::ReconfigPlan;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// Why a protocol could not be executed.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ExecError {
    /// A request referenced an unknown dispenser label.
    UnknownPort(String),
    /// A request referenced an unknown mixer name.
    UnknownMixer(String),
    /// A request referenced a detector index that does not exist.
    UnknownDetector(usize),
    /// A required cell is faulty and not covered by the reconfiguration
    /// plan.
    FaultyResource {
        /// Description of the resource ("mixer mixer1", "detector 0", ...).
        resource: String,
        /// The faulty physical cell.
        cell: HexCoord,
    },
    /// No droplet route exists between two required cells.
    Unroutable {
        /// Source cell.
        from: HexCoord,
        /// Destination cell.
        to: HexCoord,
    },
    /// The actuation voltage is below the electrowetting threshold.
    VoltageTooLow,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownPort(l) => write!(f, "unknown dispenser port '{l}'"),
            ExecError::UnknownMixer(m) => write!(f, "unknown mixer '{m}'"),
            ExecError::UnknownDetector(i) => write!(f, "unknown detector index {i}"),
            ExecError::FaultyResource { resource, cell } => {
                write!(
                    f,
                    "{resource} sits on faulty cell {cell} with no replacement"
                )
            }
            ExecError::Unroutable { from, to } => {
                write!(f, "no droplet route from {from} to {to}")
            }
            ExecError::VoltageTooLow => write!(f, "control voltage below actuation threshold"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One scheduled assay operation: the physical cells it runs on (after
/// reconfiguration remapping), its transport cost, and its timing under
/// per-resource reservation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScheduledOp {
    /// Index into the batch's request list.
    pub request_index: usize,
    /// Physical cell the sample droplet is dispensed on.
    pub sample_cell: HexCoord,
    /// Physical cell the reagent droplet is dispensed on.
    pub reagent_cell: HexCoord,
    /// Physical rendezvous cell where the droplets merge and mix.
    pub rendezvous: HexCoord,
    /// Physical optical-detection cell.
    pub detector_cell: HexCoord,
    /// Droplet moves spent on the three transports.
    pub transport_moves: usize,
    /// When the operation's resources all become free, seconds.
    pub start_s: f64,
    /// Reaction window (mixing + transport to detector + integration), s.
    pub reaction_s: f64,
    /// Completion time within the protocol, seconds.
    pub completion_s: f64,
}

/// A complete feasible schedule for one protocol batch — the proof that
/// every requested assay can claim live resources and routes on this chip
/// instance, and the timing the feasibility check compares against its
/// budget.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ProtocolSchedule {
    /// Scheduled operations in request order.
    pub ops: Vec<ScheduledOp>,
}

impl ProtocolSchedule {
    /// Protocol makespan: the latest completion time, or `0.0` for an
    /// empty batch.
    #[must_use]
    pub fn makespan_s(&self) -> f64 {
        self.ops.iter().map(|o| o.completion_s).fold(0.0, f64::max)
    }
}

/// Plans a batch on a chip instance without running any chemistry: checks
/// that every referenced resource exists and (after remapping through
/// `plan`) sits on a live cell, costs the three transports of each assay
/// around catastrophic faults, and serialises operations that share
/// dispensers, mixers or detectors.
///
/// Transports are costed, not traced: each distinct (remapped)
/// rendezvous cell gets one BFS distance field
/// ([`Router`]), which gives the sample →
/// rendezvous, reagent → rendezvous and rendezvous → detector move counts
/// at once, since droplet routes are reversible. The counts equal
/// `Router::route(..).len() - 1` for each transport, and an unreachable
/// transport reports [`ExecError::Unroutable`] with that route's
/// endpoints, checking sample, reagent and detector in that order.
///
/// This is the scheduling core shared by [`Executor::run`] (which layers
/// reaction chemistry on top) and the operational-yield feasibility check
/// in [`crate::feasibility`] (which only needs the verdict and the
/// makespan).
///
/// # Errors
///
/// Returns the first [`ExecError`] that makes the batch unexecutable.
///
/// # Example
///
/// ```
/// use dmfb_bioassay::layout::fabricated_ivd_chip;
/// use dmfb_bioassay::schedule::plan_protocol;
/// use dmfb_bioassay::droplet::ElectrowettingModel;
/// use dmfb_bioassay::MultiplexedIvd;
/// use dmfb_defects::DefectMap;
///
/// let chip = fabricated_ivd_chip();
/// let schedule = plan_protocol(
///     &chip,
///     &DefectMap::new(),
///     None,
///     &ElectrowettingModel::default(),
///     &MultiplexedIvd::standard_panel(),
/// )
/// .expect("fault-free chip schedules its own protocol");
/// assert_eq!(schedule.ops.len(), 4);
/// assert!(schedule.makespan_s() > 0.0);
/// ```
pub fn plan_protocol(
    chip: &ChipDescription,
    defects: &DefectMap,
    plan: Option<&ReconfigPlan>,
    actuation: &ElectrowettingModel,
    batch: &MultiplexedIvd,
) -> Result<ProtocolSchedule, ExecError> {
    /// Reservation key of one shared resource. Borrowing the names from
    /// the batch (and building error labels lazily) keeps the per-request
    /// success path allocation-free — this function now runs once per
    /// Monte-Carlo trial per grid point in the operational-yield engine.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum ResourceKey<'a> {
        Port(&'a str),
        Mixer(&'a str),
        Detector(usize),
    }

    fn require_usable(
        defects: &DefectMap,
        plan: Option<&ReconfigPlan>,
        resource: impl FnOnce() -> String,
        logical: HexCoord,
    ) -> Result<HexCoord, ExecError> {
        let cell = match plan {
            Some(p) => p.remap(logical),
            None => logical,
        };
        if defects.is_faulty(cell) {
            return Err(ExecError::FaultyResource {
                resource: resource(),
                cell,
            });
        }
        Ok(cell)
    }

    let step_ms = actuation.step_time_ms().ok_or(ExecError::VoltageTooLow)?;
    let router = Router::new(chip.array.region(), defects);
    let mut fields: Vec<(HexCoord, DistanceField)> = Vec::new();
    // Resource reservation clocks, seconds.
    let mut free_at: BTreeMap<ResourceKey, f64> = BTreeMap::new();
    let mut ops = Vec::with_capacity(batch.requests.len());

    for (request_index, req) in batch.requests.iter().enumerate() {
        let sample = chip
            .dispenser(&req.sample_port)
            .ok_or_else(|| ExecError::UnknownPort(req.sample_port.clone()))?;
        let reagent = chip
            .dispenser(&req.reagent_port)
            .ok_or_else(|| ExecError::UnknownPort(req.reagent_port.clone()))?;
        let mixer = chip
            .mixer(&req.mixer)
            .ok_or_else(|| ExecError::UnknownMixer(req.mixer.clone()))?;
        let detector = chip
            .detectors
            .get(req.detector)
            .ok_or(ExecError::UnknownDetector(req.detector))?;

        // Resolve physical cells through the reconfiguration plan.
        let dispenser = || "dispenser".to_string();
        let mixer_label = || format!("mixer {}", mixer.name);
        let sample_cell = require_usable(defects, plan, dispenser, sample.cell)?;
        let reagent_cell = require_usable(defects, plan, dispenser, reagent.cell)?;
        let rendezvous = require_usable(defects, plan, mixer_label, mixer.rendezvous())?;
        for &c in &mixer.cells {
            require_usable(defects, plan, mixer_label, c)?;
        }
        let detector_cell = require_usable(
            defects,
            plan,
            || format!("detector {}", req.detector),
            detector.cell,
        )?;

        // Cost the three transports from the rendezvous's distance field,
        // searched once per distinct rendezvous in the batch.
        let field = match fields.iter().position(|(c, _)| *c == rendezvous) {
            Some(i) => &fields[i].1,
            None => {
                fields.push((rendezvous, router.distances(rendezvous)));
                &fields[fields.len() - 1].1
            }
        };
        let unroutable = |from, to| ExecError::Unroutable { from, to };
        let sample_moves = field
            .moves(sample_cell)
            .ok_or(unroutable(sample_cell, rendezvous))?;
        let reagent_moves = field
            .moves(reagent_cell)
            .ok_or(unroutable(reagent_cell, rendezvous))?;
        let detect_moves = field
            .moves(detector_cell)
            .ok_or(unroutable(rendezvous, detector_cell))?;
        let moves = sample_moves + reagent_moves + detect_moves;

        // Timing: start when all four resources are free.
        let keys = [
            ResourceKey::Port(req.sample_port.as_str()),
            ResourceKey::Port(req.reagent_port.as_str()),
            ResourceKey::Mixer(req.mixer.as_str()),
            ResourceKey::Detector(req.detector),
        ];
        let ready = keys
            .iter()
            .map(|k| free_at.get(k).copied().unwrap_or(0.0))
            .fold(0.0f64, f64::max);
        let transport_s = moves as f64 * step_ms / 1e3;
        let detect_s = f64::from(detector.integration_ms) / 1e3;
        let reaction_s = mixer.mix_time_s() + detect_moves as f64 * step_ms / 1e3 + detect_s;
        let completion = ready + transport_s + mixer.mix_time_s() + detect_s;
        for k in keys {
            free_at.insert(k, completion);
        }

        ops.push(ScheduledOp {
            request_index,
            sample_cell,
            reagent_cell,
            rendezvous,
            detector_cell,
            transport_moves: moves,
            start_s: ready,
            reaction_s,
            completion_s: completion,
        });
    }
    Ok(ProtocolSchedule { ops })
}

/// Executes assay protocols on one chip instance.
#[derive(Clone, Debug)]
pub struct Executor {
    chip: ChipDescription,
    defects: DefectMap,
    plan: Option<ReconfigPlan>,
    actuation: ElectrowettingModel,
}

impl Executor {
    /// Creates an executor for `chip` with the given true fault state and
    /// optional reconfiguration plan.
    #[must_use]
    pub fn new(chip: ChipDescription, defects: DefectMap, plan: Option<ReconfigPlan>) -> Self {
        Executor {
            chip,
            defects,
            plan,
            actuation: ElectrowettingModel::default(),
        }
    }

    /// Overrides the electrowetting actuation model.
    #[must_use]
    pub fn with_actuation(mut self, actuation: ElectrowettingModel) -> Self {
        self.actuation = actuation;
        self
    }

    /// Plans the batch's schedule — resource resolution, routing, timing —
    /// without running any chemistry. See [`plan_protocol`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecError`] that makes the batch unexecutable.
    pub fn plan_schedule(&self, batch: &MultiplexedIvd) -> Result<ProtocolSchedule, ExecError> {
        plan_protocol(
            &self.chip,
            &self.defects,
            self.plan.as_ref(),
            &self.actuation,
            batch,
        )
    }

    /// Runs the batch, drawing per-patient analyte concentrations uniformly
    /// from the physiological range and measuring them through the full
    /// droplet protocol. Returns per-assay outcomes in request order.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] aborts the whole batch — a chip that cannot run
    /// its protocol is a dead chip, which is exactly what the yield
    /// analysis counts.
    pub fn run(
        &self,
        batch: &MultiplexedIvd,
        rng: &mut impl Rng,
    ) -> Result<Vec<AssayOutcome>, ExecError> {
        let schedule = self.plan_schedule(batch)?;
        let mut outcomes = Vec::with_capacity(schedule.ops.len());

        for op in &schedule.ops {
            let req = &batch.requests[op.request_index];
            // The lookups cannot fail: `plan_schedule` resolved them.
            let sample = self.chip.dispenser(&req.sample_port).expect("scheduled");
            let reagent = self.chip.dispenser(&req.reagent_port).expect("scheduled");

            // Chemistry: draw the patient's true concentration, run the
            // cascade for the actual reaction window, read absorbance.
            let (lo, hi) = req.analyte.physiological_range_mm();
            let truth = rng.gen_range(lo..=hi);
            let sample_conc = sample.contents.concentration(req.analyte.species());
            let true_in_droplet = if sample_conc > 0.0 {
                sample_conc
            } else {
                truth
            };
            // Merging sample and reagent droplets halves the concentration.
            let diluted = true_in_droplet * sample.droplet_volume_nl
                / (sample.droplet_volume_nl + reagent.droplet_volume_nl);
            let kinetics = req.analyte.kinetics();
            let state = kinetics.integrate(diluted, op.reaction_s, 0.05);
            let clean_absorbance =
                absorbance_545nm(state.quinoneimine_mm, DROPLET_PATH_CM, QUINONEIMINE_EPSILON);
            let absorbance = Photodiode::default().measure(clean_absorbance, rng);
            // The instrument calibrates against diluted standards with the
            // same reaction window, then corrects for dilution.
            let dilution =
                sample.droplet_volume_nl / (sample.droplet_volume_nl + reagent.droplet_volume_nl);
            let standards: Vec<f64> = req
                .analyte
                .calibration_standards_mm()
                .iter()
                .map(|c| c * dilution)
                .collect();
            let curve = CalibrationCurve::build(&kinetics, &standards, op.reaction_s);
            let measured = curve.concentration(absorbance) / dilution;

            outcomes.push(AssayOutcome {
                request: req.clone(),
                true_concentration_mm: true_in_droplet,
                measured_concentration_mm: measured,
                absorbance,
                transport_moves: op.transport_moves,
                completion_time_s: op.completion_s,
            });
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;
    use dmfb_defects::{CatastrophicDefect, DefectCause};
    use dmfb_reconfig::{attempt_reconfiguration, ReconfigPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn clean_chip_runs_standard_panel() {
        let chip = layout::fabricated_ivd_chip();
        let exec = Executor::new(chip, DefectMap::new(), None);
        let outcomes = exec
            .run(&MultiplexedIvd::standard_panel(), &mut rng())
            .unwrap();
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(o.transport_moves > 0);
            assert!(o.completion_time_s > 0.0);
            assert!(o.absorbance >= 0.0);
            assert!(
                o.relative_error() < 0.25,
                "assay {:?} err {}",
                o.request.analyte,
                o.relative_error()
            );
        }
        // Shared resources serialise: completion times strictly increase
        // for assays sharing a mixer.
        assert!(outcomes[2].completion_time_s > outcomes[0].completion_time_s);
    }

    #[test]
    fn fault_on_mixer_kills_unprotected_chip() {
        let chip = layout::fabricated_ivd_chip();
        let mixer_cell = chip.mixers[0].rendezvous();
        let defects = DefectMap::from_cells([mixer_cell]);
        let exec = Executor::new(chip, defects, None);
        let err = exec
            .run(&MultiplexedIvd::standard_panel(), &mut rng())
            .unwrap_err();
        assert!(matches!(err, ExecError::FaultyResource { .. }));
    }

    #[test]
    fn reconfiguration_rescues_faulty_mixer() {
        let chip = layout::ivd_dtmb26_chip();
        let mixer_cell = chip.mixers[0].rendezvous();
        let mut defects = DefectMap::from_cells([mixer_cell]);
        defects.close_shorts();
        let plan = attempt_reconfiguration(
            &chip.array,
            &defects,
            &ReconfigPolicy::UsedCells(chip.assay_cells.iter().collect()),
        )
        .expect("single fault is tolerable on DTMB(2,6)");
        let exec = Executor::new(chip, defects, Some(plan));
        let outcomes = exec
            .run(&MultiplexedIvd::standard_panel(), &mut rng())
            .unwrap();
        assert_eq!(outcomes.len(), 4);
    }

    #[test]
    fn detour_increases_transport_cost() {
        let chip = layout::fabricated_ivd_chip();
        let clean = Executor::new(chip.clone(), DefectMap::new(), None);
        let base: usize = clean
            .run(&MultiplexedIvd::standard_panel(), &mut rng())
            .unwrap()
            .iter()
            .map(|o| o.transport_moves)
            .sum();
        // Block a cell on the likely straight route between SAMPLE1 and
        // mixer1 (not a resource cell) and re-run.
        let s = chip.dispenser("SAMPLE1").unwrap().cell;
        let m = chip.mixers[0].rendezvous();
        let route = Router::new(chip.array.region(), &DefectMap::new())
            .route(s, m, &[])
            .unwrap();
        let obstacle = route[route.len() / 2];
        let mut defects = DefectMap::new();
        defects.mark(
            obstacle,
            DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
        );
        let detoured = Executor::new(chip, defects, None);
        if let Ok(outcomes) = detoured.run(&MultiplexedIvd::standard_panel(), &mut rng()) {
            let with_detour: usize = outcomes.iter().map(|o| o.transport_moves).sum();
            assert!(with_detour >= base);
        }
    }

    #[test]
    fn unknown_resources_are_reported() {
        let chip = layout::fabricated_ivd_chip();
        let exec = Executor::new(chip, DefectMap::new(), None);
        let mut batch = MultiplexedIvd::standard_panel();
        batch.requests[0].sample_port = "NOPE".into();
        assert!(matches!(
            exec.run(&batch, &mut rng()).unwrap_err(),
            ExecError::UnknownPort(_)
        ));
        let mut batch = MultiplexedIvd::standard_panel();
        batch.requests[0].mixer = "NOPE".into();
        assert!(matches!(
            exec.run(&batch, &mut rng()).unwrap_err(),
            ExecError::UnknownMixer(_)
        ));
        let mut batch = MultiplexedIvd::standard_panel();
        batch.requests[0].detector = 99;
        assert!(matches!(
            exec.run(&batch, &mut rng()).unwrap_err(),
            ExecError::UnknownDetector(99)
        ));
    }

    #[test]
    fn low_voltage_cannot_execute() {
        let chip = layout::fabricated_ivd_chip();
        let exec = Executor::new(chip, DefectMap::new(), None)
            .with_actuation(ElectrowettingModel::with_voltage(5.0, 1_000.0));
        assert!(matches!(
            exec.run(&MultiplexedIvd::standard_panel(), &mut rng()),
            Err(ExecError::VoltageTooLow)
        ));
    }

    #[test]
    fn full_panel_runs_on_dtmb26_chip() {
        let chip = layout::ivd_dtmb26_chip();
        let exec = Executor::new(chip, DefectMap::new(), None);
        let outcomes = exec
            .run(&MultiplexedIvd::full_metabolic_panel(), &mut rng())
            .unwrap();
        assert_eq!(outcomes.len(), 8);
    }

    /// Plans the standard panel on the fabricated chip with some of request
    /// 0's `[sample, rendezvous, detector]` cells (by index) sealed off
    /// behind catastrophic faults on every in-region neighbour, the cells
    /// themselves intact; returns the error and those three cells.
    fn plan_walled(walled: &[usize]) -> (ExecError, [HexCoord; 3]) {
        let chip = layout::fabricated_ivd_chip();
        let batch = MultiplexedIvd::standard_panel();
        let req = &batch.requests[0];
        let cells = [
            chip.dispenser(&req.sample_port).unwrap().cell,
            chip.mixer(&req.mixer).unwrap().rendezvous(),
            chip.detectors[req.detector].cell,
        ];
        let mut defects = DefectMap::new();
        for &i in walled {
            for n in cells[i].neighbors() {
                if chip.array.region().contains(n) {
                    defects.mark(
                        n,
                        DefectCause::Catastrophic(CatastrophicDefect::OpenConnection),
                    );
                }
            }
        }
        let err = plan_protocol(
            &chip,
            &defects,
            None,
            &ElectrowettingModel::default(),
            &batch,
        )
        .unwrap_err();
        (err, cells)
    }

    #[test]
    fn severed_sample_transport_is_unroutable_from_the_sample() {
        // Also when the detector transport is severed too: the sample
        // transport is checked first.
        for walled in [&[0][..], &[0, 2]] {
            let (err, [sample, rendezvous, _]) = plan_walled(walled);
            assert_eq!(
                err,
                ExecError::Unroutable {
                    from: sample,
                    to: rendezvous
                }
            );
        }
    }

    #[test]
    fn severed_detector_transport_is_unroutable_to_the_detector() {
        let (err, [_, rendezvous, detector]) = plan_walled(&[2]);
        assert_eq!(
            err,
            ExecError::Unroutable {
                from: rendezvous,
                to: detector
            }
        );
    }

    #[test]
    fn error_messages_display() {
        let e = ExecError::Unroutable {
            from: HexCoord::new(0, 0),
            to: HexCoord::new(1, 1),
        };
        assert!(e.to_string().contains("no droplet route"));
        assert!(ExecError::VoltageTooLow.to_string().contains("voltage"));
    }
}
