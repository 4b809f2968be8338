//! Online reconfiguration under *operational* faults.
//!
//! The paper classifies faults as "either manufacturing or operational"
//! (Section 2, citing its refs [10, 11] on concurrent testing), and the
//! platform's headline property is *dynamic* reconfigurability: "groups of
//! cells in a microfluidic array can be reconfigured to change their
//! functionality during the concurrent execution of a set of bioassays."
//! This module exercises exactly that: cells may fail *between assays of a
//! running protocol*, and the chip re-plans its local reconfiguration and
//! droplet routes on the fly instead of aborting.

use crate::assay::{AssayOutcome, MultiplexedIvd};
use crate::chip::ChipDescription;
use crate::schedule::{ExecError, Executor};
use dmfb_defects::{CatastrophicDefect, DefectCause, DefectMap};
use dmfb_grid::HexCoord;
use dmfb_reconfig::{ReconfigPolicy, TrialEvaluator};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A cell failure that strikes while the protocol is running.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct OperationalFault {
    /// The fault manifests just before the assay with this index starts.
    pub before_assay: usize,
    /// The failing cell.
    pub cell: HexCoord,
}

/// The result of an online run.
#[derive(Clone, Debug)]
pub struct OnlineReport {
    /// Per-assay outcomes in request order.
    pub outcomes: Vec<AssayOutcome>,
    /// How many times the reconfiguration plan was recomputed because a
    /// new fault appeared.
    pub replans: usize,
    /// Operational faults that were absorbed by re-planning.
    pub faults_absorbed: usize,
}

/// Executes a protocol while absorbing operational faults by re-planning
/// local reconfiguration between assays.
#[derive(Clone, Debug)]
pub struct OnlineExecutor {
    chip: ChipDescription,
    initial_defects: DefectMap,
    policy: ReconfigPolicy,
}

impl OnlineExecutor {
    /// Creates an online executor over `chip` with its manufacturing
    /// defect state and a success policy for re-planning.
    #[must_use]
    pub fn new(chip: ChipDescription, initial_defects: DefectMap, policy: ReconfigPolicy) -> Self {
        OnlineExecutor {
            chip,
            initial_defects,
            policy,
        }
    }

    /// Runs `batch`, injecting `events` at their assay boundaries. Each
    /// new fault triggers a re-plan; if the chip can still satisfy the
    /// policy, execution continues on the updated plan.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] when a fault cannot be absorbed (no
    /// matching, dead resource, severed route).
    pub fn run(
        &self,
        batch: &MultiplexedIvd,
        events: &[OperationalFault],
        rng: &mut impl Rng,
    ) -> Result<OnlineReport, ExecError> {
        let evaluator = TrialEvaluator::new(&self.chip.array, &self.policy);
        let mut scratch = evaluator.scratch();
        let mut replan = |defects: &DefectMap, resource: String| {
            evaluator
                .reconfigure(defects, &mut scratch)
                .map_err(|failure| ExecError::FaultyResource {
                    resource,
                    cell: failure
                        .unassigned
                        .first()
                        .copied()
                        .unwrap_or(HexCoord::ORIGIN),
                })
        };
        let mut defects = self.initial_defects.clone();
        let mut plan = replan(&defects, "initial reconfiguration".into())?;
        let mut outcomes = Vec::with_capacity(batch.requests.len());
        let mut replans = 0usize;
        let mut absorbed = 0usize;
        let mut clock_offset = 0.0f64;

        for (i, request) in batch.requests.iter().enumerate() {
            // Apply the operational faults scheduled before this assay.
            let mut changed = false;
            for event in events.iter().filter(|e| e.before_assay == i) {
                if !defects.is_faulty(event.cell) {
                    defects.mark(
                        event.cell,
                        DefectCause::Catastrophic(CatastrophicDefect::DielectricBreakdown),
                    );
                    changed = true;
                }
            }
            if changed {
                plan = replan(&defects, format!("online re-plan before assay {i}"))?;
                replans += 1;
                absorbed += events.iter().filter(|e| e.before_assay == i).count();
            }

            // Execute this single assay on the current chip state.
            let single = MultiplexedIvd {
                requests: vec![request.clone()],
            };
            let exec = Executor::new(self.chip.clone(), defects.clone(), Some(plan.clone()));
            let mut result = exec.run(&single, rng)?;
            let mut outcome = result.pop().expect("one outcome per request");
            outcome.completion_time_s += clock_offset;
            clock_offset = outcome.completion_time_s;
            outcomes.push(outcome);
        }

        Ok(OnlineReport {
            outcomes,
            replans,
            faults_absorbed: absorbed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{ivd_dtmb26_chip, used_cells_policy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn no_events_matches_offline_behaviour() {
        let chip = ivd_dtmb26_chip();
        let policy = used_cells_policy(&chip);
        let online = OnlineExecutor::new(chip, DefectMap::new(), policy);
        let report = online
            .run(&MultiplexedIvd::standard_panel(), &[], &mut rng())
            .unwrap();
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.replans, 0);
        assert_eq!(report.faults_absorbed, 0);
        // Completion times accumulate monotonically.
        for w in report.outcomes.windows(2) {
            assert!(w[1].completion_time_s >= w[0].completion_time_s);
        }
    }

    #[test]
    fn mixer_failure_mid_protocol_is_absorbed() {
        let chip = ivd_dtmb26_chip();
        let mixer_cell = chip.mixers[0].rendezvous();
        let policy = used_cells_policy(&chip);
        let online = OnlineExecutor::new(chip, DefectMap::new(), policy);
        // mixer1 dies after the first assay; assays 2 (mixer1 again, via
        // SAMPLE2) must run on the replacement spare.
        let events = [OperationalFault {
            before_assay: 2,
            cell: mixer_cell,
        }];
        let report = online
            .run(&MultiplexedIvd::standard_panel(), &events, &mut rng())
            .unwrap();
        assert_eq!(report.outcomes.len(), 4);
        assert_eq!(report.replans, 1);
        assert_eq!(report.faults_absorbed, 1);
    }

    #[test]
    fn unabsorbable_failure_aborts_with_context() {
        let chip = ivd_dtmb26_chip();
        let mixer_cell = chip.mixers[0].rendezvous();
        let spares: Vec<HexCoord> = chip.array.adjacent_spares(mixer_cell).collect();
        let policy = used_cells_policy(&chip);
        // Kill the mixer AND all its spares mid-run.
        let mut events = vec![OperationalFault {
            before_assay: 2,
            cell: mixer_cell,
        }];
        events.extend(spares.into_iter().map(|cell| OperationalFault {
            before_assay: 2,
            cell,
        }));
        let online = OnlineExecutor::new(chip, DefectMap::new(), policy);
        let err = online
            .run(&MultiplexedIvd::standard_panel(), &events, &mut rng())
            .unwrap_err();
        assert!(err.to_string().contains("re-plan"), "{err}");
    }

    #[test]
    fn duplicate_events_do_not_double_count() {
        let chip = ivd_dtmb26_chip();
        let cell = chip
            .assay_cells
            .iter()
            .find(|c| {
                // Not a resource cell: keep the run alive.
                chip.mixers.iter().all(|m| !m.cells.contains(c))
                    && chip.detectors.iter().all(|d| d.cell != *c)
                    && chip.dispensers.iter().all(|d| d.cell != *c)
            })
            .unwrap();
        let policy = used_cells_policy(&chip);
        let online = OnlineExecutor::new(chip, DefectMap::new(), policy);
        let events = [
            OperationalFault {
                before_assay: 1,
                cell,
            },
            OperationalFault {
                before_assay: 3,
                cell, // already faulty: no re-plan needed
            },
        ];
        let report = online
            .run(&MultiplexedIvd::standard_panel(), &events, &mut rng())
            .unwrap();
        assert_eq!(report.replans, 1);
    }
}
