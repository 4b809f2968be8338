//! One engine, one query: the single construction path and the single
//! estimate dispatch behind `dmfb yield`/`sweep`, `dmfb serve`,
//! `dmfb search` and `dmfb bench`.
//!
//! [`Engine::build`] turns an [`EngineSpec`] into the compiled
//! evaluator for its scheme or assay chip. [`Engine::estimate`] runs one
//! [`Query`] (estimator × defect model × `p` × trials × seed) and returns
//! one [`Estimate`] per yield tier the engine answers; [`Engine::sweep`]
//! does the same over a survival grid. Front ends parse their own
//! dialect into these types and render the result; none of them matches
//! on estimator or defect model to pick an engine method.

use crate::spec::{DefectModelKind, EngineSpec, EstimatorKind, SchemeSpec, Tier};
use crate::Biochip;
use dmfb_defects::clustered::ClusterWalk;
use dmfb_defects::ClusteredDefects;
use dmfb_grid::{HexCoord, Lattice, SquareCoord, SquareRegion, Topology};
use dmfb_reconfig::shifted::{ModuleBand, SpareRowArray};
use dmfb_sim::{BernoulliEstimate, StratifiedConfig, StratifiedEstimate};
use dmfb_yield::{OperationalYield, SchemeYield};
use std::sync::OnceLock;

/// Which yield estimator a query runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Estimator {
    /// Plain Monte-Carlo (the default).
    Naive,
    /// Defect-count-stratified rare-event estimator with its tuning.
    Stratified(StratifiedConfig),
}

impl Estimator {
    /// The token the spec guards key on.
    #[must_use]
    pub fn kind(&self) -> EstimatorKind {
        match self {
            Estimator::Naive => EstimatorKind::Naive,
            Estimator::Stratified(_) => EstimatorKind::Stratified,
        }
    }
}

/// Which defect model draws the random chips.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DefectModel {
    /// The paper's i.i.d. cell-failure assumption (the default).
    Bernoulli,
    /// Negative-binomial clustered wafer defects.
    Clustered(ClusteredDefects),
}

impl DefectModel {
    /// The token the spec guards key on.
    #[must_use]
    pub fn kind(&self) -> DefectModelKind {
        match self {
            DefectModel::Bernoulli => DefectModelKind::Bernoulli,
            DefectModel::Clustered(_) => DefectModelKind::Clustered,
        }
    }
}

/// One yield question: everything per-request that an [`Engine`] does
/// not fix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Query {
    /// The estimator to run.
    pub estimator: Estimator,
    /// The defect model drawing each trial's chip.
    pub defect_model: DefectModel,
    /// Cell-survival probability (unused by the clustered model).
    pub p: f64,
    /// Monte-Carlo trials (the budget under the stratified estimator).
    pub trials: u32,
    /// Seed of the estimate.
    pub seed: u64,
}

/// One tier's yield estimate, from whichever estimator ran.
#[derive(Clone, Debug, PartialEq)]
pub enum Estimate {
    /// A plain Monte-Carlo success count.
    Naive(BernoulliEstimate),
    /// A stratified estimate with its rare-event bookkeeping.
    Stratified(StratifiedEstimate),
}

/// The estimate for every tier an engine answers, in tier order.
pub type TierEstimates = Vec<(Tier, Estimate)>;

/// A built yield engine: the compiled evaluator for one [`EngineSpec`].
/// Every estimate entry point takes `&self`, so one engine serves any
/// number of queries (the serve cache shares it across workers).
#[derive(Clone, Debug)]
pub enum Engine {
    /// A hexagonal DTMB (or no-redundancy) chip and its matching engine.
    Hex {
        /// The chip (array + policy).
        chip: Biochip,
        /// The compiled engine for the chip.
        engine: SchemeYield,
        /// The chip's cluster walk, built on the first clustered query.
        clusters: OnceLock<ClusterWalk<HexCoord>>,
    },
    /// A square-lattice scheme (interstitial DTMB or spare rows).
    Square {
        /// The compiled engine.
        engine: SchemeYield<SquareCoord>,
        /// The lattice it was compiled over (for the defect samplers).
        region: SquareRegion,
        /// Physical spare cells: the evaluator's spare members for
        /// interstitial patterns, the spare-row area for spare rows (whose
        /// compiled resources have no member cells).
        spare_cells: usize,
        /// The region's cluster walk, built on the first clustered query.
        clusters: OnceLock<ClusterWalk<SquareCoord>>,
    },
    /// The Section 7 assay stack over the fixed IVD case-study chip.
    Assay(OperationalYield),
}

impl Engine {
    /// Builds the engine `spec` describes, running its trials on
    /// `threads` workers (`0` = one per core; estimates never depend on
    /// it). This is the expensive step the serve cache exists to skip.
    ///
    /// # Panics
    ///
    /// Panics if the scheme shape is out of range; front ends reject such
    /// shapes first with [`SchemeSpec::validate`].
    #[must_use]
    pub fn build(spec: &EngineSpec, threads: usize) -> Engine {
        let spec = match *spec {
            EngineSpec::Assay(panel) => {
                return Engine::Assay(OperationalYield::ivd(panel).with_threads(threads))
            }
            EngineSpec::Scheme(spec) => spec,
        };
        let square = |engine: SchemeYield<SquareCoord>, region, spare_cells| Engine::Square {
            engine: engine.with_threads(threads),
            region,
            spare_cells,
            clusters: OnceLock::new(),
        };
        match spec {
            SchemeSpec::HexDtmb { .. } => {
                let chip = spec.biochip().expect("hex specs build a chip");
                let engine = chip.engine().with_threads(threads);
                Engine::Hex {
                    chip,
                    engine,
                    clusters: OnceLock::new(),
                }
            }
            SchemeSpec::SquareDtmb {
                pattern,
                width,
                height,
            } => {
                let region = SquareRegion::rect(width, height);
                let engine = SchemeYield::from_scheme(&region, &pattern);
                let spare_cells = engine.evaluator().resource_cell_counts().sum();
                square(engine, region, spare_cells)
            }
            SchemeSpec::SpareRows {
                width,
                module_rows,
                spare_rows,
            } => {
                let band = ModuleBand {
                    name: "Module 1".into(),
                    rows: module_rows,
                };
                let array = SpareRowArray::new(width, vec![band], spare_rows);
                let region = array.region();
                let engine = SchemeYield::from_scheme(&region, &array);
                square(engine, region, width as usize * spare_rows as usize)
            }
        }
    }

    /// `(primary cells, spare cells)` of the physical array — the area
    /// figures `dmfb search` weighs and `dmfb bench` records.
    #[must_use]
    pub fn cell_counts(&self) -> (usize, usize) {
        match self {
            Engine::Hex { chip, .. } => (chip.array().primary_count(), chip.array().spare_count()),
            Engine::Square {
                engine,
                spare_cells,
                ..
            } => (engine.evaluator().unit_cell_counts().sum(), *spare_cells),
            Engine::Assay(engine) => (
                engine.chip().array.primary_count(),
                engine.chip().array.spare_count(),
            ),
        }
    }

    /// Exact `(floor, ceiling)` on reconfigured yield at survival `p`,
    /// from the evaluator's guaranteed tolerance and Hall bound; the
    /// trivial `(0, 1)` for the assay stack.
    #[must_use]
    pub fn survival_bounds(&self, p: f64) -> (f64, f64) {
        match self {
            Engine::Hex { engine, .. } => (
                engine.evaluator().survival_lower_bound(p),
                engine.evaluator().survival_upper_bound(p),
            ),
            Engine::Square { engine, .. } => (
                engine.evaluator().survival_lower_bound(p),
                engine.evaluator().survival_upper_bound(p),
            ),
            Engine::Assay(_) => (0.0, 1.0),
        }
    }

    /// Runs `query`: the reconfigured tier for scheme engines; raw,
    /// reconfigured and operational for the assay stack (all three from
    /// the same trials).
    #[must_use]
    pub fn estimate(&self, query: &Query) -> TierEstimates {
        match self {
            Engine::Hex {
                chip,
                engine,
                clusters,
            } => reconfigured(engine, chip.array().region(), clusters, query),
            Engine::Square {
                engine,
                region,
                clusters,
                ..
            } => reconfigured(engine, region, clusters, query),
            Engine::Assay(engine) => {
                let Query {
                    p, trials, seed, ..
                } = *query;
                match (query.defect_model, query.estimator) {
                    (DefectModel::Clustered(cluster), _) => {
                        let walk = ClusterWalk::new(engine.chip().array.region());
                        let e =
                            engine.estimate_with(trials, seed, |rng| cluster.inject_on(&walk, rng));
                        three_tiers([e.raw, e.reconfigured, e.operational], Estimate::Naive)
                    }
                    (DefectModel::Bernoulli, Estimator::Stratified(config)) => {
                        let e = engine.estimate_stratified(p, trials, seed, &config);
                        three_tiers([e.raw, e.reconfigured, e.operational], Estimate::Stratified)
                    }
                    (DefectModel::Bernoulli, Estimator::Naive) => {
                        let e = engine.estimate(p, trials, seed);
                        three_tiers([e.raw, e.reconfigured, e.operational], Estimate::Naive)
                    }
                }
            }
        }
    }

    /// Sweeps the survival grid `ps` under `estimator` and Bernoulli
    /// defects, one row per grid point. Naive scheme sweeps run one
    /// independent experiment per point (point `i` seeded `seed + i`), or
    /// with `batched` one pass whose trials share each random chip across
    /// the grid; stratified sweeps always run per point. The assay stack's
    /// naive sweep always shares each trial's chip across the grid.
    #[must_use]
    pub fn sweep(
        &self,
        estimator: &Estimator,
        ps: &[f64],
        trials: u32,
        seed: u64,
        batched: bool,
    ) -> Vec<(f64, TierEstimates)> {
        match self {
            Engine::Hex { engine, .. } => {
                sweep_scheme(engine, estimator, ps, trials, seed, batched)
            }
            Engine::Square { engine, .. } => {
                sweep_scheme(engine, estimator, ps, trials, seed, batched)
            }
            Engine::Assay(engine) => match estimator {
                Estimator::Stratified(config) => ps
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| {
                        let e = engine.estimate_stratified(
                            p,
                            trials,
                            seed.wrapping_add(j as u64),
                            config,
                        );
                        let tiers = [e.raw, e.reconfigured, e.operational];
                        (p, three_tiers(tiers, Estimate::Stratified))
                    })
                    .collect(),
                Estimator::Naive => engine
                    .sweep(ps, trials, seed)
                    .into_iter()
                    .map(|e| {
                        let tiers = [e.raw, e.reconfigured, e.operational];
                        (e.p, three_tiers(tiers, Estimate::Naive))
                    })
                    .collect(),
            },
        }
    }
}

/// The reconfigured-tier estimate on a scheme engine over `topo`;
/// clustered queries sample on `clusters`, the walk over `topo` that
/// reports the engine's cell ids (built here on first use).
fn reconfigured<C, T>(
    engine: &SchemeYield<C>,
    topo: &T,
    clusters: &OnceLock<ClusterWalk<C>>,
    query: &Query,
) -> TierEstimates
where
    C: Lattice,
    T: Topology<Coord = C>,
{
    let Query {
        p, trials, seed, ..
    } = *query;
    let estimate = match (query.defect_model, query.estimator) {
        (DefectModel::Clustered(cluster), _) => {
            let walk =
                clusters.get_or_init(|| ClusterWalk::with_ids(topo, engine.evaluator().cells()));
            Estimate::Naive(engine.estimate_sampled(
                trials,
                seed,
                || walk.scratch(),
                |rng, scratch, faults| cluster.sample_on(walk, rng, scratch, faults),
            ))
        }
        (DefectModel::Bernoulli, Estimator::Stratified(config)) => {
            Estimate::Stratified(engine.estimate_survival_stratified(p, trials, seed, &config))
        }
        (DefectModel::Bernoulli, Estimator::Naive) => {
            Estimate::Naive(engine.estimate_survival(p, trials, seed))
        }
    };
    vec![(Tier::Reconfigured, estimate)]
}

/// A scheme engine's survival sweep as reconfigured-tier rows.
fn sweep_scheme<C: Copy + Ord + Send + Sync>(
    engine: &SchemeYield<C>,
    estimator: &Estimator,
    ps: &[f64],
    trials: u32,
    seed: u64,
    batched: bool,
) -> Vec<(f64, TierEstimates)> {
    match estimator {
        Estimator::Stratified(config) => engine
            .sweep_survival_stratified(ps, trials, seed, config)
            .into_iter()
            .map(|pt| {
                (
                    pt.x,
                    vec![(Tier::Reconfigured, Estimate::Stratified(pt.estimate))],
                )
            })
            .collect(),
        Estimator::Naive => {
            let estimates = if batched {
                engine.sweep_survival_batched(ps, trials, seed)
            } else {
                engine.sweep_survival(ps, trials, seed)
            };
            ps.iter()
                .zip(estimates)
                .map(|(&p, e)| (p, vec![(Tier::Reconfigured, Estimate::Naive(e))]))
                .collect()
        }
    }
}

/// The assay stack's raw, reconfigured and operational estimates.
fn three_tiers<E>(estimates: [E; 3], wrap: fn(E) -> Estimate) -> TierEstimates {
    let [raw, reconfigured, operational] = estimates;
    vec![
        (Tier::Raw, wrap(raw)),
        (Tier::Reconfigured, wrap(reconfigured)),
        (Tier::Operational, wrap(operational)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmfb_reconfig::SquarePattern;

    /// Hex and spare-row counts are pinned by the search frontier golden;
    /// interstitial patterns count the evaluator's members.
    #[test]
    fn square_cell_counts_are_the_evaluator_members() {
        let spec = SchemeSpec::SquareDtmb {
            pattern: SquarePattern::Checkerboard,
            width: 8,
            height: 8,
        };
        assert_eq!(
            Engine::build(&EngineSpec::Scheme(spec), 1).cell_counts(),
            (32, 32)
        );
    }
}
