//! The tiered bit-parallel trial engine: sample → classify → match, 64
//! trials per word.
//!
//! The scalar hot path ([`TrialEvaluator::survival_trial`]) evaluates one
//! trial at a time: draw a uniform per cell, aggregate to unit/resource
//! fault flags, run the bitset Hopcroft–Karp matcher. At realistic
//! survival probabilities almost every trial is decided by a local
//! argument that never needs a global matching. This module restructures
//! the path over a [`TrialBlock`] of up to 64 lanes (one trial per bit of
//! a `u64` word):
//!
//! 1. **Sample** — a transposed [`BlockSampler`] draws one fault *word*
//!    per cell (bit `L` = lane `L`'s fault flag), bit-identical to the
//!    scalar per-trial streams for the same seeds. Samplers whose draw
//!    stream cannot be transposed (clustered defects, explicit defect
//!    maps) run per lane instead and OR their fault ids into the same
//!    words ([`TrialEvaluator::sampled_block`]).
//! 2. **Classify** — cell-fault words are OR-folded to per-unit and
//!    per-resource fault words through the evaluator's CSR structure,
//!    then four word-parallel tiers retire whole lanes in order:
//!    * *no fault* — the lane has no faulty unit;
//!    * *Hall* — the lane's total fault count is within the
//!      placement-independent Hall bound
//!      ([`TrialEvaluator::guaranteed_tolerable_faults`]). Every staging
//!      path leaves each lane's count beside the words — the sampling
//!      kernels sum it in registers, an exact-count draw sets it to `k`,
//!      a per-lane sampler counts its distinct ids — so the tier is one
//!      64-lane compare;
//!    * *dead spare* — some faulty unit has every candidate resource
//!      dead, so the lane is provably intolerable;
//!    * *private spare* — a two-word saturating counter over the
//!      resource→unit reverse CSR marks, per resource, the lanes where
//!      it is live and borders exactly one faulty unit. Such a *private*
//!      spare can always be given to that unit, so a lane in which every
//!      faulty unit has one is tolerable.
//! 3. **Match** — only lanes with a *contested* faulty unit (no private
//!    spare) reach a sparse augmenting-path matcher over just those
//!    units, bucketed by lane so each lane walks only its own. It reads
//!    spare liveness straight from the resource words and returns
//!    `false` at the first unit with no augmenting path.
//!
//! Grid mode ([`TrialEvaluator::survival_grid_block`]) answers a whole
//! ascending survival grid from one draw per cell: point 0 comes from
//! the sampling pass, which also stores every draw's mantissa, and each
//! lane still open there bisects the later points for its first
//! tolerable one, all open lanes probing their own midpoints in the same
//! re-threshold and decide pass.
//!
//! Every tier is lane-local, so a one-lane call decides exactly as that
//! lane does inside a 64-lane group. Because tier 1 replays the scalar
//! RNG streams exactly and tiers 2–3 decide exactly the verdicts the
//! scalar matcher would have produced, every block method is
//! **byte-identical** to its scalar counterpart: same seeds in, same
//! verdicts out, at any block width and any thread count.

use crate::incremental::TrialEvaluator;
use dmfb_defects::block::{fault_threshold, BlockSampler};
use dmfb_graph::words::{lane_mask, pack_ge_per_lane, LANES};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Units per open-lane fault below which the spare tiers skip fault-free
/// units with a branch instead of running every unit branch-free.
const SPARSE_UNITS_PER_FAULT: u64 = 8;

/// Cumulative tier counters of a [`TrialBlock`] — how much work each
/// tier retired, for skip-rate reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Live lane-verdicts produced: one per trial, or in grid mode one
    /// per lane per probe (point 0 plus each bisection round it joins).
    pub lanes: u64,
    /// Verdicts decided by the classifier tiers alone (no matcher call):
    /// always `no_fault + hall + dead_spare + private_spare`.
    pub classified: u64,
    /// Verdicts that reached the residue matcher.
    pub matched: u64,
    /// Lanes with no faulty unit.
    pub no_fault: u64,
    /// Lanes with faulty units but no more faults than the Hall bound.
    pub hall: u64,
    /// Lanes rejected because a faulty unit had no live candidate.
    pub dead_spare: u64,
    /// Lanes accepted because every faulty unit had a private live spare.
    pub private_spare: u64,
}

/// Reusable per-worker scratch for the tiered block engine. Create one
/// per worker thread via [`TrialEvaluator::block_scratch`]; any number of
/// block calls reuse its buffers allocation-free.
#[derive(Clone, Debug)]
pub struct TrialBlock {
    /// Transposed sampler (reseeded per 64-lane group).
    sampler: BlockSampler,
    /// Fault word per relevant cell for the current group.
    cell_words: Vec<u64>,
    /// Per lane: how many of `cell_words` have its bit set. Every path
    /// that stages the words sets it (for the Hall tier).
    counts: [u64; LANES],
    /// OR-fold of member-cell fault words per unit.
    unit_words: Vec<u64>,
    /// OR-fold of member-cell fault words per resource (indestructible
    /// resources stay zero).
    res_words: Vec<u64>,
    /// Per resource: lanes where it is live and borders exactly one
    /// faulty unit.
    private_words: Vec<u64>,
    /// Faulty units without a private spare in some open lane, with
    /// those lanes, in ascending unit order.
    contested: Vec<(u32, u64)>,
    /// The residue lanes' contested units, bucketed by lane.
    lane_units: Vec<u32>,
    /// Stored transposed mantissas, `[cell × LANES]`, kept by grid mode
    /// for its bisection probes (sized lazily on the first grid call with
    /// two or more points).
    mantissa: Vec<u64>,
    /// Grid mode's per-lane bisection bracket: the lane's first
    /// tolerable grid index lies in `lo..=hi` (`hi` = grid length means
    /// no point is tolerable).
    bracket: [(usize, usize); LANES],
    /// Grid mode's per-lane mantissa threshold for the current probe.
    probe: [u64; LANES],
    /// Grid mode's outcome histogram over one call: per grid index, the
    /// lanes first tolerable there (the last slot: at no point).
    first_tolerable: Vec<u64>,
    /// Hall bound of the Hall tier (`None` when the structure has no
    /// units, a zero bound, or a bound above 255 — the other tiers
    /// already cover those cases).
    hall_bound: Option<u64>,
    /// Augmenting-path state of the residue matcher.
    matcher: LaneMatcher,
    /// One lane's faulty cell ids, written by a per-lane sampler.
    faults: Vec<u32>,
    stats: BlockStats,
}

/// Kuhn-style augmenting-path matcher over one lane of a [`TrialBlock`],
/// with generation-stamped owner and visited marks so a new lane or a
/// new augment clears nothing.
#[derive(Clone, Debug)]
struct LaneMatcher {
    /// Unit currently holding each resource (valid when
    /// `owner_gen[r] == lane_gen`).
    owner: Vec<u32>,
    owner_gen: Vec<u32>,
    lane_gen: u32,
    /// Resources already tried by the current augment (stamp `visit_gen`).
    visited: Vec<u32>,
    visit_gen: u32,
    /// DFS frames: a unit and the index of its next candidate edge.
    stack: Vec<(u32, u32)>,
}

/// Advances a generation counter; on `u32` wrap-around clears `stamps`
/// so marks from 2^32 generations ago cannot alias the new one.
fn next_generation(generation: &mut u32, stamps: &mut [u32]) -> u32 {
    *generation = generation.wrapping_add(1);
    if *generation == 0 {
        stamps.iter_mut().for_each(|g| *g = 0);
        *generation = 1;
    }
    *generation
}

impl TrialBlock {
    /// Cumulative tier counters since construction.
    #[must_use]
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Ensures the mantissa store holds `cells × LANES` words.
    fn ensure_mantissa(&mut self, cells: usize) {
        if self.mantissa.len() < cells * LANES {
            self.mantissa.resize(cells * LANES, 0);
        }
    }
}

/// Hall tier: lanes whose staged fault count is within the
/// placement-independent bound (`0` when the bound is unusable) — one
/// 64-lane compare of the counts the staging path left in `block.counts`.
fn hall_tolerable(block: &TrialBlock) -> u64 {
    let Some(bound) = block.hall_bound else {
        return 0;
    };
    block
        .counts
        .iter()
        .enumerate()
        .fold(0, |mask, (lane, &count)| {
            mask | (u64::from(count <= bound) << lane)
        })
}

/// Calls `f` with the index of every set bit of `lanes`, lowest first.
fn for_each_lane(mut lanes: u64, mut f: impl FnMut(usize)) {
    while lanes != 0 {
        f(lanes.trailing_zeros() as usize);
        lanes &= lanes - 1;
    }
}

impl<C: Copy + Ord> TrialEvaluator<C> {
    /// Allocates a block scratch sized for this evaluator — one per
    /// worker thread, reused across all of that worker's blocks.
    #[must_use]
    pub fn block_scratch(&self) -> TrialBlock {
        let bound = self.guaranteed_tolerable_faults();
        let usable = self.unit_count() > 0 && (1..=255).contains(&bound);
        let resources = self.resource_count();
        TrialBlock {
            sampler: BlockSampler::new(&[]),
            cell_words: vec![0; self.cell_count()],
            counts: [0; LANES],
            unit_words: vec![0; self.unit_count()],
            res_words: vec![0; resources],
            private_words: vec![0; resources],
            contested: Vec::with_capacity(self.unit_count()),
            lane_units: Vec::new(),
            mantissa: Vec::new(),
            bracket: [(0, 0); LANES],
            probe: [0; LANES],
            first_tolerable: Vec::new(),
            hall_bound: usable.then_some(bound as u64),
            matcher: LaneMatcher {
                owner: vec![0; resources],
                owner_gen: vec![0; resources],
                lane_gen: 0,
                visited: vec![0; resources],
                visit_gen: 0,
                stack: Vec::with_capacity(self.unit_count()),
            },
            faults: Vec::new(),
            stats: BlockStats::default(),
        }
    }

    /// Survival-mode block trial: evaluates one trial per seed (64 per
    /// word group) at survival probability `p` and returns how many were
    /// tolerable. Byte-identical to running
    /// [`TrialEvaluator::survival_trial`] with
    /// `StdRng::seed_from_u64(seed)` for each seed, at any seed-slice
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn survival_block(&self, p: f64, seeds: &[u64], block: &mut TrialBlock) -> u32 {
        let threshold = fault_threshold(p);
        let mut successes = 0u32;
        for group in seeds.chunks(LANES) {
            block.sampler.reseed(group);
            block
                .sampler
                .fill_fault_words(threshold, &mut block.cell_words);
            block.counts = *block.sampler.fault_counts();
            successes += self.decide_group(block).count_ones();
        }
        successes
    }

    /// Grid-mode block trial: evaluates one trial per seed against an
    /// entire ascending survival grid, adding each point's tolerable-lane
    /// count to `counts`. Byte-identical (in per-point totals) to running
    /// [`TrialEvaluator::survival_trial_grid`] per seed.
    ///
    /// One transposed draw per cell is shared across the grid (common
    /// random numbers), so per-lane tolerability is monotone along the
    /// grid and each lane has a first tolerable point. Point 0's fault
    /// words come straight from the sampling pass, which also stores each
    /// draw's mantissa. Every lane still open after point 0 then bisects
    /// its own bracket of later points: each round re-thresholds the
    /// stored columns at every open lane's own midpoint in one
    /// [`pack_ge_per_lane`] pass and decides just those lanes, so a
    /// 64-lane group costs at most `1 + ⌈log₂ n⌉` decide passes on an
    /// `n`-point grid. A one-point grid is exactly
    /// [`TrialEvaluator::survival_block`].
    ///
    /// # Panics
    ///
    /// Panics if `ps` is not sorted ascending, lengths mismatch, or any
    /// `p` is outside `[0, 1]`.
    pub fn survival_grid_block(
        &self,
        ps: &[f64],
        seeds: &[u64],
        block: &mut TrialBlock,
        counts: &mut [u64],
    ) {
        assert_eq!(ps.len(), counts.len(), "grid and output lengths differ");
        assert!(
            ps.windows(2).all(|w| w[0] <= w[1]),
            "survival grid must be ascending"
        );
        match *ps {
            [] => return,
            [p] => {
                counts[0] += u64::from(self.survival_block(p, seeds, block));
                return;
            }
            _ => {}
        }
        let thresholds: Vec<u64> = ps.iter().map(|&p| fault_threshold(p)).collect();
        let never = ps.len();
        block.ensure_mantissa(self.cell_count());
        block.first_tolerable.clear();
        block.first_tolerable.resize(never + 1, 0);
        for group in seeds.chunks(LANES) {
            block.sampler.reseed(group);
            let live = block.sampler.live_mask();
            block.sampler.fill_fault_words_store(
                thresholds[0],
                &mut block.cell_words,
                &mut block.mantissa,
            );
            block.counts = *block.sampler.fault_counts();
            let tolerable = self.decide_group_masked(block, live);
            block.first_tolerable[0] += u64::from(tolerable.count_ones());
            // Bisect every open lane's bracket until it closes.
            let mut active = live & !tolerable;
            for_each_lane(active, |lane| block.bracket[lane] = (1, never));
            while active != 0 {
                for_each_lane(active, |lane| {
                    let (lo, hi) = block.bracket[lane];
                    block.probe[lane] = thresholds[(lo + hi) / 2];
                });
                pack_ge_per_lane(
                    &block.mantissa,
                    &block.probe,
                    active,
                    &mut block.cell_words,
                    &mut block.counts,
                );
                let tolerable = self.decide_group_masked(block, active);
                for_each_lane(active, |lane| {
                    let (lo, hi) = &mut block.bracket[lane];
                    let mid = (*lo + *hi) / 2;
                    if (tolerable >> lane) & 1 == 1 {
                        *hi = mid;
                    } else {
                        *lo = mid + 1;
                    }
                    if *lo == *hi {
                        block.first_tolerable[*lo] += 1;
                        active &= !(1u64 << lane);
                    }
                });
            }
        }
        let mut tolerable = 0u64;
        for (count, &lanes) in counts.iter_mut().zip(&block.first_tolerable) {
            tolerable += lanes;
            *count += tolerable;
        }
    }

    /// Exact-fault-count block trial: evaluates one trial per seed with
    /// exactly `faults` faulty cells and returns how many were tolerable.
    /// Byte-identical to running [`TrialEvaluator::exact_fault_trial`]
    /// per seed.
    ///
    /// Sampling rides the transposed path
    /// ([`BlockSampler::exact_fault_words`]): the Fisher–Yates swap
    /// indices for all lanes are drawn lock-step from the lane
    /// generators and replayed per lane on a generation-stamped slot
    /// table, so a lane costs `O(faults)`, skipping the scalar path's
    /// `O(n)` identity-permutation reset — the cost that used to
    /// dominate the stratified estimator's sampled strata.
    ///
    /// # Panics
    ///
    /// Panics if `faults` exceeds the evaluator's relevant-cell count.
    pub fn exact_fault_block(&self, faults: usize, seeds: &[u64], block: &mut TrialBlock) -> u32 {
        let n = self.cell_count();
        assert!(
            faults <= n,
            "cannot inject {faults} faults into a {n}-cell structure"
        );
        let mut successes = 0u32;
        for group in seeds.chunks(LANES) {
            block.sampler.reseed(group);
            block
                .sampler
                .exact_fault_words(n, faults, &mut block.cell_words);
            block.counts = *block.sampler.fault_counts();
            successes += self.decide_group(block).count_ones();
        }
        successes
    }

    /// Per-lane-sampler block trial: for each seed, `sample` gets that
    /// trial's `StdRng::seed_from_u64(seed)` and pushes its faulty cell
    /// ids (indices into the evaluator's cells, duplicates allowed) onto
    /// the list; the ids are OR-ed into the lane's bit of the fault words
    /// and every lane is decided by the classifier tiers and the residue
    /// matcher. Returns how many trials were tolerable — the same verdict
    /// per seed as marking that trial's ids faulty and running
    /// [`TrialEvaluator::evaluate_defects`], at any seed-slice length.
    ///
    /// # Panics
    ///
    /// Panics if `sample` pushes an id at or past the evaluator's cell
    /// count.
    pub fn sampled_block(
        &self,
        seeds: &[u64],
        block: &mut TrialBlock,
        mut sample: impl FnMut(&mut StdRng, &mut Vec<u32>),
    ) -> u32 {
        let mut successes = 0u32;
        for group in seeds.chunks(LANES) {
            block.cell_words.fill(0);
            block.counts = [0; LANES];
            for (lane, &seed) in group.iter().enumerate() {
                block.faults.clear();
                sample(&mut StdRng::seed_from_u64(seed), &mut block.faults);
                for &id in &block.faults {
                    // Count each distinct id once.
                    let word = &mut block.cell_words[id as usize];
                    block.counts[lane] += (!*word >> lane) & 1;
                    *word |= 1u64 << lane;
                }
            }
            successes += self
                .decide_group_masked(block, lane_mask(group.len()))
                .count_ones();
        }
        successes
    }

    /// Classifies and (for the residue) matches every live lane of the
    /// fault words currently staged in `block.cell_words`; returns the
    /// tolerable-lane mask.
    fn decide_group(&self, block: &mut TrialBlock) -> u64 {
        let live = block.sampler.live_mask();
        self.decide_group_masked(block, live)
    }

    /// [`Self::decide_group`] restricted to the lanes in `mask` (a grid
    /// bisection probe decides only its open lanes). Each tier narrows
    /// the set of open lanes; the matcher sees only what is left.
    fn decide_group_masked(&self, block: &mut TrialBlock, mask: u64) -> u64 {
        #[cfg(test)]
        tests::assert_counts_match_words(block);
        self.fold_words(block);
        let faulty = block.unit_words.iter().fold(0u64, |w, &u| w | u);
        let no_fault = mask & !faulty;
        let mut open = mask & faulty;
        let hall = open & hall_tolerable(block);
        open &= !hall;
        let (dead, private) = if open == 0 {
            (0, 0)
        } else {
            self.spare_tiers(block, open)
        };
        open &= !dead & !private;
        let verdicts = no_fault | hall | private | self.match_residue(block, open);
        let stats = &mut block.stats;
        let count = |w: u64| u64::from(w.count_ones());
        stats.lanes += count(mask);
        stats.no_fault += count(no_fault);
        stats.hall += count(hall);
        stats.dead_spare += count(dead);
        stats.private_spare += count(private);
        stats.classified += count(no_fault | hall | dead | private);
        stats.matched += count(open);
        verdicts
    }

    /// Folds cell-fault words to unit and resource fault words through
    /// the CSR structure.
    fn fold_words(&self, block: &mut TrialBlock) {
        for (i, word) in block.unit_words.iter_mut().enumerate() {
            *word = self
                .unit_members(i)
                .iter()
                .fold(0u64, |w, &c| w | block.cell_words[c as usize]);
        }
        for (j, word) in block.res_words.iter_mut().enumerate() {
            *word = self
                .res_members(j)
                .iter()
                .fold(0u64, |w, &c| w | block.cell_words[c as usize]);
        }
    }

    /// Dead-spare and private-spare tiers over the `open` lanes; returns
    /// `(provably intolerable, provably tolerable)` masks within `open`
    /// and leaves the contested units of the remaining lanes in
    /// `block.contested` for the matcher.
    ///
    /// A resource is private to a faulty unit in a lane when it is live
    /// and that unit is the only faulty unit it borders. The unit can
    /// always take it — no other unit competes for it — so only faulty
    /// units without a private spare (*contested*) constrain the lane.
    /// A faulty unit with every candidate dead is contested too, and
    /// rejects its lane outright.
    fn spare_tiers(&self, block: &mut TrialBlock, open: u64) -> (u64, u64) {
        for (j, private) in block.private_words.iter_mut().enumerate() {
            let (mut once, mut twice) = (0u64, 0u64);
            for &i in self.res_units(j) {
                let w = block.unit_words[i as usize] & open;
                twice |= once & w;
                once |= w;
            }
            *private = once & !twice & !block.res_words[j];
        }
        block.contested.clear();
        // The open lanes' total fault count bounds how many unit words
        // are non-zero. Skipping the zero ones pays only when they are a
        // predictable majority; otherwise the branch mispredicts and the
        // loop runs every unit straight through.
        let open_faults: u64 = (0..LANES)
            .map(|lane| block.counts[lane] * ((open >> lane) & 1))
            .sum();
        let sparse = open_faults * SPARSE_UNITS_PER_FAULT < block.unit_words.len() as u64;
        let (mut dead, mut any_contested) = (0u64, 0u64);
        for (i, &unit_word) in block.unit_words.iter().enumerate() {
            let w = unit_word & open;
            if sparse && w == 0 {
                continue;
            }
            let (mut all_dead, mut has_private) = (u64::MAX, 0u64);
            for &r in self.adjacent(i) {
                all_dead &= block.res_words[r as usize];
                has_private |= block.private_words[r as usize];
            }
            dead |= w & all_dead;
            let contested = w & !has_private;
            if contested != 0 {
                any_contested |= contested;
                block.contested.push((i as u32, contested));
            }
        }
        (dead, open & !dead & !any_contested)
    }

    /// Match tier: for each lane in `residue`, augments its contested
    /// units one by one and returns the mask of lanes where all of them
    /// were matched. The contested list is first bucketed by lane
    /// (a counting sort that keeps each lane's units ascending), so each
    /// lane walks only its own units.
    fn match_residue(&self, block: &mut TrialBlock, residue: u64) -> u64 {
        if residue == 0 {
            return 0;
        }
        let mut start = [0usize; LANES + 1];
        for &(_, lanes) in &block.contested {
            for_each_lane(lanes & residue, |lane| start[lane + 1] += 1);
        }
        for lane in 0..LANES {
            start[lane + 1] += start[lane];
        }
        block.lane_units.resize(start[LANES], 0);
        let mut next = start;
        for &(unit, lanes) in &block.contested {
            for_each_lane(lanes & residue, |lane| {
                block.lane_units[next[lane]] = unit;
                next[lane] += 1;
            });
        }
        let mut verdicts = 0u64;
        for_each_lane(residue, |lane| {
            let m = &mut block.matcher;
            next_generation(&mut m.lane_gen, &mut m.owner_gen);
            let matched = block.lane_units[start[lane]..start[lane + 1]]
                .iter()
                .all(|&unit| self.augment(unit, lane as u32, &block.res_words, m));
            if matched {
                verdicts |= 1u64 << lane;
            }
        });
        verdicts
    }

    /// Searches an augmenting path from the unmatched `root` in `lane`
    /// by iterative DFS, flipping it into the matching when found. A unit
    /// with no augmenting path stays unmatched in every maximum matching
    /// of the units tried so far, so the caller may stop at the first
    /// `false`.
    fn augment(&self, root: u32, lane: u32, res_words: &[u64], m: &mut LaneMatcher) -> bool {
        let visit = next_generation(&mut m.visit_gen, &mut m.visited);
        let (offsets, adj_res) = (&self.structure.adj_offsets, &self.structure.adj_res);
        m.stack.clear();
        m.stack.push((root, offsets[root as usize]));
        while let Some(frame) = m.stack.last_mut() {
            let unit = frame.0 as usize;
            if frame.1 == offsets[unit + 1] {
                m.stack.pop();
                continue;
            }
            let r = adj_res[frame.1 as usize] as usize;
            frame.1 += 1;
            if (res_words[r] >> lane) & 1 == 1 || m.visited[r] == visit {
                continue;
            }
            m.visited[r] = visit;
            if m.owner_gen[r] == m.lane_gen {
                let holder = m.owner[r];
                m.stack.push((holder, offsets[holder as usize]));
                continue;
            }
            // `r` is free: every frame takes the resource its cursor
            // last stepped over, shifting the path by one.
            for &(u, next) in &m.stack {
                let taken = adj_res[next as usize - 1] as usize;
                m.owner[taken] = u;
                m.owner_gen[taken] = m.lane_gen;
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtmb::DtmbKind;
    use crate::local::ReconfigPolicy;
    use crate::scheme::SchemeStructure;
    use crate::shifted::SpareRowArray;
    use crate::square_dtmb::SquarePattern;
    use dmfb_grid::SquareRegion;
    use rand::Rng;

    /// Each lane's popcount over the staged cell words must be its
    /// count: every decide pass of every unit test checks this, so each
    /// staging path is held to it wherever a test reaches it.
    pub(super) fn assert_counts_match_words(block: &TrialBlock) {
        for (lane, &count) in block.counts.iter().enumerate() {
            let popcount: u64 = block.cell_words.iter().map(|&w| (w >> lane) & 1).sum();
            assert_eq!(count, popcount, "lane {lane}");
        }
    }

    fn hex_eval(n: usize) -> TrialEvaluator {
        let array = DtmbKind::Dtmb26A.with_primary_count(n);
        TrialEvaluator::new(&array, &ReconfigPolicy::AllPrimaries)
    }

    fn seeds(base: u64, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| base.wrapping_add(i * 0x9E37))
            .collect()
    }

    #[test]
    fn survival_block_matches_scalar_verdicts() {
        let eval = hex_eval(80);
        let mut block = eval.block_scratch();
        let mut scratch = eval.scratch();
        for &p in &[0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            for width in [1usize, 3, 64, 65, 150] {
                let s = seeds(0xC0FFEE ^ (width as u64), width);
                let got = eval.survival_block(p, &s, &mut block);
                let mut expected = 0u32;
                for &seed in &s {
                    let mut rng = StdRng::seed_from_u64(seed);
                    expected += u32::from(eval.survival_trial(p, &mut rng, &mut scratch));
                }
                assert_eq!(got, expected, "p={p} width={width}");
            }
        }
    }

    #[test]
    fn grid_block_matches_scalar_grid_counts() {
        let eval = hex_eval(60);
        let mut block = eval.block_scratch();
        let mut scratch = eval.scratch();
        let ps = [0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0];
        let s = seeds(0xBEEF, 130);
        let mut counts = vec![0u64; ps.len()];
        eval.survival_grid_block(&ps, &s, &mut block, &mut counts);
        let mut expected = vec![0u64; ps.len()];
        let mut out = [false; 7];
        for &seed in &s {
            let mut rng = StdRng::seed_from_u64(seed);
            eval.survival_trial_grid(&ps, &mut rng, &mut scratch, &mut out);
            for (e, &o) in expected.iter_mut().zip(&out) {
                *e += u64::from(o);
            }
        }
        assert_eq!(counts, expected);
    }

    #[test]
    fn grid_block_decides_in_logarithmic_passes() {
        // Each lane costs one probe at point 0 plus at most ⌈log₂ n⌉
        // bisection rounds, however many grid points it crosses before
        // turning tolerable.
        let eval = hex_eval(120);
        let trials = 4096u64;
        let s = seeds(0x10_6E, trials as usize);
        for n in [11u32, 1001] {
            let ps: Vec<f64> = (0..n)
                .map(|i| 0.90 + 0.10 * f64::from(i) / f64::from(n - 1))
                .collect();
            let mut block = eval.block_scratch();
            let mut counts = vec![0u64; ps.len()];
            eval.survival_grid_block(&ps, &s, &mut block, &mut counts);
            let stats = block.stats();
            let rounds = u64::from(n.next_power_of_two().trailing_zeros());
            assert!(
                stats.lanes <= trials * (1 + rounds),
                "n={n}: {} lane probes for {trials} trials",
                stats.lanes
            );
            assert!(stats.lanes > trials, "n={n}: no lane was bisected");
            assert_eq!(stats.classified + stats.matched, stats.lanes, "n={n}");
        }
    }

    #[test]
    fn exact_fault_block_matches_scalar() {
        let eval = hex_eval(50);
        let mut block = eval.block_scratch();
        let mut scratch = eval.scratch();
        for k in [0usize, 1, 3, 8, 20, eval.cell_count()] {
            let s = seeds(0xAB00 + k as u64, 90);
            let got = eval.exact_fault_block(k, &s, &mut block);
            let mut expected = 0u32;
            for &seed in &s {
                let mut rng = StdRng::seed_from_u64(seed);
                expected += u32::from(eval.exact_fault_trial(k, &mut rng, &mut scratch));
            }
            assert_eq!(got, expected, "k={k}");
        }
    }

    #[test]
    fn every_staging_path_counts_lane_faults() {
        // `assert_counts_match_words` runs on every decide pass; this
        // drives each staging path through at least one: survival, grid
        // point 0 and its bisection probes, shallow and deep exact counts,
        // and a per-lane sampler with duplicate ids.
        let eval = hex_eval(60);
        let n = eval.cell_count();
        let s = seeds(0xC0_C0, 100);
        let mut block = eval.block_scratch();
        let passes = |block: &TrialBlock, before: &mut u64, path: &str| {
            assert!(block.stats().lanes > *before, "{path} decided nothing");
            *before = block.stats().lanes;
        };
        let mut lanes = 0;
        let _ = eval.survival_block(0.95, &s, &mut block);
        passes(&block, &mut lanes, "survival");
        let mut counts = [0u64; 3];
        eval.survival_grid_block(&[0.5, 0.9, 0.99], &s, &mut block, &mut counts);
        assert!(
            block.stats().lanes > lanes + s.len() as u64,
            "no grid probe ran"
        );
        passes(&block, &mut lanes, "grid");
        for k in [3, n / 2] {
            let _ = eval.exact_fault_block(k, &s, &mut block);
            passes(&block, &mut lanes, "exact");
        }
        let _ = eval.sampled_block(&s, &mut block, |rng, ids| {
            for _ in 0..6 {
                ids.push(rng.gen_range(0..4));
            }
        });
        passes(&block, &mut lanes, "sampled");
    }

    #[test]
    fn all_three_schemes_agree_with_scalar() {
        let region = SquareRegion::rect(10, 10);
        let mut evals: Vec<TrialEvaluator<dmfb_grid::SquareCoord>> = SquarePattern::ALL
            .iter()
            .map(|p| TrialEvaluator::for_scheme(&region, p))
            .collect();
        let rows = SpareRowArray::figure2_example();
        evals.push(TrialEvaluator::for_scheme(&rows.region(), &rows));
        for (idx, eval) in evals.iter().enumerate() {
            let mut block = eval.block_scratch();
            let mut scratch = eval.scratch();
            for &p in &[0.8, 0.95, 0.995] {
                let s = seeds(0xD00D + idx as u64, 96);
                let got = eval.survival_block(p, &s, &mut block);
                let mut expected = 0u32;
                for &seed in &s {
                    let mut rng = StdRng::seed_from_u64(seed);
                    expected += u32::from(eval.survival_trial(p, &mut rng, &mut scratch));
                }
                assert_eq!(got, expected, "scheme={idx} p={p}");
            }
        }
    }

    #[test]
    fn block_width_does_not_change_totals() {
        let eval = hex_eval(70);
        let mut block = eval.block_scratch();
        let s = seeds(0xFEED, 200);
        let whole = eval.survival_block(0.97, &s, &mut block);
        for chunk in [1usize, 7, 64, 128] {
            let split: u32 = s
                .chunks(chunk)
                .map(|c| eval.survival_block(0.97, c, &mut block))
                .sum();
            assert_eq!(split, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn classifier_skip_rate_is_high_at_high_survival() {
        // Measured regimes on DTMB(2,6) @ 120 primaries (Hall bound 2):
        // ~99.7% of lanes retire without a matcher call at p = 0.99 and
        // ~99.9% at p = 0.995; guard against regressions below those tiers.
        let eval = hex_eval(120);
        let mut block = eval.block_scratch();
        let s = seeds(0x99, 2048);
        let _ = eval.survival_block(0.99, &s, &mut block);
        let stats = block.stats();
        let skip_rate = |s: BlockStats| s.classified as f64 / s.lanes as f64;
        assert_eq!(stats.lanes, 2048);
        assert_eq!(stats.classified + stats.matched, stats.lanes);
        assert!(
            skip_rate(stats) > 0.95,
            "classifier should retire >95% of lanes at p=0.99, got {}",
            skip_rate(stats)
        );
        let mut block = eval.block_scratch();
        let _ = eval.survival_block(0.995, &s, &mut block);
        assert!(
            skip_rate(block.stats()) > 0.99,
            "classifier should retire >99% of lanes at p=0.995, got {}",
            skip_rate(block.stats())
        );
        // The paper's case study, DTMB(2,6) @ 600 primaries: the Hall
        // bound alone retires almost nothing (~8 faults per lane against
        // a bound of 2); the private-spare tier leaves ~1.5% residue.
        let eval = hex_eval(600);
        let mut block = eval.block_scratch();
        let _ = eval.survival_block(0.99, &seeds(0x600, 4096), &mut block);
        let stats = block.stats();
        assert!(
            (stats.matched as f64) < 0.05 * stats.lanes as f64,
            "residue should stay below 5% of lanes at p=0.99, got {stats:?}"
        );
    }

    #[test]
    fn tier_counters_sum_and_ignore_block_width() {
        let eval = hex_eval(120);
        let s = seeds(0x7135, 512);
        let mut total = BlockStats::default();
        for &p in &[0.9, 0.97, 0.99, 0.995] {
            let per_width: Vec<BlockStats> = [1usize, 17, 64, 256]
                .iter()
                .map(|&width| {
                    let mut block = eval.block_scratch();
                    for chunk in s.chunks(width) {
                        let _ = eval.survival_block(p, chunk, &mut block);
                    }
                    block.stats()
                })
                .collect();
            let stats = per_width[0];
            assert!(
                per_width.iter().all(|w| *w == stats),
                "p={p}: {per_width:?}"
            );
            assert_eq!(
                stats.classified,
                stats.no_fault + stats.hall + stats.dead_spare + stats.private_spare,
                "p={p}"
            );
            assert_eq!(stats.classified + stats.matched, stats.lanes, "p={p}");
            total.no_fault += stats.no_fault;
            total.hall += stats.hall;
            total.dead_spare += stats.dead_spare;
            total.private_spare += stats.private_spare;
            total.matched += stats.matched;
        }
        // The grid of survival probabilities exercises every tier.
        for (name, count) in [
            ("no_fault", total.no_fault),
            ("hall", total.hall),
            ("dead_spare", total.dead_spare),
            ("private_spare", total.private_spare),
            ("matched", total.matched),
        ] {
            assert!(count > 0, "tier {name} never fired: {total:?}");
        }
    }

    /// A cell-level structure over `u32` cells: units are cells
    /// `0..units`, resource `j` is cell `100 + j`, and `edges` lists each
    /// unit's candidate resources.
    fn hand_built(edges: &[&[usize]], resources: usize) -> TrialEvaluator<u32> {
        let units = edges.len() as u32;
        let cells = (0..units).chain((0..resources as u32).map(|j| 100 + j));
        let mut s = SchemeStructure::new(cells.collect());
        let res: Vec<usize> = (0..resources as u32)
            .map(|j| s.add_resource([units + j]))
            .collect();
        for (i, adj) in edges.iter().enumerate() {
            let unit = s.add_unit([i as u32]);
            for &j in *adj {
                s.connect(unit, res[j]);
            }
        }
        TrialEvaluator::from_structure(s)
    }

    /// Decides one lane (lane 0) with exactly `faulty` cells failed,
    /// checks it against the scalar matcher, and returns the verdict.
    fn decide_lane(eval: &TrialEvaluator<u32>, block: &mut TrialBlock, faulty: &[u32]) -> bool {
        for (word, cell) in block.cell_words.iter_mut().zip(&eval.structure.cells) {
            *word = u64::from(faulty.contains(cell));
        }
        block.counts = [0; LANES];
        block.counts[0] = block.cell_words.iter().sum();
        let verdict = eval.decide_group_masked(block, 1) == 1;
        let mut scratch = eval.scratch();
        assert_eq!(
            verdict,
            eval.evaluate_faulty_cells(faulty, &mut scratch),
            "faults {faulty:?}"
        );
        verdict
    }

    #[test]
    fn unit_with_private_spare_is_dropped_from_the_residue() {
        // Units 0 and 1 share spares 0 and 1; unit 2 borders spare 1 and
        // its private spare 2.
        let eval = hand_built(&[&[0, 1], &[0, 1], &[1, 2]], 3);
        let mut block = eval.block_scratch();
        assert!(decide_lane(&eval, &mut block, &[0, 1, 2]));
        let units: Vec<u32> = block.contested.iter().map(|&(u, _)| u).collect();
        assert_eq!(units, [0, 1], "unit 2 keeps its private spare");
        assert_eq!(block.stats().matched, 1);
        assert_eq!(block.matcher.visit_gen, 2, "one augment per contested unit");
    }

    #[test]
    fn residue_matcher_stops_at_first_failed_augment() {
        // Units 0, 1 and 2 all border spare 0 and 1; spare 1 is dead, so
        // unit 1 cannot be augmented once unit 0 holds spare 0.
        let eval = hand_built(&[&[0, 1], &[0, 1], &[0, 1]], 2);
        let mut block = eval.block_scratch();
        assert!(!decide_lane(&eval, &mut block, &[0, 1, 2, 101]));
        assert_eq!(block.stats().matched, 1);
        assert_eq!(block.matcher.visit_gen, 2, "unit 2 is never tried");
    }

    #[test]
    fn residue_matcher_follows_augmenting_chains() {
        // Unit 0 first takes spare 0; unit 1 (degree 1) needs it, so the
        // path unit 1 → spare 0 → unit 0 → spare 1 re-routes unit 0.
        // Unit 2 shares spare 1 (keeping it contested for unit 0) and owns
        // spare 2 privately.
        let eval = hand_built(&[&[0, 1], &[0], &[1, 2]], 3);
        let mut block = eval.block_scratch();
        assert!(decide_lane(&eval, &mut block, &[0, 1, 2]));
        assert_eq!(block.stats().matched, 1);
        let m = &block.matcher;
        let holder = |r: usize| (m.owner_gen[r] == m.lane_gen).then_some(m.owner[r]);
        assert_eq!((holder(0), holder(1), holder(2)), (Some(1), Some(0), None));
    }

    #[test]
    fn generation_wrap_clears_stale_stamps() {
        let mut generation = u32::MAX;
        let mut stamps = [u32::MAX, 1];
        assert_eq!(next_generation(&mut generation, &mut stamps), 1);
        assert_eq!(stamps, [0, 0]);
        assert_eq!(next_generation(&mut generation, &mut stamps), 2);
    }

    #[test]
    fn empty_seed_slice_is_a_no_op() {
        let eval = hex_eval(30);
        let mut block = eval.block_scratch();
        assert_eq!(eval.survival_block(0.9, &[], &mut block), 0);
        assert_eq!(eval.exact_fault_block(2, &[], &mut block), 0);
        let mut counts = [0u64; 2];
        eval.survival_grid_block(&[0.5, 0.9], &[], &mut block, &mut counts);
        assert_eq!(counts, [0, 0]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn grid_block_rejects_unsorted_grid() {
        let eval = hex_eval(20);
        let mut block = eval.block_scratch();
        let mut counts = [0u64; 2];
        eval.survival_grid_block(&[0.9, 0.5], &[1], &mut block, &mut counts);
    }

    #[test]
    #[should_panic(expected = "cannot inject")]
    fn exact_block_rejects_overfull() {
        let eval = hex_eval(20);
        let mut block = eval.block_scratch();
        let _ = eval.exact_fault_block(eval.cell_count() + 1, &[1], &mut block);
    }
}
