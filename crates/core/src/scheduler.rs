//! The TensorDash hardware scheduler (§3.2, Fig 10).
//!
//! Every cycle the scheduler receives the effectual-pair bit vector `Z` of
//! the staging window (for two-side extraction `Z = AZ & BZ`; for one-side
//! extraction `Z` is the non-zero vector of the scheduled operand alone) and
//! picks, for each of the `N` lanes, one movement out of that lane's option
//! list — or none, if no reachable cell holds an effectual pair.
//!
//! Selection is a *static priority* scheme per lane (first available option
//! in the Fig 9 order), made globally consistent by evaluating lanes in
//! conflict-free *levels*: lanes within a level cannot reach a common cell,
//! so they may decide simultaneously; selected cells are removed from `Z`
//! before the next level decides. The result is always a **valid** schedule:
//! each value pair is consumed at most once.
//!
//! Two structural properties follow from the connectivity and drive the
//! paper's headline guarantees, and both are enforced by tests here:
//!
//! * the dense cell `(+0, i)` is reachable only by lane `i` and is that
//!   lane's highest-priority option, so every effectual pair of the current
//!   row is always consumed — the window advances **at least one row per
//!   cycle** and TensorDash never runs slower than the dense baseline;
//! * the window can drain at most `depth` rows per cycle, capping the
//!   speedup at `depth`× (3× for the paper's configuration).
//!
//! This module is the repository's hot path, and since PR 2 it is
//! implemented as a **batched bitmask kernel**: the lane-uniform option
//! shape lets one ring rotation decide a whole conflict-free level per
//! priority, dense rows are consumed in a single word operation, and
//! [`Scheduler::run_masks_arena`] additionally packs `64 / lanes` staging
//! windows of a lockstep tile row-group into every `u64`. The kernel is
//! also **wide-word**: one pass of straight-line register arithmetic
//! resolves each `(level, priority)` table entry across a `[u64; 4]` word
//! group. A row-group of at most four packed words leaves room in that
//! register group, so `run_masks_arena` keeps `4 / words` independent
//! row-groups of one call **in flight** — four Table 2 groups of 4 PE rows
//! at 16 lanes — each with its own pending rows, cursor and drain; a
//! finished group's words load the call's next group. The scalar per-lane
//! search survives as [`Scheduler::step_masks_reference`] — the golden
//! model for equivalence tests (same cells consumed, bit for bit, over
//! random mask streams) and the baseline for the scheduler
//! microbenchmarks and `tensordash bench`.

use crate::connectivity::{Connectivity, Movement};
use crate::geometry::{PeGeometry, MAX_DEPTH};

/// A single lane's decision for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSelection {
    /// Index into the lane's option list — the `MS` multiplexer select
    /// signal that the hardware would drive (3 bits for the paper's PE).
    pub option_index: u8,
    /// The staging cell the lane reads (absolute step and source lane).
    pub movement: Movement,
}

/// A complete schedule for one cycle: one optional selection per lane plus
/// the number of rows the window may drain (`AS` signal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Per-lane selections, indexed by lane; `None` means the lane idles
    /// (its multiplier is fed a zero / power-gated this cycle).
    pub selections: Vec<Option<LaneSelection>>,
    /// How many leading rows of the window are fully drained after this
    /// cycle (the 2-bit `AS` signal: 1..=depth).
    pub advance: usize,
}

impl Schedule {
    /// Number of effectual MACs this cycle (lanes with a selection).
    #[must_use]
    pub fn macs(&self) -> usize {
        self.selections.iter().filter(|s| s.is_some()).count()
    }
}

/// Outcome of one scheduling step in the fast mask-only path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Leading fully-drained rows (not yet clamped to the rows actually
    /// pending in the stream).
    pub drainable: usize,
    /// Effectual MAC operations issued this cycle.
    pub macs: usize,
}

/// Aggregate statistics of running a whole operand stream through one PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRun {
    /// Cycles TensorDash needed.
    pub cycles: u64,
    /// Cycles the dense baseline needs (= rows in the stream).
    pub dense_cycles: u64,
    /// Effectual MACs performed (= effectual pairs in the stream).
    pub macs: u64,
    /// Histogram of MACs-per-cycle (index = lanes busy that cycle).
    pub occupancy: Vec<u64>,
    /// Histogram of rows drained per cycle (index = advance amount, 0..=depth).
    pub advance_histogram: [u64; MAX_DEPTH + 1],
}

impl StreamRun {
    /// Speedup over the dense baseline (`dense_cycles / cycles`); 1.0 for an
    /// empty stream.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.dense_cycles as f64 / self.cycles as f64
        }
    }

    /// Fraction of multiplier slots that performed effectual work.
    #[must_use]
    pub fn utilization(&self, lanes: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.macs as f64 / (self.cycles * lanes as u64) as f64
        }
    }
}

/// Aggregate statistics of running a lockstep row-group through a tile row
/// of PEs (one mask stream per PE row, min-drain synchronized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchRun {
    /// Cycles the lockstep group needed.
    pub cycles: u64,
    /// Cycles the dense baseline needs (= rows per stream).
    pub dense_cycles: u64,
    /// Effectual MACs summed across the group's streams.
    pub macs: u64,
    /// Scheduling decisions taken (one per stream per cycle).
    pub scheduler_steps: u64,
}

impl std::ops::AddAssign for BatchRun {
    /// Folds another row-group's run into this one: every field is an
    /// exact count, so the runs of a call's groups sum in any order.
    fn add_assign(&mut self, other: BatchRun) {
        self.cycles += other.cycles;
        self.dense_cycles += other.dense_cycles;
        self.macs += other.macs;
        self.scheduler_steps += other.scheduler_steps;
    }
}

/// The batched bitmask scheduler. This is the hot structure of the whole
/// repository — the tile simulator runs it over millions of staging windows.
///
/// Selection state is precompiled from [`Connectivity`] into flat lookup
/// tables: the lane-uniform `(step, offset)` priority list, one
/// lane-membership word per conflict-free level, and per-level
/// promotion-target masks. One scheduling step then resolves a whole level
/// per priority with two word rotations instead of a per-lane,
/// per-option search (see [`Scheduler::step_masks`]); the scalar search is
/// retained as [`Scheduler::step_masks_reference`], the golden model the
/// equivalence tests and benchmarks compare against. Single streams run
/// through [`Scheduler::run_masks`]; lockstep tile row-groups run through
/// [`Scheduler::run_masks_arena`], which additionally packs `64 / lanes`
/// windows into each word and steps several row-groups per call.
///
/// # Examples
///
/// ```
/// use tensordash_core::{PeGeometry, Scheduler};
///
/// let scheduler = Scheduler::paper(PeGeometry::paper());
/// // Two 16-lane streams of 30 rows each, back to back in one arena,
/// // processed in lockstep (one 2-row tile group).
/// let mut arena = vec![0x00FF_u64; 30];
/// arena.extend([0x0F0F_u64; 30]);
/// let run = scheduler.run_masks_arena(&arena, 30, 2);
/// assert_eq!(run.dense_cycles, 30);
/// assert!(run.cycles < 30); // both streams are half sparse
/// assert_eq!(run.macs, 2 * 30 * 8); // every effectual pair, once
/// // The same arena as two 1-row groups: their runs summed.
/// let split = scheduler.run_masks_arena(&arena, 30, 1);
/// assert_eq!(split.dense_cycles, 2 * 30);
/// assert_eq!(split.macs, run.macs);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    geometry: PeGeometry,
    /// Per lane: options as (staging row index, single-bit lane mask) — the
    /// scalar reference path only.
    ops: Vec<Vec<(u8, u64)>>,
    /// Lanes flattened in level order — the scalar reference path only.
    lane_order: Vec<u8>,
    levels: usize,
    /// Lane-uniform movement options as (staging row, ring offset), in
    /// priority order.
    rel: Vec<(u8, u32)>,
    /// Lane-membership word per conflict-free level, in evaluation order.
    level_masks: Vec<u64>,
    /// Per level: union of the member lanes' promotion-target masks, per
    /// staging row — lets a step skip levels with nothing reachable.
    level_reach: Vec<[u64; MAX_DEPTH]>,
    /// Windows per packed word in the group path (`64 / lanes`, at least 1):
    /// a 16-lane PE packs four staging windows into every `u64`.
    packed_slots: usize,
    /// The movement table with rotation masks tiled across the packed slots.
    packed_rel: Vec<PackedOption>,
    /// Level membership words tiled across the packed slots.
    packed_level_members: Vec<u64>,
    /// Level promotion-reach rows tiled across the packed slots.
    /// Per level, the row-union of the member lanes' promotion-target
    /// masks tiled across the packed slots: one AND against a window's
    /// above-dense bits replaces a row-by-row visibility scan in the
    /// batched group kernel (a superset test — exact for the all-empty
    /// skip that matters, and a level's reachable sources absent from
    /// *any* row can never be taken).
    packed_level_reach_any: Vec<u64>,
}

/// One movement option compiled for the packed group path: subword ring
/// rotations become two shifts plus two precomputed boundary masks, applied
/// to every packed window slot at once.
#[derive(Debug, Clone, Copy)]
struct PackedOption {
    /// Staging row this option reads.
    step: u8,
    /// Ring offset (0 for dense/lookahead options — no rotation needed).
    k: u32,
    /// Complementary shift `lanes - k` (0 when `k` is 0).
    kc: u32,
    /// `rot_right` mask for the down-shifted part, tiled per slot.
    rr_lo: u64,
    /// `rot_right` mask for the wrapped-around part, tiled per slot.
    rr_hi: u64,
    /// `rot_left` mask for the up-shifted part, tiled per slot.
    rl_lo: u64,
    /// `rot_left` mask for the wrapped-around part, tiled per slot.
    rl_hi: u64,
}

impl Scheduler {
    /// Builds the scheduler for a given interconnect.
    #[must_use]
    pub fn new(connectivity: &Connectivity) -> Self {
        let ops = (0..connectivity.geometry().lanes())
            .map(|lane| {
                connectivity
                    .options(lane)
                    .iter()
                    .map(|mv| (mv.step, 1u64 << mv.lane))
                    .collect()
            })
            .collect();
        let rel: Vec<(u8, u32)> = connectivity
            .relative_options()
            .iter()
            .map(|&(step, off)| (step, u32::from(off)))
            .collect();
        let level_reach: Vec<[u64; MAX_DEPTH]> = connectivity
            .levels()
            .iter()
            .map(|level| {
                let mut rows = [0u64; MAX_DEPTH];
                for &lane in level {
                    let reach = connectivity.promotion_masks(lane as usize);
                    for (row, bits) in rows.iter_mut().zip(reach) {
                        *row |= bits;
                    }
                }
                rows
            })
            .collect();
        let geometry = connectivity.geometry();
        let lanes = geometry.lanes() as u32;
        let mask = geometry.lane_mask();
        let slots = (64 / geometry.lanes()).max(1);
        let repeat = |m: u64| (0..slots as u32).fold(0u64, |acc, s| acc | (m << (s * lanes)));
        let packed_rel = rel
            .iter()
            .map(|&(step, k)| {
                if k == 0 {
                    PackedOption {
                        step,
                        k: 0,
                        kc: 0,
                        rr_lo: repeat(mask),
                        rr_hi: 0,
                        rl_lo: repeat(mask),
                        rl_hi: 0,
                    }
                } else {
                    let down = mask >> k; // bits 0..lanes-k per slot
                    let low = (1u64 << k) - 1; // bits 0..k per slot
                    PackedOption {
                        step,
                        k,
                        kc: lanes - k,
                        rr_lo: repeat(down),
                        rr_hi: repeat(mask & !down),
                        rl_lo: repeat(mask & !low),
                        rl_hi: repeat(low),
                    }
                }
            })
            .collect();
        let packed_level_members = connectivity
            .level_masks()
            .iter()
            .map(|&m| repeat(m))
            .collect();
        // Row 0 is excluded: the group kernel consumes every dense bit
        // before the level walk, so above-dense rows are all that remain.
        let packed_level_reach_any = level_reach
            .iter()
            .map(|rows| repeat(rows[1..].iter().fold(0u64, |acc, &r| acc | r)))
            .collect();
        Scheduler {
            geometry,
            ops,
            lane_order: connectivity.lane_order().to_vec(),
            levels: connectivity.levels().len(),
            rel,
            level_masks: connectivity.level_masks().to_vec(),
            level_reach,
            packed_slots: slots,
            packed_rel,
            packed_level_members,
            packed_level_reach_any,
        }
    }

    /// Convenience constructor: the paper interconnect for `geometry`.
    #[must_use]
    pub fn paper(geometry: PeGeometry) -> Self {
        Scheduler::new(&Connectivity::paper(geometry))
    }

    /// The PE geometry this scheduler drives.
    #[must_use]
    pub fn geometry(&self) -> PeGeometry {
        self.geometry
    }

    /// Number of hierarchy levels (6 for the paper's 16-lane PE).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The word-parallel selection kernel shared by [`Scheduler::step_masks`]
    /// and [`Scheduler::step_schedule`].
    ///
    /// Levels are decided in order; within a level, priorities are decided
    /// in order with one ring rotation resolving *all* member lanes at once:
    /// bit `i` of `rot_right(z[step], offset)` says whether lane `i`'s
    /// option `(step, offset)` cell holds an effectual pair. Because lanes
    /// within a level are pairwise conflict-free (no shared cells at any
    /// priority), this is observationally identical to the scalar per-lane
    /// first-hit search. `on_take` receives each batch of winning lanes with
    /// the priority index and movement shape that satisfied them.
    #[inline]
    fn select(
        &self,
        z: &mut [u64; MAX_DEPTH],
        mut on_take: impl FnMut(u64, u8, (u8, u32)),
    ) -> usize {
        let lanes = self.geometry.lanes() as u32;
        let full = self.geometry.lane_mask();

        // The dense cell `(+0, i)` is private to lane `i` and every lane's
        // highest-priority option, so all dense bits are consumed
        // unconditionally before any level has to deliberate.
        let dense = z[0];
        let mut macs = dense.count_ones() as usize;
        if dense != 0 {
            z[0] = 0;
            on_take(dense, 0, (0, 0));
            if dense == full {
                return macs; // fully dense row: no lane left pending
            }
        }

        for (members, reach) in self.level_masks.iter().zip(&self.level_reach) {
            let mut pending = *members & !dense;
            if pending == 0 {
                continue;
            }
            let mut visible = 0u64;
            for row in 0..MAX_DEPTH {
                visible |= z[row] & reach[row];
            }
            if visible == 0 {
                continue; // nothing this level's muxes can see
            }
            // rel[0] is the dense option, already consumed above.
            for (priority, &(step, off)) in self.rel.iter().enumerate().skip(1) {
                let row = z[step as usize];
                if row == 0 {
                    continue;
                }
                let taken = rot_right(row, off, lanes, full) & pending;
                if taken == 0 {
                    continue;
                }
                pending &= !taken;
                z[step as usize] &= !rot_left(taken, off, lanes, full);
                macs += taken.count_ones() as usize;
                on_take(taken, priority as u8, (step, off));
                if pending == 0 {
                    break;
                }
            }
        }
        macs
    }

    /// One combinational scheduling step on a mask-only window.
    ///
    /// `z[r]` holds the effectual-pair bits of staging row `r` (row 0 is the
    /// dense schedule). Selected bits are cleared in place; bits cleared in
    /// earlier cycles stay cleared, which is exactly the hardware behaviour
    /// ("the bits that are left enabled in Z"). Rows beyond the configured
    /// depth must be zero.
    ///
    /// This is the batched bitmask kernel: it consumes the dense row in one
    /// word operation, then decides whole conflict-free levels with one ring
    /// rotation per priority. It is guaranteed — and tested over random mask
    /// streams — to consume exactly the cells the scalar search
    /// ([`Scheduler::step_masks_reference`]) consumes.
    pub fn step_masks(&self, z: &mut [u64; MAX_DEPTH]) -> StepOutcome {
        let macs = self.select(z, |_, _, _| {});
        StepOutcome {
            drainable: self.drainable(z),
            macs,
        }
    }

    /// The scalar per-lane, per-option reference search — the pre-batching
    /// implementation of [`Scheduler::step_masks`], retained as the golden
    /// model for the kernel-equivalence tests and the speedup baseline of
    /// the scheduler microbenchmarks. Semantics are identical.
    pub fn step_masks_reference(&self, z: &mut [u64; MAX_DEPTH]) -> StepOutcome {
        let lanes = self.geometry.lanes();
        let full = self.geometry.lane_mask();

        let mut macs;
        if z[0] == full {
            z[0] = 0;
            macs = lanes;
        } else {
            macs = 0;
            for &lane in &self.lane_order {
                for &(row, bit) in &self.ops[lane as usize] {
                    if z[row as usize] & bit != 0 {
                        z[row as usize] &= !bit;
                        macs += 1;
                        break;
                    }
                }
            }
        }
        StepOutcome {
            drainable: self.drainable(z),
            macs,
        }
    }

    /// One scheduling step producing the full per-lane `MS` selections —
    /// used by the functional PE and the compression engine. Semantics are
    /// identical to [`Scheduler::step_masks`]; selections are reconstructed
    /// from the batched kernel's per-priority lane words (the lane-uniform
    /// option shape makes the priority index *the* `MS` select value).
    pub fn step_schedule(&self, z: &mut [u64; MAX_DEPTH]) -> Schedule {
        let lanes = self.geometry.lanes();
        let mut selections = vec![None; lanes];

        self.select(z, |taken, priority, (step, off)| {
            let mut remaining = taken;
            while remaining != 0 {
                let lane = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                let source = (lane + off as usize) % lanes;
                selections[lane] = Some(LaneSelection {
                    option_index: priority,
                    movement: Movement::new(step, source as u8),
                });
            }
        });

        Schedule {
            advance: self.drainable(z),
            selections,
        }
    }

    /// Leading fully-drained rows after a step, clamped to at least one
    /// (the dense row always drains).
    #[inline]
    fn drainable(&self, z: &[u64; MAX_DEPTH]) -> usize {
        let depth = self.geometry.depth();
        let mut drainable = 0;
        while drainable < depth && z[drainable] == 0 {
            drainable += 1;
        }
        drainable.max(1)
    }

    /// Runs a whole stream of row masks through a single PE and reports
    /// cycle/MAC statistics. Bit `i` of each mask: lane `i`'s operand pair is
    /// effectual. The dense baseline takes exactly one cycle per row.
    pub fn run_masks<I>(&self, masks: I) -> StreamRun
    where
        I: IntoIterator<Item = u64>,
    {
        let lanes = self.geometry.lanes();
        let mut engine = RowEngine::new(self.geometry);
        let mut masks = masks.into_iter();
        let mut run = StreamRun {
            cycles: 0,
            dense_cycles: 0,
            macs: 0,
            occupancy: vec![0; lanes + 1],
            advance_histogram: [0; MAX_DEPTH + 1],
        };
        engine.refill(&mut masks);
        run.dense_cycles = engine.rows_fed();
        while !engine.is_done() {
            let outcome = engine.schedule(self);
            let advance = outcome.drainable.min(engine.rows_pending());
            engine.advance(advance, &mut masks);
            run.cycles += 1;
            run.macs += outcome.macs as u64;
            run.occupancy[outcome.macs] += 1;
            run.advance_histogram[advance] += 1;
            run.dense_cycles = engine.rows_fed();
        }
        run
    }

    /// Runs lockstep tile row-groups of mask streams through the batched
    /// kernel, without per-step engine dispatch, and returns their summed
    /// [`BatchRun`].
    ///
    /// The streams sit back to back in one flat mask **arena**: `arena`
    /// holds `arena.len() / rows` equal-length streams of `rows` masks
    /// each (a contiguous span of a trace), so no per-group slice vector is
    /// materialized and the kernel's refills walk one allocation. The call
    /// cuts them into consecutive row-groups of `group` streams (the last
    /// may be short); a single-group caller passes the stream count.
    ///
    /// One stream per PE row; all rows of a group share the dense-side
    /// staging window, so the group advances by the **minimum** drain
    /// across its streams each cycle (§3.3) — a single dense stream
    /// throttles the whole group. All streams cover the same reduction
    /// extent, so a group's windows share one fill level and the loop keeps
    /// a single pending/cursor pair per group.
    ///
    /// A group's windows are packed `64 / lanes` to a word (a 16-lane PE
    /// packs four windows per `u64`). While a group takes `w ≤ 4` words,
    /// `4 / w` groups are stepped in flight through one `[u64; 4]` word
    /// group — four Table 2 groups of 4 PE rows per pass at 16 lanes — each
    /// with its own drain; when a group finishes, its words load the next
    /// one. Wider groups run one at a time in `[u64; 4]` word-group
    /// strides. Effectual MACs are the popcount of the lane-masked arena:
    /// row 0 is always cleared and only empty rows drain, so every
    /// effectual pair is consumed exactly once. Results are bit-identical to
    /// summing one engine-per-stream run per group
    /// ([`Scheduler::run_masks_batched_reference`]) — groups never
    /// interact, and windows of one group only through the shared drain.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `group` is zero, if `rows` does not divide
    /// `arena.len()`, or if the arena is empty.
    #[must_use]
    pub fn run_masks_arena(&self, arena: &[u64], rows: usize, group: usize) -> BatchRun {
        assert!(rows > 0, "arena streams need at least one row");
        assert!(group > 0, "a row-group needs at least one stream");
        assert!(
            !arena.is_empty() && arena.len().is_multiple_of(rows),
            "arena of {} masks does not hold whole {rows}-row streams",
            arena.len()
        );
        let count = arena.len() / rows;
        let group = group.min(count);
        let packing = Packing {
            arena,
            rows,
            depth: self.geometry.depth(),
            lanes: self.geometry.lanes() as u32,
            slots: self.packed_slots,
            mask: self.geometry.lane_mask(),
        };
        let (cycles, scheduler_steps) = match group.div_ceil(self.packed_slots) {
            1 => self.run_in_flight::<1>(&packing, group),
            2 => self.run_in_flight::<2>(&packing, group),
            3 | 4 => self.run_in_flight::<4>(&packing, group),
            _ => (0..count)
                .step_by(group)
                .fold((0, 0), |(cycles, steps), first| {
                    let streams = group.min(count - first);
                    let run = self.run_wide_group(&packing, first, streams);
                    (cycles + run, steps + run * streams as u64)
                }),
        };
        BatchRun {
            cycles,
            dense_cycles: (rows * count.div_ceil(group)) as u64,
            macs: arena
                .iter()
                .map(|&m| u64::from((m & packing.mask).count_ones()))
                .sum(),
            scheduler_steps,
        }
    }

    /// How many row-groups of `group` streams one
    /// [`run_masks_arena`](Scheduler::run_masks_arena) pass steps in
    /// flight together: `4 / w` for a group of `w ≤ 4` packed words, and
    /// one group at a time past that. On a 16-lane PE that is 4 groups at
    /// 1–4 rows, 2 at 5–8 rows and 1 from 9 rows up — the number of
    /// consecutive groups a caller hands over per call to keep every word
    /// of the register group busy.
    #[must_use]
    pub fn groups_in_flight(&self, group: usize) -> usize {
        (4 / group.max(1).div_ceil(self.packed_slots)).max(1)
    }

    /// The in-flight loop of [`Scheduler::run_masks_arena`] for row-groups
    /// of at most `W ≤ 4` packed words: `4 / W` groups share one
    /// `[u64; 4]` word group, `W` words each, and every step resolves all
    /// of them at once. Each in-flight group keeps its own pending rows,
    /// cursor and drain (the leading rows empty in all of *its* words); a
    /// finished group's words load the call's next group. While fewer
    /// than four words are live, only those are stepped, one at a time.
    /// Returns the cycles and scheduler steps summed over the call's
    /// groups.
    fn run_in_flight<const W: usize>(&self, packing: &Packing, group: usize) -> (u64, u64) {
        let in_flight = 4 / W;
        let count = packing.arena.len() / packing.rows;
        let fill = packing.depth.min(packing.rows);

        let mut words = [[0u64; MAX_DEPTH]; 4];
        let mut word_full = [0u64; 4];
        // Per in-flight group: first stream, stream count (0 = idle),
        // pending rows and the next row to feed.
        let mut first = [0usize; 4];
        let mut streams = [0usize; 4];
        let mut pending = [0usize; 4];
        let mut cursor = [0usize; 4];
        let mut next = 0usize;
        let (mut cycles, mut steps) = (0u64, 0u64);

        loop {
            // Every idle slot loads the call's next group. A finished group
            // has drained all of its rows, so its words are already empty.
            for g in 0..in_flight {
                if streams[g] == 0 && next < count {
                    let n = group.min(count - next);
                    packing.feed(&mut words[g * W..(g + 1) * W], next, n, 0, 0, fill);
                    for k in 0..W {
                        word_full[g * W + k] = packing.word_full(n, k);
                    }
                    (first[g], streams[g], pending[g], cursor[g]) = (next, n, fill, fill);
                    next += n;
                }
            }
            if streams.iter().all(|&n| n == 0) {
                break;
            }

            if word_full.iter().all(|&full| full != 0) {
                self.step_words4(&mut words, &word_full);
            } else {
                for (word, &full) in words.iter_mut().zip(&word_full) {
                    if full != 0 {
                        self.step_word1(word, full);
                    }
                }
            }
            for g in 0..in_flight {
                let n = streams[g];
                if n == 0 {
                    continue;
                }
                cycles += 1;
                steps += n as u64;
                let slot = &mut words[g * W..(g + 1) * W];
                if packing.advance(slot, first[g], n, &mut pending[g], &mut cursor[g]) {
                    streams[g] = 0;
                    word_full[g * W..(g + 1) * W].fill(0);
                }
            }
        }
        (cycles, steps)
    }

    /// One row-group wider than four packed words (more than 16 PE rows at
    /// 16 lanes), run alone: every step walks its words in `[u64; 4]`
    /// word-group strides ([`step_packed`](Scheduler::step_packed)).
    /// Returns the group's cycles.
    fn run_wide_group(&self, packing: &Packing, first: usize, streams: usize) -> u64 {
        let word_count = streams.div_ceil(packing.slots);
        let mut words: Vec<[u64; MAX_DEPTH]> = vec![[0; MAX_DEPTH]; word_count];
        let word_full: Vec<u64> = (0..word_count)
            .map(|k| packing.word_full(streams, k))
            .collect();

        // Initial fill: `depth` rows (or the whole stream if shorter).
        let mut pending = packing.depth.min(packing.rows);
        let mut cursor = pending;
        packing.feed(&mut words, first, streams, 0, 0, pending);
        let mut cycles = 0;
        loop {
            self.step_packed(&mut words, &word_full);
            cycles += 1;
            if packing.advance(&mut words, first, streams, &mut pending, &mut cursor) {
                return cycles;
            }
        }
    }

    /// The engine-per-stream reference implementation of
    /// [`Scheduler::run_masks_arena`]: one [`RowEngine`] per stream
    /// driven by the scalar kernel
    /// ([`RowEngine::schedule_reference`]), min-drain synchronized — the
    /// exact pre-batching tile group loop. This is the golden model the
    /// packed group path's equivalence tests and `tensordash bench` share;
    /// keeping it in one place guarantees they compare against identical
    /// semantics.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or the stream lengths differ.
    #[must_use]
    pub fn run_masks_batched_reference(&self, streams: &[&[u64]]) -> BatchRun {
        assert!(!streams.is_empty(), "a row-group needs at least one stream");
        let len = streams[0].len();
        assert!(
            streams.iter().all(|s| s.len() == len),
            "all streams in a row-group must have equal length"
        );
        let mut engines: Vec<RowEngine> = (0..streams.len())
            .map(|_| RowEngine::new(self.geometry))
            .collect();
        let mut iters: Vec<_> = streams.iter().map(|s| s.iter().copied()).collect();
        for (engine, iter) in engines.iter_mut().zip(&mut iters) {
            engine.refill(iter);
        }
        let mut run = BatchRun {
            dense_cycles: len as u64,
            ..BatchRun::default()
        };
        while !engines[0].is_done() {
            let mut advance = usize::MAX;
            for engine in &mut engines {
                let outcome = engine.schedule_reference(self);
                advance = advance.min(outcome.drainable);
                run.macs += outcome.macs as u64;
                run.scheduler_steps += 1;
            }
            for (engine, iter) in engines.iter_mut().zip(&mut iters) {
                engine.advance(advance, iter);
            }
            run.cycles += 1;
        }
        run
    }

    /// One lockstep scheduling step over a wide row-group's packed
    /// windows: the word list is consumed in `[u64; 4]` **word-group
    /// strides** — four packed words (4 × `64 / lanes` windows) resolved
    /// per [`step_words4`](Scheduler::step_words4) pass, with the remaining
    /// `words.len() % 4` words stepped through the one-word tail
    /// ([`step_word1`](Scheduler::step_word1)). Per window the decisions
    /// are identical to [`Scheduler::step_masks`] — windows are
    /// independent within a step; only the drain is min-synchronized.
    #[inline]
    fn step_packed(&self, words: &mut [[u64; MAX_DEPTH]], word_full: &[u64]) {
        debug_assert_eq!(words.len(), word_full.len());
        let mut groups = words.chunks_exact_mut(4);
        let mut full_groups = word_full.chunks_exact(4);
        for (group, full) in (&mut groups).zip(&mut full_groups) {
            let group: &mut [[u64; MAX_DEPTH]; 4] = group.try_into().unwrap();
            let full: &[u64; 4] = full.try_into().unwrap();
            self.step_words4(group, full);
        }
        for (word, &full) in groups
            .into_remainder()
            .iter_mut()
            .zip(full_groups.remainder())
        {
            self.step_word1(word, full);
        }
    }

    /// The wide kernel body: one scheduling step over a `[u64; 4]` word
    /// group, all four words resolved in lockstep. Every loop is
    /// fixed-bound (4 words × `MAX_DEPTH` rows) so the per-word state —
    /// dense-unsatisfied lanes, per-level pending sets, above-dense
    /// snapshots — lives in four-wide register groups and each
    /// `(level, priority)` table entry is one unrolled pass of word
    /// arithmetic across the group. Decisions are per-window independent
    /// and bit-identical to [`step_word1`](Scheduler::step_word1) on each
    /// word alone; the words may belong to different row-groups.
    #[inline]
    fn step_words4(&self, words: &mut [[u64; MAX_DEPTH]; 4], word_full: &[u64; 4]) {
        let mut unsatisfied = [0u64; 4];
        let mut above = [0u64; 4];

        // Dense cells are private and highest-priority: consume every dense
        // bit of every packed window up-front, in one unrolled pass. The
        // same pass snapshots each word's above-dense rows ORed together —
        // the superset the level loop tests reachability against.
        let mut any_unsatisfied = 0u64;
        for i in 0..4 {
            let dense = words[i][0];
            words[i][0] = 0;
            // Lanes NOT satisfied by their dense cell (per slot).
            unsatisfied[i] = word_full[i] & !dense;
            any_unsatisfied |= unsatisfied[i];
            above[i] = words[i][1..].iter().fold(0, |acc, &row| acc | row);
        }
        if any_unsatisfied == 0 {
            return;
        }

        let mut pending = [0u64; 4];
        for (members, &reach_any) in self
            .packed_level_members
            .iter()
            .zip(&self.packed_level_reach_any)
        {
            // A window participates in this level only if the level's muxes
            // can see any of its bits — tested against the cycle-start
            // above-dense snapshot (a superset of the remaining bits, so an
            // all-empty window always skips). Slots beyond the group (and
            // lanes already satisfied densely) stay masked out of `pending`
            // so they can never hold the loop open.
            let mut live = 0u64;
            for i in 0..4 {
                pending[i] = if above[i] & reach_any == 0 {
                    0
                } else {
                    *members & unsatisfied[i]
                };
                live |= pending[i];
            }
            if live == 0 {
                continue;
            }
            // packed_rel[0] is the dense option, already consumed up-front.
            for opt in &self.packed_rel[1..] {
                let step = opt.step as usize;
                let mut still_live = 0u64;
                if opt.k == 0 {
                    // Lookahead options: the cell is the lane bit.
                    for i in 0..4 {
                        let taken = words[i][step] & pending[i];
                        pending[i] &= !taken;
                        words[i][step] &= !taken;
                        still_live |= pending[i];
                    }
                } else {
                    for i in 0..4 {
                        let row = words[i][step];
                        let taken = (((row >> opt.k) & opt.rr_lo) | ((row << opt.kc) & opt.rr_hi))
                            & pending[i];
                        pending[i] &= !taken;
                        words[i][step] = row
                            & !(((taken << opt.k) & opt.rl_lo) | ((taken >> opt.kc) & opt.rl_hi));
                        still_live |= pending[i];
                    }
                }
                if still_live == 0 {
                    break;
                }
            }
        }
    }

    /// The one-word form of [`step_words4`](Scheduler::step_words4): one
    /// scheduling step over a single packed word, semantically its `i`-loop
    /// bodies collapsed to one word.
    #[inline]
    fn step_word1(&self, word: &mut [u64; MAX_DEPTH], full: u64) {
        let dense = word[0];
        word[0] = 0;
        let wanting = full & !dense;
        if wanting == 0 {
            return;
        }
        let above = word[1..].iter().fold(0, |acc, &row| acc | row);

        for (members, &reach_any) in self
            .packed_level_members
            .iter()
            .zip(&self.packed_level_reach_any)
        {
            if above & reach_any == 0 {
                continue;
            }
            let mut pending = *members & wanting;
            if pending == 0 {
                continue;
            }
            for opt in &self.packed_rel[1..] {
                let step = opt.step as usize;
                let row = word[step];
                let taken = if opt.k == 0 {
                    row & pending
                } else {
                    (((row >> opt.k) & opt.rr_lo) | ((row << opt.kc) & opt.rr_hi)) & pending
                };
                if taken == 0 {
                    continue;
                }
                pending &= !taken;
                word[step] = if opt.k == 0 {
                    row & !taken
                } else {
                    row & !(((taken << opt.k) & opt.rl_lo) | ((taken >> opt.kc) & opt.rl_hi))
                };
                if pending == 0 {
                    break;
                }
            }
        }
    }
}

/// Where the streams of one [`Scheduler::run_masks_arena`] call land in
/// the packed words: stream `j` of a row-group sits in word `j / slots`,
/// at bit offset `(j % slots) * lanes`.
#[derive(Clone, Copy)]
struct Packing<'a> {
    arena: &'a [u64],
    rows: usize,
    depth: usize,
    lanes: u32,
    slots: usize,
    mask: u64,
}

impl Packing<'_> {
    /// Ends one cycle of a lockstep group: drops the leading rows empty in
    /// *every* one of its words (at least one — row 0 is always consumed —
    /// and at most the rows pending), then refills the window from the
    /// arena. Returns whether the group has drained all of its rows.
    #[inline]
    fn advance(
        &self,
        words: &mut [[u64; MAX_DEPTH]],
        first: usize,
        streams: usize,
        pending: &mut usize,
        cursor: &mut usize,
    ) -> bool {
        let mut drain = 0;
        while drain < self.depth && words.iter().all(|w| w[drain] == 0) {
            drain += 1;
        }
        let advance = drain.max(1).min(*pending);
        *pending -= advance;
        let refill = (self.depth - *pending).min(self.rows - *cursor);
        for word in words.iter_mut() {
            shift_window(word, advance);
        }
        self.feed(words, first, streams, *pending, *cursor, refill);
        *pending += refill;
        *cursor += refill;
        *pending == 0
    }

    /// ORs rows `cursor..cursor + len` of the `streams` arena streams from
    /// `first` on into window rows `at..at + len` of a group's `words`.
    #[inline]
    fn feed(
        &self,
        words: &mut [[u64; MAX_DEPTH]],
        first: usize,
        streams: usize,
        at: usize,
        cursor: usize,
        len: usize,
    ) {
        let mut src = first * self.rows + cursor;
        let mut left = streams;
        for word in words {
            for s in 0..left.min(self.slots) {
                let shift = s as u32 * self.lanes;
                if len == 1 {
                    // Steady state: a group usually drains (and refills)
                    // one row per cycle.
                    word[at] |= (self.arena[src] & self.mask) << shift;
                } else {
                    for (row, &bits) in word[at..at + len]
                        .iter_mut()
                        .zip(&self.arena[src..src + len])
                    {
                        *row |= (bits & self.mask) << shift;
                    }
                }
                src += self.rows;
            }
            left = left.saturating_sub(self.slots);
        }
    }

    /// The active-slot mask of word `k` of a group of `streams` streams
    /// (a short group leaves its last word partially filled, or empty).
    fn word_full(&self, streams: usize, k: usize) -> u64 {
        let active = streams.saturating_sub(k * self.slots).min(self.slots) as u32;
        (0..active).fold(0u64, |acc, s| acc | (self.mask << (s * self.lanes)))
    }
}

/// Drops a staging window's `advance` leading rows and zero-fills the
/// tail — a fixed-bound copy the compiler keeps in registers, where
/// `slice::rotate_left` is an out-of-line call.
#[inline]
fn shift_window(word: &mut [u64; MAX_DEPTH], advance: usize) {
    for r in 0..MAX_DEPTH {
        word[r] = word.get(r + advance).copied().unwrap_or(0);
    }
}

/// Rotates the low `lanes` bits of `x` right by `k` on the PE's lane ring.
#[inline]
fn rot_right(x: u64, k: u32, lanes: u32, mask: u64) -> u64 {
    if k == 0 {
        x
    } else {
        ((x >> k) | (x << (lanes - k))) & mask
    }
}

/// Rotates the low `lanes` bits of `x` left by `k` on the PE's lane ring.
#[inline]
fn rot_left(x: u64, k: u32, lanes: u32, mask: u64) -> u64 {
    if k == 0 {
        x
    } else {
        ((x << k) | (x >> (lanes - k))) & mask
    }
}

/// The stateful sliding-window engine for one PE row: the effectual-pair
/// window `Z` plus stream bookkeeping. The tile simulator keeps one engine
/// per PE row and synchronizes their advances (all rows share the A-side
/// staging buffer, so the tile advances by the *minimum* drain across rows —
/// the work-imbalance effect of Fig 17).
#[derive(Debug, Clone)]
pub struct RowEngine {
    z: [u64; MAX_DEPTH],
    geometry: PeGeometry,
    /// Rows currently resident in the window (fed, not yet dropped).
    pending: usize,
    /// Total rows pulled from the stream so far.
    fed: u64,
    exhausted: bool,
}

impl RowEngine {
    /// Creates an empty engine for `geometry`.
    #[must_use]
    pub fn new(geometry: PeGeometry) -> Self {
        RowEngine {
            z: [0; MAX_DEPTH],
            geometry,
            pending: 0,
            fed: 0,
            exhausted: false,
        }
    }

    /// Pulls masks from `stream` until the window holds `depth` rows or the
    /// stream ends.
    pub fn refill<I>(&mut self, stream: &mut I)
    where
        I: Iterator<Item = u64>,
    {
        let mask = self.geometry.lane_mask();
        while self.pending < self.geometry.depth() && !self.exhausted {
            match stream.next() {
                Some(row) => {
                    self.z[self.pending] = row & mask;
                    self.pending += 1;
                    self.fed += 1;
                }
                None => self.exhausted = true,
            }
        }
    }

    /// Runs one scheduling step, clearing the selected bits. Does **not**
    /// advance the window: call [`RowEngine::advance`] with the (possibly
    /// tile-clamped) amount afterwards.
    pub fn schedule(&mut self, scheduler: &Scheduler) -> StepOutcome {
        debug_assert_eq!(scheduler.geometry(), self.geometry);
        let outcome = scheduler.step_masks(&mut self.z);
        StepOutcome {
            drainable: outcome.drainable.min(self.pending.max(1)),
            macs: outcome.macs,
        }
    }

    /// As [`RowEngine::schedule`] but through the scalar reference kernel
    /// ([`Scheduler::step_masks_reference`]) — the golden model the batched
    /// path's equivalence tests rebuild whole runs from.
    pub fn schedule_reference(&mut self, scheduler: &Scheduler) -> StepOutcome {
        debug_assert_eq!(scheduler.geometry(), self.geometry);
        let outcome = scheduler.step_masks_reference(&mut self.z);
        StepOutcome {
            drainable: outcome.drainable.min(self.pending.max(1)),
            macs: outcome.macs,
        }
    }

    /// As [`RowEngine::schedule`] but returning full `MS` selections.
    pub fn schedule_full(&mut self, scheduler: &Scheduler) -> Schedule {
        debug_assert_eq!(scheduler.geometry(), self.geometry);
        let mut schedule = scheduler.step_schedule(&mut self.z);
        schedule.advance = schedule.advance.min(self.pending.max(1));
        schedule
    }

    /// Drops the `k` leading rows and refills from `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the pending row count — both would
    /// indicate a tile-synchronization bug in the caller.
    pub fn advance<I>(&mut self, k: usize, stream: &mut I)
    where
        I: Iterator<Item = u64>,
    {
        assert!(k >= 1, "window must advance at least one row per cycle");
        assert!(k <= self.pending, "cannot advance past the fed rows");
        self.z.rotate_left(k);
        for slot in &mut self.z[MAX_DEPTH - k..] {
            *slot = 0;
        }
        self.pending -= k;
        self.refill(stream);
    }

    /// Rows currently resident in the window.
    #[must_use]
    pub fn rows_pending(&self) -> usize {
        self.pending
    }

    /// Mutable access to the raw window masks — used by the oracle scheduler
    /// and by tests that inject custom selection policies.
    pub(crate) fn window_mut(&mut self) -> &mut [u64; MAX_DEPTH] {
        &mut self.z
    }

    /// Total rows pulled from the stream so far (the dense cycle count once
    /// the engine is done).
    #[must_use]
    pub fn rows_fed(&self) -> u64 {
        self.fed
    }

    /// True once the stream is exhausted and the window fully drained.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.exhausted && self.pending == 0
    }

    /// Leftover effectual bits in the window (diagnostics).
    #[must_use]
    pub fn residual_macs(&self) -> u32 {
        self.z.iter().map(|m| m.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{Connectivity, ConnectivitySpec};

    fn paper_scheduler() -> Scheduler {
        Scheduler::paper(PeGeometry::paper())
    }

    #[test]
    fn dense_stream_runs_at_one_row_per_cycle() {
        let s = paper_scheduler();
        let run = s.run_masks(std::iter::repeat_n(0xFFFF, 100));
        assert_eq!(run.cycles, 100);
        assert_eq!(run.dense_cycles, 100);
        assert_eq!(run.macs, 1600);
        assert_eq!(run.speedup(), 1.0);
        assert_eq!(run.occupancy[16], 100);
    }

    #[test]
    fn empty_stream_drains_at_depth_rows_per_cycle() {
        // All-zero tensors: max speedup = staging depth (paper Fig 20).
        let s = paper_scheduler();
        let run = s.run_masks(std::iter::repeat_n(0u64, 99));
        assert_eq!(run.cycles, 33);
        assert_eq!(run.macs, 0);
        assert!((run.speedup() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn arena_entry_rejects_ragged_arenas() {
        let s = paper_scheduler();
        let _ = s.run_masks_arena(&[0u64; 10], 3, 1);
    }

    #[test]
    fn never_slower_than_dense() {
        // Property sampled deterministically here; the proptest below covers
        // random streams.
        let s = paper_scheduler();
        for pattern in [0x0001u64, 0x8000, 0xAAAA, 0x5555, 0xFFFF, 0x0000] {
            let run = s.run_masks(std::iter::repeat_n(pattern, 64));
            assert!(run.cycles <= run.dense_cycles);
        }
    }

    #[test]
    fn every_effectual_pair_is_processed_exactly_once() {
        let s = paper_scheduler();
        let masks = [0x00FFu64, 0xFF00, 0x0F0F, 0xF0F0, 0x1234, 0xFFFF];
        let expected: u64 = masks.iter().map(|m| m.count_ones() as u64).sum();
        let run = s.run_masks(masks.iter().copied());
        assert_eq!(run.macs, expected);
    }

    #[test]
    fn walkthrough_example_completes_in_two_cycles() {
        // Fig 7 of the paper: 4 lanes, 16 value pairs of which 7 are
        // effectual ("the PE should be able to process all effectual pairs
        // in 2 cycles").
        //
        // time-major rows, lane bit i = pair (a_i, b_i) effectual:
        //   t0: a = [0, a1, 0, 0],    b = [b0, b1, b2, 0] -> lane 1
        //   t1: a = [a0, a1, a2, a3], b = [b0, b1, b2, b3] -> lanes 0,1,2,3
        //   t2: a = [0, a1, a2, 0],   b = [b0, 0, 0, 0]   -> none
        //   t3: a = [a0, a1, a2, a3], b = [b0, 0, 0, b3]  -> lanes 0,3
        let masks = [0b0010u64, 0b1111, 0b0000, 0b1001];

        // Under a strict sliding window, reaching the t3 pairs early (as
        // Fig 7d draws) needs 2 steps of lookahead, i.e. a 3-deep buffer:
        let s3 = Scheduler::paper(PeGeometry::new(4, 3).unwrap());
        let run3 = s3.run_masks(masks.iter().copied());
        assert_eq!(run3.macs, 7);
        assert_eq!(run3.cycles, 2, "paper Fig 7d/7e: schedule fits in 2 cycles");

        // The figure's 2-row staging drawing yields 3 cycles when the
        // window slides strictly row by row — still a 1.33x speedup.
        let s2 = Scheduler::paper(PeGeometry::walkthrough());
        let run2 = s2.run_masks(masks.iter().copied());
        assert_eq!(run2.macs, 7);
        assert_eq!(run2.cycles, 3);
    }

    #[test]
    fn advance_is_bounded_by_depth() {
        let s = paper_scheduler();
        let run = s.run_masks(std::iter::repeat_n(0u64, 1000));
        for (adv, &count) in run.advance_histogram.iter().enumerate() {
            if adv > 3 {
                assert_eq!(count, 0);
            }
        }
    }

    fn random_window(rng: &mut rand::rngs::StdRng, geometry: PeGeometry) -> [u64; MAX_DEPTH] {
        use rand::Rng;
        let mut z = [0u64; MAX_DEPTH];
        for row in z.iter_mut().take(geometry.depth()) {
            *row = rng.gen::<u64>() & geometry.lane_mask();
        }
        z
    }

    #[test]
    fn batched_kernel_matches_reference_on_random_windows() {
        // The tentpole equivalence gate: the word-parallel kernel must
        // consume exactly the cells the scalar search consumes — same macs,
        // same drain, same residual window — over >=10k random windows and
        // every geometry shape we model (including sustained multi-step
        // windows where earlier cycles left bits cleared).
        use rand::{rngs::StdRng, SeedableRng};
        let geometries = [
            PeGeometry::paper(),
            PeGeometry::paper_shallow(),
            PeGeometry::walkthrough(),
            PeGeometry::new(64, 4).unwrap(),
            PeGeometry::new(5, 3).unwrap(),
            PeGeometry::new(16, 1).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(0xDA5A);
        for geometry in geometries {
            let s = Scheduler::paper(geometry);
            for _ in 0..2_500 {
                let mut fast = random_window(&mut rng, geometry);
                let mut reference = fast;
                // Drain the same window to empty on both paths.
                for _ in 0..geometry.depth() {
                    let f = s.step_masks(&mut fast);
                    let r = s.step_masks_reference(&mut reference);
                    assert_eq!(fast, reference, "windows diverged on {geometry}");
                    assert_eq!(f, r, "outcomes diverged on {geometry}");
                }
            }
        }
    }

    #[test]
    fn batched_kernel_matches_reference_on_custom_connectivity() {
        use rand::{rngs::StdRng, SeedableRng};
        let spec = ConnectivitySpec::custom(vec![(2, 5), (1, 2), (1, -1), (2, -7)]).unwrap();
        let geometry = PeGeometry::new(24, 3).unwrap();
        let s = Scheduler::new(&Connectivity::from_spec(geometry, &spec));
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..2_000 {
            let mut fast = random_window(&mut rng, geometry);
            let mut reference = fast;
            let f = s.step_masks(&mut fast);
            let r = s.step_masks_reference(&mut reference);
            assert_eq!(fast, reference);
            assert_eq!(f, r);
        }
    }

    #[test]
    fn batched_group_run_matches_reference_engines() {
        // The arena face (`run_masks_arena` -> the in-flight loop, or the
        // wide loop past four words) against the engine-per-stream golden
        // model summed over the call's row-groups, at every geometry the
        // repository models. One-group calls hit one stream, a partial
        // packed word, one full word, exactly one `[u64; 4]` word group
        // and a word group plus a one-word tail, at every density level.
        // Multi-group calls add group widths of a word plus one stream and
        // two words, and group counts of one group, all groups in flight,
        // and groups reloading into finished words, each call with a short
        // last group. Lengths hit a single row, a few window fills and a
        // long run.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let spec = ConnectivitySpec::custom(vec![(2, 5), (1, 2), (1, -1), (2, -7)]).unwrap();
        let mut schedulers: Vec<Scheduler> = [
            PeGeometry::paper(),
            PeGeometry::paper_shallow(),
            PeGeometry::walkthrough(),
            PeGeometry::new(3, 2).unwrap(),
            PeGeometry::new(7, 3).unwrap(),
            PeGeometry::new(31, 4).unwrap(),
            PeGeometry::new(64, 4).unwrap(),
            PeGeometry::new(16, 1).unwrap(),
        ]
        .into_iter()
        .map(Scheduler::paper)
        .collect();
        schedulers.push(Scheduler::new(&Connectivity::from_spec(
            PeGeometry::new(24, 3).unwrap(),
            &spec,
        )));
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        // Density levels: empty, ~1/8, ~1/2, ~7/8, full; level 5 gives
        // each stream one of the three partial levels, and level 6 gives
        // each group one of the first five, so the groups of one call
        // finish at different cycles.
        let mut make_arena = |count: usize, width: usize, rows: usize, level: u32| -> Vec<u64> {
            (0..count)
                .flat_map(|j| {
                    let stream_level = match level {
                        5 => 1 + j as u32 % 3,
                        6 => (j / width) as u32 % 5,
                        level => level,
                    };
                    (0..rows)
                        .map(|_| {
                            let (a, b, c): (u64, u64, u64) = (rng.gen(), rng.gen(), rng.gen());
                            match stream_level {
                                0 => 0,
                                1 => a & b & c,
                                2 => a,
                                3 => a | b | c,
                                _ => u64::MAX,
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        for (si, s) in schedulers.iter().enumerate() {
            let geometry = s.geometry();
            let slots = (64 / geometry.lanes()).max(1);
            // One group per call, every density level on every shape.
            for count in [1, 3, slots, 4 * slots, 4 * slots + 1] {
                for rows in [1usize, 17, 257] {
                    for level in 0..6u32 {
                        let arena = make_arena(count, count, rows, level);
                        let refs: Vec<&[u64]> = arena.chunks(rows).collect();
                        assert_eq!(
                            s.run_masks_arena(&arena, rows, count),
                            s.run_masks_batched_reference(&refs),
                            "{geometry} count {count} rows {rows} level {level}"
                        );
                    }
                }
            }
            // Several groups per call. The level rotates along a diagonal
            // of the geometry, width, group-count and length indices, so
            // every (width, rows) pair meets all seven levels across the
            // geometries.
            let widths = [1, 3, slots, slots + 1, 2 * slots, 4 * slots, 4 * slots + 1];
            for (wi, width) in widths.into_iter().enumerate() {
                for (gi, groups) in [1usize, 2, 4, 5, 9].into_iter().enumerate() {
                    let count = width * (groups - 1) + width.div_ceil(2);
                    for (ri, rows) in [1usize, 17, 257].into_iter().enumerate() {
                        let level = ((si + wi + gi + ri) % 7) as u32;
                        let arena = make_arena(count, width, rows, level);
                        let mut expected = BatchRun::default();
                        for group in arena.chunks(width * rows) {
                            let refs: Vec<&[u64]> = group.chunks(rows).collect();
                            expected += s.run_masks_batched_reference(&refs);
                        }
                        assert_eq!(
                            s.run_masks_arena(&arena, rows, width),
                            expected,
                            "{geometry} width {width} groups {groups} rows {rows} level {level}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_single_stream_matches_run_masks() {
        let s = paper_scheduler();
        let stream: Vec<u64> = (0..1_000).map(|i| (i * 2654435761u64) & 0xFFFF).collect();
        let solo = s.run_masks(stream.iter().copied());
        let batched = s.run_masks_arena(&stream, stream.len(), 1);
        assert_eq!(batched.cycles, solo.cycles);
        assert_eq!(batched.dense_cycles, solo.dense_cycles);
        assert_eq!(batched.macs, solo.macs);
        assert_eq!(batched.scheduler_steps, solo.cycles);
    }

    #[test]
    fn schedule_and_mask_paths_agree() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let s = paper_scheduler();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let mut z1 = [0u64; MAX_DEPTH];
            for row in z1.iter_mut().take(3) {
                *row = rng.gen::<u64>() & 0xFFFF;
            }
            let mut z2 = z1;
            let fast = s.step_masks(&mut z1);
            let full = s.step_schedule(&mut z2);
            assert_eq!(z1, z2, "both paths must consume identical cells");
            assert_eq!(fast.macs, full.macs());
            assert_eq!(fast.drainable, full.advance);
        }
    }

    #[test]
    fn selections_only_use_lane_options() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let c = Connectivity::paper(PeGeometry::paper());
        let s = Scheduler::new(&c);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let mut z = [0u64; MAX_DEPTH];
            for row in z.iter_mut().take(3) {
                *row = rng.gen::<u64>() & 0xFFFF;
            }
            let schedule = s.step_schedule(&mut z);
            for (lane, sel) in schedule.selections.iter().enumerate() {
                if let Some(sel) = sel {
                    let opts = c.options(lane);
                    assert_eq!(opts[sel.option_index as usize], sel.movement);
                }
            }
        }
    }

    #[test]
    fn no_cell_is_selected_twice() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let s = paper_scheduler();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let mut z = [0u64; MAX_DEPTH];
            for row in z.iter_mut().take(3) {
                *row = rng.gen::<u64>() & 0xFFFF;
            }
            let schedule = s.step_schedule(&mut z);
            let mut seen = std::collections::HashSet::new();
            for sel in schedule.selections.iter().flatten() {
                assert!(
                    seen.insert(sel.movement),
                    "cell {} double-booked",
                    sel.movement
                );
            }
        }
    }

    #[test]
    fn row_zero_is_always_fully_consumed() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let s = paper_scheduler();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..200 {
            let mut z = [0u64; MAX_DEPTH];
            for row in z.iter_mut().take(3) {
                *row = rng.gen::<u64>() & 0xFFFF;
            }
            s.step_masks(&mut z);
            assert_eq!(z[0], 0, "dense row must drain every cycle");
        }
    }

    #[test]
    fn run_reports_dense_cycles_equal_to_stream_length() {
        let s = paper_scheduler();
        let run = s.run_masks((0..137).map(|i| (i * 2654435761u64) & 0xFFFF));
        assert_eq!(run.dense_cycles, 137);
    }

    #[test]
    fn single_effectual_bit_streams_hit_depth_limit() {
        // One effectual pair per row: each cycle can fetch at most the bits
        // reachable in the window, but advance is capped by depth.
        let s = paper_scheduler();
        let run = s.run_masks(std::iter::repeat_n(0x0001u64, 300));
        assert!(run.cycles >= 100, "cannot beat the depth-3 ceiling");
        assert_eq!(run.macs, 300);
    }

    #[test]
    fn row_engine_rejects_zero_advance() {
        let g = PeGeometry::paper();
        let mut e = RowEngine::new(g);
        let mut stream = std::iter::repeat_n(0xFFFFu64, 4);
        e.refill(&mut stream);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.advance(0, &mut std::iter::empty());
        }));
        assert!(result.is_err());
    }

    #[test]
    fn occupancy_histogram_accounts_every_cycle() {
        let s = paper_scheduler();
        let run = s.run_masks((0..500).map(|i| (i * 40503u64) & 0xFFFF));
        let total: u64 = run.occupancy.iter().sum();
        assert_eq!(total, run.cycles);
        let weighted: u64 = run
            .occupancy
            .iter()
            .enumerate()
            .map(|(macs, &n)| macs as u64 * n)
            .sum();
        assert_eq!(weighted, run.macs);
    }
}
