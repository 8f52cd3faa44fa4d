//! The scheduler family: one interface, four sparse-accelerator models.
//!
//! The repository began as a model of exactly one front end — TensorDash's
//! dynamic promotion network ([`Scheduler`]). This module turns that single
//! machine into a comparison lab: [`SparsityScheduler`] is the interface
//! every tile simulation drives, and its four implementations consume the
//! *same* mask windows (so every comparison is apples-to-apples over the
//! same traces):
//!
//! | kind | model | ceiling |
//! |---|---|---|
//! | `tensordash` | the paper's promotion network, unchanged | `depth`× |
//! | `2to4` | semi-structured keep-2-of-4 lane groups | 2× |
//! | `tstd` | greedy decomposition into structured 2:4 pieces | 2× |
//! | `dense` | the no-skip baseline, priced as a real scheduler | 1× |
//!
//! Dispatch is a plain `enum` `match`, **not** `dyn`: the TensorDash arm
//! calls straight into the batched arena kernel, so putting
//! the existing scheduler behind this interface costs nothing on the hot
//! path — `tensordash` reports are byte-identical to the pre-family code
//! (enforced by the committed-bytes test in `crates/bench/tests`).
//!
//! Each sibling keeps the crate's kernel contract: a scalar per-lane
//! *reference* implementation is the semantic definition, and the
//! word-parallel (nibble-SWAR) batched kernel must match it bit-for-bit
//! across randomized geometries (property tests below).

use crate::geometry::PeGeometry;
use crate::scheduler::{BatchRun, Scheduler};

/// Number of lanes in one semi-structured group (the "4" of 2:4).
const GROUP_LANES: usize = 4;

/// Which member of the scheduler family a machine uses.
///
/// Serializes as its lowercase name (`"tensordash"`, `"2to4"`, `"tstd"`,
/// `"dense"`); configuration layers serialize it **only when non-default**
/// so every pre-family document stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerKind {
    /// The paper's dynamic promotion network (§3.2) — the default.
    #[default]
    TensorDash,
    /// Semi-structured sparsity: keep-2-of-4 lane groups, 2× ceiling.
    TwoToFour,
    /// Structured sparse tensor decomposition: each window is greedily
    /// decomposed into at most two 2:4-structured pieces whose schedules
    /// are summed (arXiv:2403.07953).
    Tstd,
    /// The no-skip dense baseline as a real scheduler path: every cycle
    /// is priced, nothing is promoted.
    Dense,
}

impl SchedulerKind {
    /// Every member of the family, in canonical listing order.
    pub const ALL: [SchedulerKind; 4] = [
        SchedulerKind::TensorDash,
        SchedulerKind::TwoToFour,
        SchedulerKind::Tstd,
        SchedulerKind::Dense,
    ];

    /// The canonical lowercase name (`"tensordash"`, `"2to4"`, `"tstd"`,
    /// `"dense"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::TensorDash => "tensordash",
            SchedulerKind::TwoToFour => "2to4",
            SchedulerKind::Tstd => "tstd",
            SchedulerKind::Dense => "dense",
        }
    }

    /// A one-line description for listings.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            SchedulerKind::TensorDash => {
                "dynamic promotion network (paper §3.2), up to depth× speedup"
            }
            SchedulerKind::TwoToFour => "semi-structured keep-2-of-4 lane groups, up to 2×",
            SchedulerKind::Tstd => "greedy decomposition into structured 2:4 pieces, up to 2×",
            SchedulerKind::Dense => "no-skip dense baseline, every cycle priced",
        }
    }

    /// The comma-separated valid-name set, for error messages and CLI help.
    #[must_use]
    pub fn valid_names() -> String {
        let names: Vec<&str> = SchedulerKind::ALL.iter().map(|k| k.name()).collect();
        names.join(", ")
    }

    /// Parses a canonical name back into its kind.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSchedulerError`] (whose message names the valid
    /// set) when `name` is not a family member.
    pub fn parse(name: &str) -> Result<Self, UnknownSchedulerError> {
        SchedulerKind::ALL
            .into_iter()
            .find(|kind| kind.name() == name)
            .ok_or_else(|| UnknownSchedulerError {
                name: name.to_string(),
            })
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A scheduler name that is not a member of the family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSchedulerError {
    /// The rejected name.
    pub name: String,
}

impl std::fmt::Display for UnknownSchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scheduler `{}` (expected one of: {})",
            self.name,
            SchedulerKind::valid_names()
        )
    }
}

impl std::error::Error for UnknownSchedulerError {}

impl tensordash_serde::Serialize for SchedulerKind {
    fn serialize(&self) -> tensordash_serde::Value {
        tensordash_serde::Value::Str(self.name().to_string())
    }
}

impl tensordash_serde::Deserialize for SchedulerKind {
    /// Deserialization funnels through [`SchedulerKind::parse`], so a
    /// document naming an unknown scheduler is rejected with the valid
    /// set spelled out.
    fn deserialize(value: &tensordash_serde::Value) -> Result<Self, tensordash_serde::Error> {
        let name = value.as_str()?;
        SchedulerKind::parse(name).map_err(|e| tensordash_serde::Error::new(e.to_string()))
    }
}

/// Per-nibble popcount: each nibble of the result holds the number of set
/// bits in the corresponding nibble of `x` (0..=4). Lane groups are
/// nibble-aligned — group `g` is lanes `4g..4g+4` — so one SWAR popcount
/// counts every group of a row mask at once.
#[inline]
fn nibble_counts(x: u64) -> u64 {
    let pairs = x - ((x >> 1) & 0x5555_5555_5555_5555);
    (pairs & 0x3333_3333_3333_3333) + ((pairs >> 2) & 0x3333_3333_3333_3333)
}

/// Whether two adjacent rows fit one structured fetch: every 4-lane group
/// carries at most 4 effectual bits across the pair. Nibble sums are at
/// most 8, so adding 3 carries into bit 3 of a nibble exactly when its sum
/// exceeds 4, and nibbles never overflow into each other.
#[inline]
fn rows_pairable(a: u64, b: u64) -> bool {
    let sums = nibble_counts(a) + nibble_counts(b);
    (sums.wrapping_add(0x3333_3333_3333_3333)) & 0x8888_8888_8888_8888 == 0
}

/// Whether any 4-lane group of `mask` holds 3 or more effectual bits —
/// i.e. the row does not fit a single 2:4-structured piece. Counts are at
/// most 4, so adding 5 sets bit 3 of a nibble exactly when its count is
/// 3 or more.
#[inline]
fn row_overflows_2to4(mask: u64) -> bool {
    (nibble_counts(mask) + 0x5555_5555_5555_5555) & 0x8888_8888_8888_8888 != 0
}

/// [`rows_pairable`] unrolled over a `[u64; 4]` word group: the four
/// nibble-sum overflow words are folded together so one zero test decides
/// all four row pairs at once, and the fixed bound keeps the SWAR
/// arithmetic in vector registers.
#[inline]
fn rows_pairable4(a: &[u64; 4], b: &[u64; 4]) -> bool {
    let mut overflow = 0u64;
    for i in 0..4 {
        let sums = nibble_counts(a[i]) + nibble_counts(b[i]);
        overflow |= sums.wrapping_add(0x3333_3333_3333_3333) & 0x8888_8888_8888_8888;
    }
    overflow == 0
}

/// Counts the rows of `masks` that overflow a single 2:4-structured piece,
/// consuming the stream in `[u64; 4]` word-group strides (the nibble-SWAR
/// overflow test runs four rows per unrolled pass) with a scalar tail for
/// `masks.len() % 4` rows. Bit-identical to testing each row alone.
#[inline]
fn overflow_rows(masks: &[u64], lane_mask: u64) -> u64 {
    let mut count = 0u64;
    let mut groups = masks.chunks_exact(4);
    for group in &mut groups {
        for &mask in group {
            count += u64::from(row_overflows_2to4(mask & lane_mask));
        }
    }
    for &mask in groups.remainder() {
        count += u64::from(row_overflows_2to4(mask & lane_mask));
    }
    count
}

/// Iterates the 4-lane groups of a `lanes`-wide row mask, yielding each
/// group's effectual-bit count the slow, obviously-correct way — the
/// scalar golden model the SWAR helpers are property-tested against.
fn group_counts_reference(mask: u64, lanes: usize) -> Vec<u32> {
    (0..lanes)
        .step_by(GROUP_LANES)
        .map(|start| {
            (start..lanes.min(start + GROUP_LANES))
                .filter(|&lane| mask & (1 << lane) != 0)
                .count() as u32
        })
        .collect()
}

/// The semi-structured **2:4 scheduler**: a machine that fetches operands
/// in 4-lane groups with a fixed bandwidth of 4 values per group per
/// cycle, retiring whole rows.
///
/// Each cycle the PE consumes the front row of the shared window — a
/// group's bits always fit the fetch (≤ 4) — and additionally retires the
/// second row when, for **every** group, the pair's combined effectual
/// bits fit one fetch (the keep-2-of-4 property guarantees 2 + 2 = 4).
/// The advance is therefore 1 or 2 rows:
///
/// * never slower than dense (advance ≥ 1);
/// * capped at 2× (the structured ceiling), and at 1× when `depth == 1`
///   (no lookahead row to pair with);
/// * exactly 2× on fully 2:4-compliant data.
///
/// A lockstep row-group advances by the *minimum* across streams, exactly
/// like the TensorDash tile (§3.3): one non-compliant stream throttles the
/// group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoToFourScheduler {
    geometry: PeGeometry,
}

impl TwoToFourScheduler {
    /// A 2:4 scheduler for the given PE geometry.
    #[must_use]
    pub fn new(geometry: PeGeometry) -> Self {
        TwoToFourScheduler { geometry }
    }

    /// The PE geometry this scheduler drives.
    #[must_use]
    pub fn geometry(&self) -> PeGeometry {
        self.geometry
    }

    fn can_pair(&self) -> bool {
        self.geometry.depth() >= 2
    }

    /// Whether every stream's `(pos, pos + 1)` row pair fits one
    /// structured fetch, testing the streams in `[u64; 4]` word-group
    /// strides ([`rows_pairable4`]) with a scalar tail — bit-identical to
    /// the per-stream [`rows_pairable`] walk.
    #[inline]
    fn group_pairable(row_pair: impl Fn(usize) -> (u64, u64), streams: usize) -> bool {
        let wide = streams - streams % 4;
        let mut s = 0;
        while s < wide {
            let mut a = [0u64; 4];
            let mut b = [0u64; 4];
            for i in 0..4 {
                (a[i], b[i]) = row_pair(s + i);
            }
            if !rows_pairable4(&a, &b) {
                return false;
            }
            s += 4;
        }
        (wide..streams).all(|s| {
            let (a, b) = row_pair(s);
            rows_pairable(a, b)
        })
    }

    /// Runs lockstep row-groups with the word-parallel kernel: one
    /// nibble-SWAR pairability test per stream per cycle, four streams per
    /// word-group stride. Reads `arena.len() / rows` streams of `rows`
    /// masks each out of a flat arena (zero-copy, like
    /// [`Scheduler::run_masks_arena`]), cut into consecutive row-groups of
    /// `group` streams that run one at a time; returns their summed run.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `group` is zero or `arena` does not hold whole
    /// streams.
    #[must_use]
    pub fn run_masks_arena(&self, arena: &[u64], rows: usize, group: usize) -> BatchRun {
        per_group(arena, rows, group, |streams| self.run_group(streams, rows))
    }

    /// One row-group of [`run_masks_arena`](Self::run_masks_arena).
    fn run_group(&self, arena: &[u64], rows: usize) -> BatchRun {
        let streams = arena.len() / rows;
        let lane_mask = self.geometry.lane_mask();
        let mut run = arena_shell(arena, rows, lane_mask);
        let can_pair = self.can_pair();
        let mut pos = 0usize;
        while pos < rows {
            let advance = if can_pair
                && pos + 1 < rows
                && Self::group_pairable(
                    |s| {
                        (
                            arena[s * rows + pos] & lane_mask,
                            arena[s * rows + pos + 1] & lane_mask,
                        )
                    },
                    streams,
                ) {
                2
            } else {
                1
            };
            run.cycles += 1;
            run.scheduler_steps += streams as u64;
            pos += advance;
        }
        run
    }

    /// The scalar golden model: per-lane group counting, no word tricks.
    /// The batched kernel must match it bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or stream lengths differ.
    #[must_use]
    pub fn run_masks_batched_reference(&self, streams: &[&[u64]]) -> BatchRun {
        let rows = check_group(streams);
        let lanes = self.geometry.lanes();
        let lane_mask = self.geometry.lane_mask();
        let mut run = batch_shell(streams, rows, lane_mask);
        let can_pair = self.can_pair();
        let pair_fits = |a: u64, b: u64| {
            group_counts_reference(a & lane_mask, lanes)
                .iter()
                .zip(group_counts_reference(b & lane_mask, lanes))
                .all(|(ca, cb)| ca + cb <= GROUP_LANES as u32)
        };
        let mut pos = 0usize;
        while pos < rows {
            let advance = if can_pair
                && pos + 1 < rows
                && streams.iter().all(|s| pair_fits(s[pos], s[pos + 1]))
            {
                2
            } else {
                1
            };
            run.cycles += 1;
            run.scheduler_steps += streams.len() as u64;
            pos += advance;
        }
        run
    }
}

/// The **TSTD scheduler**: structured sparse tensor decomposition
/// (arXiv:2403.07953) mapped onto the same mask windows.
///
/// Each stream is greedily decomposed into at most two 2:4-structured
/// pieces: piece 0 takes the first two effectual bits of every 4-lane
/// group per row, piece 1 takes the remainder (a group holds at most 4
/// bits, so two pieces always suffice). The structured engine then runs
/// the pieces back to back at the 2:4 rate:
///
/// * piece 0 streams the full reduction extent — `ceil(rows / 2)` cycles
///   (it is 2:4-compliant by construction);
/// * piece 1 pays only for rows it occupies — `ceil(overflow_rows / 2)`
///   cycles, where an *overflow row* has some group with ≥ 3 bits;
/// * the sum is clamped to the dense cost (`rows`), the decomposition's
///   fallback, so TSTD is never slower than dense — and at `depth == 1`
///   the structured rate degrades to 1 row/cycle, i.e. exactly dense.
///
/// A lockstep row-group completes when its slowest stream's pieces have
/// all run: group cycles are the **maximum** across streams (pieces are
/// whole passes over the shared dense-side data, not per-cycle drains).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TstdScheduler {
    geometry: PeGeometry,
}

impl TstdScheduler {
    /// A TSTD scheduler for the given PE geometry.
    #[must_use]
    pub fn new(geometry: PeGeometry) -> Self {
        TstdScheduler { geometry }
    }

    /// The PE geometry this scheduler drives.
    #[must_use]
    pub fn geometry(&self) -> PeGeometry {
        self.geometry
    }

    /// Rows per cycle the structured engine retires: 2 with lookahead,
    /// 1 at `depth == 1`.
    fn rate(&self) -> u64 {
        if self.geometry.depth() >= 2 {
            2
        } else {
            1
        }
    }

    fn stream_cycles(&self, rows: u64, overflow_rows: u64) -> u64 {
        let rate = self.rate();
        (rows.div_ceil(rate) + overflow_rows.div_ceil(rate)).min(rows)
    }

    /// Runs lockstep row-groups with the word-parallel kernel: the
    /// per-stream decomposition overflow count runs four rows per
    /// word-group stride (`overflow_rows`). Reads `arena.len() / rows`
    /// streams of `rows` masks each out of a flat arena, cut into
    /// consecutive row-groups of `group` streams that run one at a time;
    /// returns their summed run.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `group` is zero or `arena` does not hold whole
    /// streams.
    #[must_use]
    pub fn run_masks_arena(&self, arena: &[u64], rows: usize, group: usize) -> BatchRun {
        per_group(arena, rows, group, |streams| self.run_group(streams, rows))
    }

    /// One row-group of [`run_masks_arena`](Self::run_masks_arena).
    fn run_group(&self, arena: &[u64], rows: usize) -> BatchRun {
        let streams = arena.len() / rows;
        let lane_mask = self.geometry.lane_mask();
        let mut run = arena_shell(arena, rows, lane_mask);
        let cycles = (0..streams)
            .map(|s| {
                let overflow = overflow_rows(&arena[s * rows..(s + 1) * rows], lane_mask);
                self.stream_cycles(rows as u64, overflow)
            })
            .max()
            .unwrap_or(0);
        run.cycles = cycles;
        run.scheduler_steps = cycles * streams as u64;
        run
    }

    /// The scalar golden model: per-lane group counting, no word tricks.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or stream lengths differ.
    #[must_use]
    pub fn run_masks_batched_reference(&self, streams: &[&[u64]]) -> BatchRun {
        let rows = check_group(streams);
        let lanes = self.geometry.lanes();
        let lane_mask = self.geometry.lane_mask();
        let mut run = batch_shell(streams, rows, lane_mask);
        let cycles = streams
            .iter()
            .map(|s| {
                let overflow = s
                    .iter()
                    .filter(|&&m| {
                        group_counts_reference(m & lane_mask, lanes)
                            .iter()
                            .any(|&c| c > 2)
                    })
                    .count() as u64;
                self.stream_cycles(rows as u64, overflow)
            })
            .max()
            .unwrap_or(0);
        run.cycles = cycles;
        run.scheduler_steps = cycles * streams.len() as u64;
        run
    }
}

/// The **dense scheduler**: the no-skip baseline as a first-class family
/// member. One row per cycle regardless of content, every MAC slot priced
/// (`streams × rows × lanes`), zero scheduling decisions. This replaces
/// the implicit `baseline_cycles = rows` arithmetic scattered through the
/// simulator with one real scheduler path, so every speedup denominator
/// comes from the same code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseScheduler {
    geometry: PeGeometry,
}

impl DenseScheduler {
    /// A dense scheduler for the given PE geometry.
    #[must_use]
    pub fn new(geometry: PeGeometry) -> Self {
        DenseScheduler { geometry }
    }

    /// The PE geometry this scheduler drives.
    #[must_use]
    pub fn geometry(&self) -> PeGeometry {
        self.geometry
    }

    /// Cycles the dense machine needs for `rows` reduction rows: one per
    /// row, no dependence on content.
    #[must_use]
    pub fn cycles_for_rows(&self, rows: u64) -> u64 {
        rows
    }

    /// Runs the consecutive row-groups of `group` streams in an arena of
    /// `arena.len() / rows` streams: `rows` cycles per group, every slot a
    /// MAC.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `group` is zero or `arena` does not hold whole
    /// streams.
    #[must_use]
    pub fn run_masks_arena(&self, arena: &[u64], rows: usize, group: usize) -> BatchRun {
        per_group(arena, rows, group, |streams| BatchRun {
            cycles: self.cycles_for_rows(rows as u64),
            dense_cycles: rows as u64,
            macs: streams.len() as u64 * self.geometry.lanes() as u64,
            scheduler_steps: 0,
        })
    }
}

/// One scheduler of the family, behind one interface.
///
/// Enum dispatch, not `dyn`: each `match` arm calls the concrete
/// scheduler's monomorphized kernel directly, so the TensorDash hot path
/// is exactly the pre-family code.
// The TensorDash variant dwarfs the others (it owns the connectivity
// lookup tables); boxing it would trade one construction-time allocation
// for a pointer chase on every row-group call, and a `Tile` holds exactly
// one of these for a whole session — the size skew costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum SparsityScheduler {
    /// The paper's promotion network.
    TensorDash(Scheduler),
    /// The semi-structured 2:4 machine.
    TwoToFour(TwoToFourScheduler),
    /// The structured-decomposition machine.
    Tstd(TstdScheduler),
    /// The no-skip dense baseline.
    Dense(DenseScheduler),
}

impl SparsityScheduler {
    /// Builds the `kind` member of the family for `geometry` (the
    /// TensorDash arm uses the paper interconnect, as
    /// [`Scheduler::paper`]).
    #[must_use]
    pub fn new(kind: SchedulerKind, geometry: PeGeometry) -> Self {
        match kind {
            SchedulerKind::TensorDash => SparsityScheduler::TensorDash(Scheduler::paper(geometry)),
            SchedulerKind::TwoToFour => {
                SparsityScheduler::TwoToFour(TwoToFourScheduler::new(geometry))
            }
            SchedulerKind::Tstd => SparsityScheduler::Tstd(TstdScheduler::new(geometry)),
            SchedulerKind::Dense => SparsityScheduler::Dense(DenseScheduler::new(geometry)),
        }
    }

    /// Which family member this is.
    #[must_use]
    pub fn kind(&self) -> SchedulerKind {
        match self {
            SparsityScheduler::TensorDash(_) => SchedulerKind::TensorDash,
            SparsityScheduler::TwoToFour(_) => SchedulerKind::TwoToFour,
            SparsityScheduler::Tstd(_) => SchedulerKind::Tstd,
            SparsityScheduler::Dense(_) => SchedulerKind::Dense,
        }
    }

    /// The PE geometry this scheduler drives.
    #[must_use]
    pub fn geometry(&self) -> PeGeometry {
        match self {
            SparsityScheduler::TensorDash(s) => s.geometry(),
            SparsityScheduler::TwoToFour(s) => s.geometry(),
            SparsityScheduler::Tstd(s) => s.geometry(),
            SparsityScheduler::Dense(s) => s.geometry(),
        }
    }

    /// Runs the consecutive lockstep row-groups of `group` streams (the
    /// last may be short) straight out of a flat mask arena of
    /// `arena.len() / rows` back-to-back streams, and returns their summed
    /// run. The TensorDash member steps up to four groups in flight per
    /// call; the others run their one-group loop once per group.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `group` is zero or `arena` does not hold whole
    /// streams.
    #[must_use]
    pub fn run_masks_arena(&self, arena: &[u64], rows: usize, group: usize) -> BatchRun {
        match self {
            SparsityScheduler::TensorDash(s) => s.run_masks_arena(arena, rows, group),
            SparsityScheduler::TwoToFour(s) => s.run_masks_arena(arena, rows, group),
            SparsityScheduler::Tstd(s) => s.run_masks_arena(arena, rows, group),
            SparsityScheduler::Dense(s) => s.run_masks_arena(arena, rows, group),
        }
    }

    /// How many consecutive row-groups of `group` streams one
    /// [`run_masks_arena`](Self::run_masks_arena) call steps in flight
    /// together ([`Scheduler::groups_in_flight`] for the TensorDash
    /// member; 1 for the others, which run one group at a time).
    #[must_use]
    pub fn groups_in_flight(&self, group: usize) -> usize {
        match self {
            SparsityScheduler::TensorDash(s) => s.groups_in_flight(group),
            _ => 1,
        }
    }

    /// The family member's scalar golden model over a slice row-group (the
    /// arena kernel's bit-identical reference). The dense machine has no
    /// word tricks, so its arm prices the group directly: `rows` cycles,
    /// every slot a MAC.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or stream lengths differ.
    #[must_use]
    pub fn run_masks_batched_reference(&self, streams: &[&[u64]]) -> BatchRun {
        match self {
            SparsityScheduler::TensorDash(s) => s.run_masks_batched_reference(streams),
            SparsityScheduler::TwoToFour(s) => s.run_masks_batched_reference(streams),
            SparsityScheduler::Tstd(s) => s.run_masks_batched_reference(streams),
            SparsityScheduler::Dense(s) => {
                let rows = check_group(streams) as u64;
                BatchRun {
                    cycles: s.cycles_for_rows(rows),
                    dense_cycles: rows,
                    macs: streams.len() as u64 * rows * s.geometry().lanes() as u64,
                    scheduler_steps: 0,
                }
            }
        }
    }
}

/// Validates a slice row-group and returns the common stream length.
fn check_group(streams: &[&[u64]]) -> usize {
    assert!(!streams.is_empty(), "a row-group needs at least one stream");
    let len = streams[0].len();
    assert!(
        streams.iter().all(|s| s.len() == len),
        "all streams in a row-group must have equal length"
    );
    len
}

/// Validates an arena row-group and returns the stream count.
fn check_arena(arena: &[u64], rows: usize) -> usize {
    assert!(rows > 0, "arena streams need at least one row");
    assert!(
        !arena.is_empty() && arena.len().is_multiple_of(rows),
        "arena of {} masks does not hold whole {rows}-row streams",
        arena.len()
    );
    arena.len() / rows
}

/// Validates an arena, cuts it into consecutive row-groups of `group`
/// streams (the last may be short) and sums `run_group` over them.
fn per_group(
    arena: &[u64],
    rows: usize,
    group: usize,
    run_group: impl Fn(&[u64]) -> BatchRun,
) -> BatchRun {
    let streams = check_arena(arena, rows);
    assert!(group > 0, "a row-group needs at least one stream");
    let mut run = BatchRun::default();
    for chunk in arena.chunks(group.min(streams) * rows) {
        run += run_group(chunk);
    }
    run
}

/// A [`BatchRun`] with the content-independent fields (dense cycles,
/// effectual MACs) filled in for a slice row-group.
fn batch_shell(streams: &[&[u64]], rows: usize, lane_mask: u64) -> BatchRun {
    BatchRun {
        cycles: 0,
        dense_cycles: rows as u64,
        macs: streams
            .iter()
            .flat_map(|s| s.iter())
            .map(|&m| u64::from((m & lane_mask).count_ones()))
            .sum(),
        scheduler_steps: 0,
    }
}

/// As [`batch_shell`], over a flat arena.
fn arena_shell(arena: &[u64], rows: usize, lane_mask: u64) -> BatchRun {
    BatchRun {
        cycles: 0,
        dense_cycles: rows as u64,
        macs: arena
            .iter()
            .map(|&m| u64::from((m & lane_mask).count_ones()))
            .sum(),
        scheduler_steps: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_streams(
        seed: u64,
        count: usize,
        rows: usize,
        lanes: usize,
        density: f64,
    ) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..rows)
                    .map(|_| {
                        let mut m = 0u64;
                        for lane in 0..lanes {
                            if rng.gen_bool(density) {
                                m |= 1 << lane;
                            }
                        }
                        m
                    })
                    .collect()
            })
            .collect()
    }

    /// Masks that keep at most 2 effectual bits in every 4-lane group.
    fn compliant_streams(seed: u64, count: usize, rows: usize, lanes: usize) -> Vec<Vec<u64>> {
        random_streams(seed, count, rows, lanes, 0.8)
            .into_iter()
            .map(|stream| {
                stream
                    .into_iter()
                    .map(|mask| {
                        let mut kept = 0u64;
                        for start in (0..lanes).step_by(GROUP_LANES) {
                            let mut budget = 2;
                            for lane in start..lanes.min(start + GROUP_LANES) {
                                if budget > 0 && mask & (1 << lane) != 0 {
                                    kept |= 1 << lane;
                                    budget -= 1;
                                }
                            }
                        }
                        kept
                    })
                    .collect()
            })
            .collect()
    }

    fn geometries() -> Vec<PeGeometry> {
        let mut out = Vec::new();
        for lanes in [3usize, 4, 7, 16, 31, 64] {
            for depth in 1..=4usize {
                out.push(PeGeometry::new(lanes, depth).unwrap());
            }
        }
        out
    }

    #[test]
    fn kind_names_parse_back_and_errors_name_the_set() {
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::parse(kind.name()), Ok(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = SchedulerKind::parse("sparse-o-matic").unwrap_err();
        let message = err.to_string();
        for kind in SchedulerKind::ALL {
            assert!(message.contains(kind.name()), "{message}");
        }
    }

    #[test]
    fn kind_serializes_as_its_name_and_rejects_unknowns() {
        use tensordash_serde::{Deserialize, Serialize};
        for kind in SchedulerKind::ALL {
            let value = kind.serialize();
            assert_eq!(value, tensordash_serde::Value::Str(kind.name().into()));
            assert_eq!(SchedulerKind::deserialize(&value), Ok(kind));
        }
        let err =
            SchedulerKind::deserialize(&tensordash_serde::Value::Str("2of4".into())).unwrap_err();
        assert!(err.to_string().contains("tensordash"), "{err}");
    }

    #[test]
    fn default_kind_is_tensordash() {
        assert_eq!(SchedulerKind::default(), SchedulerKind::TensorDash);
    }

    /// The SWAR helpers against brute-force bit counting over random
    /// 64-bit words.
    #[test]
    fn swar_helpers_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(0x24_24);
        for _ in 0..20_000 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            let counts_a = group_counts_reference(a, 64);
            let counts_b = group_counts_reference(b, 64);
            assert_eq!(
                rows_pairable(a, b),
                counts_a.iter().zip(&counts_b).all(|(x, y)| x + y <= 4)
            );
            assert_eq!(row_overflows_2to4(a), counts_a.iter().any(|&c| c > 2));
            let nibbles = nibble_counts(a);
            for (g, &count) in counts_a.iter().enumerate() {
                assert_eq!(((nibbles >> (4 * g)) & 0xF) as u32, count);
            }
        }
    }

    /// The word-group-stride helpers against their scalar siblings: four
    /// pair tests folded into one verdict, and overflow counting across
    /// every tail length.
    #[test]
    fn wide_swar_helpers_match_scalar_walks() {
        let mut rng = StdRng::seed_from_u64(0x4_2424);
        for _ in 0..5_000 {
            let a: [u64; 4] = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            let b: [u64; 4] = [rng.gen(), rng.gen(), rng.gen(), rng.gen()];
            assert_eq!(
                rows_pairable4(&a, &b),
                (0..4).all(|i| rows_pairable(a[i], b[i]))
            );
        }
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 97] {
            let masks: Vec<u64> = (0..len).map(|_| rng.gen()).collect();
            for lane_mask in [u64::MAX, 0xFFFF, 0x7F] {
                let scalar = masks
                    .iter()
                    .filter(|&&m| row_overflows_2to4(m & lane_mask))
                    .count() as u64;
                assert_eq!(overflow_rows(&masks, lane_mask), scalar, "len {len}");
            }
        }
    }

    /// The property gate: the 2:4 batched arena kernel is bit-identical
    /// to its scalar reference across randomized geometries, group shapes,
    /// and densities.
    #[test]
    fn two_to_four_batched_matches_reference_across_geometries() {
        let mut seed = 0x2424;
        for geometry in geometries() {
            let scheduler = TwoToFourScheduler::new(geometry);
            for count in [1usize, 3, 4, 5, 9] {
                for density in [0.05, 0.3, 0.6, 0.95] {
                    seed += 1;
                    let streams = random_streams(seed, count, 97, geometry.lanes(), density);
                    let refs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
                    let arena: Vec<u64> = streams.iter().flatten().copied().collect();
                    assert_eq!(
                        scheduler.run_masks_arena(&arena, 97, count),
                        scheduler.run_masks_batched_reference(&refs),
                        "{geometry} x{count} d{density}"
                    );
                }
            }
        }
    }

    /// Same property gate for TSTD.
    #[test]
    fn tstd_batched_matches_reference_across_geometries() {
        let mut seed = 0x757D;
        for geometry in geometries() {
            let scheduler = TstdScheduler::new(geometry);
            for count in [1usize, 3, 4, 5, 9] {
                for density in [0.05, 0.3, 0.6, 0.95] {
                    seed += 1;
                    let streams = random_streams(seed, count, 97, geometry.lanes(), density);
                    let refs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
                    let arena: Vec<u64> = streams.iter().flatten().copied().collect();
                    assert_eq!(
                        scheduler.run_masks_arena(&arena, 97, count),
                        scheduler.run_masks_batched_reference(&refs),
                        "{geometry} x{count} d{density}"
                    );
                }
            }
        }
    }

    /// Structural bounds every non-dense sibling must respect: never
    /// slower than dense, never beyond its 2× ceiling.
    #[test]
    fn structured_schedulers_respect_dense_and_ceiling_bounds() {
        for geometry in geometries() {
            for density in [0.0, 0.4, 1.0] {
                let arena: Vec<u64> = random_streams(7, 3, 80, geometry.lanes(), density).concat();
                for run in [
                    TwoToFourScheduler::new(geometry).run_masks_arena(&arena, 80, 3),
                    TstdScheduler::new(geometry).run_masks_arena(&arena, 80, 3),
                ] {
                    assert!(run.cycles <= run.dense_cycles, "{geometry} d{density}");
                    assert!(
                        run.cycles >= run.dense_cycles.div_ceil(2),
                        "{geometry} d{density} beat the 2x ceiling"
                    );
                    if geometry.depth() == 1 {
                        assert_eq!(run.cycles, run.dense_cycles, "no lookahead means dense");
                    }
                }
            }
        }
    }

    /// Fully 2:4-compliant data runs at exactly the 2× ceiling on both
    /// structured machines (with lookahead available).
    #[test]
    fn compliant_data_hits_exactly_two_x() {
        let geometry = PeGeometry::paper();
        let arena = compliant_streams(11, 4, 100, geometry.lanes()).concat();
        let two_to_four = TwoToFourScheduler::new(geometry).run_masks_arena(&arena, 100, 4);
        assert_eq!(two_to_four.cycles, 50);
        let tstd = TstdScheduler::new(geometry).run_masks_arena(&arena, 100, 4);
        assert_eq!(tstd.cycles, 50);
    }

    /// One non-compliant stream throttles the whole 2:4 lockstep group —
    /// the same shared-window effect the TensorDash tile models.
    #[test]
    fn one_dense_stream_throttles_the_two_to_four_group() {
        let geometry = PeGeometry::paper();
        let mut arena = vec![0xFFFFu64; 60];
        arena.extend([0u64; 2 * 60]);
        let run = TwoToFourScheduler::new(geometry).run_masks_arena(&arena, 60, 3);
        assert_eq!(run.cycles, 60);
    }

    /// The dense scheduler prices every slot and makes no decisions; the
    /// family reference prices a slice group the same way, and a group of
    /// zero-length streams as a zero run.
    #[test]
    fn dense_scheduler_prices_every_slot() {
        let geometry = PeGeometry::paper();
        let streams = random_streams(3, 4, 50, geometry.lanes(), 0.5);
        let refs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
        let arena: Vec<u64> = streams.iter().flatten().copied().collect();
        let scheduler = DenseScheduler::new(geometry);
        let run = scheduler.run_masks_arena(&arena, 50, 4);
        assert_eq!(run.cycles, 50);
        assert_eq!(run.dense_cycles, 50);
        assert_eq!(run.macs, 4 * 50 * 16);
        assert_eq!(run.scheduler_steps, 0);
        assert_eq!(scheduler.cycles_for_rows(123), 123);
        let family = SparsityScheduler::new(SchedulerKind::Dense, geometry);
        assert_eq!(family.run_masks_batched_reference(&refs), run);
        let empty: &[u64] = &[];
        assert_eq!(
            family.run_masks_batched_reference(&[empty, empty]),
            BatchRun::default()
        );
    }

    /// The family interface's TensorDash arm is the unmodified paper
    /// scheduler: bit-identical on every entry point.
    #[test]
    fn family_tensordash_arm_is_bit_identical_to_the_raw_scheduler() {
        let geometry = PeGeometry::paper();
        let family = SparsityScheduler::new(SchedulerKind::TensorDash, geometry);
        let raw = Scheduler::paper(geometry);
        for density in [0.1, 0.5, 0.9] {
            let streams = random_streams(21, 4, 150, geometry.lanes(), density);
            let refs: Vec<&[u64]> = streams.iter().map(Vec::as_slice).collect();
            let arena: Vec<u64> = streams.iter().flatten().copied().collect();
            assert_eq!(
                family.run_masks_arena(&arena, 150, 4),
                raw.run_masks_arena(&arena, 150, 4)
            );
            assert_eq!(
                family.run_masks_batched_reference(&refs),
                raw.run_masks_batched_reference(&refs)
            );
        }
    }

    /// Every family member dispatches to its own model: same streams,
    /// four different (and correctly ordered) cycle counts.
    #[test]
    fn family_members_order_as_expected_on_mid_sparsity() {
        let geometry = PeGeometry::paper();
        let arena = random_streams(9, 4, 200, geometry.lanes(), 0.35).concat();
        let cycles: Vec<u64> = SchedulerKind::ALL
            .iter()
            .map(|&kind| {
                let scheduler = SparsityScheduler::new(kind, geometry);
                assert_eq!(scheduler.kind(), kind);
                assert_eq!(scheduler.geometry(), geometry);
                scheduler.run_masks_arena(&arena, 200, 4).cycles
            })
            .collect();
        let (tensordash, two_to_four, tstd, dense) = (cycles[0], cycles[1], cycles[2], cycles[3]);
        assert_eq!(dense, 200, "dense prices every row");
        assert!(tensordash < dense, "the promotion network must skip work");
        assert!(two_to_four <= dense && two_to_four >= 100);
        assert!(tstd <= dense && tstd >= 100);
        assert!(
            tensordash < two_to_four.min(tstd),
            "3-deep dynamic scheduling should beat the 2x-capped structured machines \
             at 65% density ({tensordash} vs {two_to_four}/{tstd})"
        );
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn empty_two_to_four_group_is_rejected() {
        let _ = TwoToFourScheduler::new(PeGeometry::paper()).run_masks_arena(&[], 4, 1);
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn ragged_tstd_group_is_rejected() {
        // Nine masks cannot be whole 4-row streams.
        let _ = TstdScheduler::new(PeGeometry::paper()).run_masks_arena(&[0u64; 9], 4, 1);
    }

    #[test]
    #[should_panic(expected = "whole")]
    fn dense_arena_size_mismatch_is_rejected() {
        let _ = DenseScheduler::new(PeGeometry::paper()).run_masks_arena(&[0u64; 7], 4, 1);
    }
}
