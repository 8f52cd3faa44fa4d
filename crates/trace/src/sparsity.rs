//! Synthetic sparsity generators.
//!
//! The paper's Fig 20 uses uniformly random sparse tensors; its Fig 17
//! analysis explains tile-row imbalance through *clustered* sparsity: dense
//! features concentrate in some 2D maps and some spatial regions ("an input
//! sample having a feature X and lacking a feature Y would typically
//! exhibit a dense map corresponding to the former and a sparse for the
//! latter"). [`UniformSparsity`] and [`ClusteredSparsity`] model both, and
//! both produce [`OpTrace`]s interchangeable with extracted ones.
//!
//! Mask generation is the front half of every synthetic model evaluation.
//! Both generators reduce to per-window lane thresholds
//! ([`SparsityGen::lane_thresholds`]), and one builder,
//! [`synthesize_arena`], draws an operation's windows from them straight
//! into the trace's flat mask arena — one allocation per trace.
//!
//! **The stream.** Every window of an operation draws from the
//! operation's one xoshiro256++ stream, one draw per (row, lane) slot in
//! row-major order, so window `i` starts exactly `i · rows · lanes` draws
//! in. A slot is non-zero when its draw passes its lane's Bernoulli
//! threshold. The thresholds live in the raw integer domain: `gen_bool(p)`
//! compares `(word >> 11) · 2⁻⁵³ < p`, and both scalings by 2⁵³ are exact
//! in `f64`, so `(word >> 11) < ⌈p · 2⁵³⌉` takes the same branch on every
//! word. A window's thresholds come from a separate generator seeded by
//! its window index, so they cost no draws from the stream.
//!
//! **The scalar path** draws, compares and packs in one fused branchless
//! loop (typical densities sit near 0.5, where a per-slot branch is
//! unpredictable). It is bit-identical to per-slot `gen_bool`
//! (`fused_loop_replays_gen_bool_exactly` pins this) and is the golden
//! twin of the batch path.
//!
//! **Eight windows per step.** xoshiro's state update `T` is linear over
//! GF(2), so the state `k · rows · lanes` draws ahead is a jump
//! ([`rand::rngs::Jump`]) computed without drawing. On x86-64 hosts whose
//! CPU reports AVX-512F, each full group of eight windows runs eight
//! generators in the lanes of one register set, started at `T^{k·n}·s`
//! (`k = 0..7`, `n = rows · lanes`): one vector step draws one slot of all
//! eight windows, one compare per lane slot tests it against the eight
//! windows' thresholds, and an 8×8 bit transpose per eight lane slots
//! turns the compare masks into each window's row bits. The last lane's
//! end state is the next group's start, and the tail windows continue
//! from it on the scalar path, so the arena is the scalar path's, bit for
//! bit (`batch_path_equals_scalar_path`). The jump polynomials cost a few
//! microseconds per operation and are built only when a full group runs.

use crate::dims::{ConvDims, TrainingOp};
use crate::stream::{OpTrace, SampleSpec, TraceArena, TrafficVolumes};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Largest lane count a mask word can hold.
const MAX_LANES: usize = 64;

/// A Bernoulli threshold in the raw-draw domain (see the module docs),
/// as an integer so the per-slot compare is pure integer SIMD fodder.
///
/// `gen_bool(p)` accepts a draw `d = word >> 11` iff `d·2⁻⁵³ < p`, i.e.
/// `d < p·2⁵³` (both scalings by 2⁵³ are exact). Since `d` is an integer,
/// `d < t` for real `t` iff `d < ⌈t⌉` as integers (for integral `t`,
/// `⌈t⌉ = t`; otherwise `d < t ⟺ d ≤ ⌊t⌋ < ⌈t⌉`), and `p·2⁵³ ≤ 2⁵³` is
/// exactly representable, so the ceiling loses nothing. The ceiling is
/// taken in integers (truncate, then add one if that lost a fraction):
/// exact on `[0, 2⁵³]` and, unlike `f64::ceil` on baseline x86-64, not a
/// libm call per lane.
#[inline]
fn bernoulli_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let scaled = p * (1u64 << 53) as f64;
    let floor = scaled as u64;
    floor + u64::from((floor as f64) < scaled)
}

/// The scalar path: draws `rows × lanes` words from `rng` (in the exact
/// order per-slot `gen_bool` would) and packs each row's compares against
/// the per-lane thresholds into one mask, branch-free, appending the rows
/// to `out`.
fn draw_rows_into(rng: &mut StdRng, thresholds: &[u64], rows: usize, out: &mut Vec<u64>) {
    out.extend((0..rows).map(|_| {
        thresholds
            .iter()
            .enumerate()
            .fold(0u64, |mask, (lane, &threshold)| {
                mask | u64::from(rng.next_u64() >> 11 < threshold) << lane
            })
    }));
}

/// Draws the mask arena of one operation: `windows` windows of `rows` rows
/// of `lanes` lanes from one xoshiro256++ stream seeded with `seed`, window
/// `i` under `gen`'s thresholds for window index `window_base + i`
/// (wrapping). Window `i` takes draws `i·rows·lanes .. (i+1)·rows·lanes`.
///
/// Full groups of eight windows run eight-wide where the CPU reports
/// AVX-512F ([`synthesis_path`]); the rest take the scalar loop, which
/// gives the same bits.
///
/// # Panics
///
/// Panics if `lanes` exceeds 64.
#[must_use]
pub fn synthesize_arena<G: SparsityGen + ?Sized>(
    gen: &G,
    windows: usize,
    rows: usize,
    lanes: usize,
    seed: u64,
    window_base: u64,
) -> TraceArena {
    let mut arena = TraceArena::with_capacity(windows, rows);
    synthesize_into(gen, windows, rows, lanes, seed, window_base, &mut arena);
    arena
}

/// [`synthesize_arena`]'s dispatch into a given arena: the batch path
/// takes what it can, the scalar path the rest. Returns how many windows
/// the batch path drew.
fn synthesize_into<G: SparsityGen + ?Sized>(
    gen: &G,
    windows: usize,
    rows: usize,
    lanes: usize,
    seed: u64,
    window_base: u64,
    arena: &mut TraceArena,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let thresholds = |i: usize| gen.lane_thresholds(window_base.wrapping_add(i as u64), lanes);
    let batched = draw_batched(&mut rng, &thresholds, windows, rows, lanes, arena);
    draw_scalar(&mut rng, &thresholds, batched..windows, rows, lanes, arena);
    batched
}

/// Per-window lane thresholds by window position within an operation.
type ThresholdsOf<'a> = dyn Fn(usize) -> [u64; MAX_LANES] + 'a;

/// The scalar path over windows `range`, continuing `rng`'s stream.
fn draw_scalar(
    rng: &mut StdRng,
    thresholds: &ThresholdsOf<'_>,
    range: std::ops::Range<usize>,
    rows: usize,
    lanes: usize,
    arena: &mut TraceArena,
) {
    for i in range {
        let thresholds = thresholds(i);
        arena.push_window_with(|out| draw_rows_into(rng, &thresholds[..lanes], rows, out));
    }
}

/// Which synthesis path this host runs: `"avx512"` (eight windows per
/// step) or `"scalar"`.
#[must_use]
pub fn synthesis_path() -> &'static str {
    if batch_width() == 8 {
        "avx512"
    } else {
        "scalar"
    }
}

/// Windows one step of the synthesis path draws: 8 where the CPU reports
/// AVX-512F, else 1.
fn batch_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        return 8;
    }
    1
}

/// Draws the operation's leading full groups of eight windows eight-wide
/// where [`batch_width`] is 8, leaving `rng` where the scalar path takes
/// over, and returns how many windows it drew (0 elsewhere).
#[cfg(target_arch = "x86_64")]
fn draw_batched(
    rng: &mut StdRng,
    thresholds: &ThresholdsOf<'_>,
    windows: usize,
    rows: usize,
    lanes: usize,
    arena: &mut TraceArena,
) -> usize {
    use rand::rngs::Jump;
    let groups = windows / 8;
    if batch_width() != 8 || groups == 0 || rows == 0 {
        return 0;
    }
    let window = Jump::new((rows * lanes) as u64);
    let mut starts = [Jump::new(0); 8];
    for k in 1..8 {
        starts[k] = starts[k - 1].then(window);
    }
    let starts = starts.map(Jump::coefficients);
    let mut state = rng.state();
    for group in 0..groups {
        let group_thresholds: [[u64; MAX_LANES]; 8] =
            std::array::from_fn(|k| thresholds(8 * group + k));
        arena.push_windows_with(8, rows, |out| {
            // SAFETY: `batch_width` is 8 only where the CPU reports
            // AVX-512F, the one feature the kernel enables.
            #[allow(unsafe_code)]
            let end = unsafe { avx512::draw_group(state, &starts, &group_thresholds, lanes, out) };
            state = end;
        });
    }
    *rng = StdRng::from_state(state);
    groups * 8
}

/// Other targets have no batch path.
#[cfg(not(target_arch = "x86_64"))]
fn draw_batched(
    _rng: &mut StdRng,
    _thresholds: &ThresholdsOf<'_>,
    _windows: usize,
    _rows: usize,
    _lanes: usize,
    _arena: &mut TraceArena,
) -> usize {
    0
}

/// Transposes an 8×8 bit matrix held one row per byte (bit `8r + c` is
/// row `r`, column `c`).
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline]
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// The eight-wide kernel: eight xoshiro256++ generators, one per 64-bit
/// lane of each state register.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{transpose8, MAX_LANES};
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi64, _mm512_cmplt_epi64_mask, _mm512_cmplt_epu64_mask,
        _mm512_mask_reduce_or_epi64, _mm512_mask_xor_epi64, _mm512_rol_epi64, _mm512_set1_epi64,
        _mm512_set_epi64, _mm512_setzero_si512, _mm512_slli_epi64, _mm512_srli_epi64,
        _mm512_xor_si512,
    };

    /// The four state words of eight generators.
    type State = [__m512i; 4];

    /// One xoshiro256++ state update in every lane.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn advance(s: &mut State) {
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
    }

    /// One `next_u64` in every lane.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn next(s: &mut State) -> __m512i {
        let sum = _mm512_add_epi64(s[0], s[3]);
        let out = _mm512_add_epi64(_mm512_rol_epi64::<23>(sum), s[0]);
        advance(s);
        out
    }

    /// Eight lanes from eight words, lane `k` from `words[k]`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn lanes_of(words: [u64; 8]) -> __m512i {
        let w = words.map(|word| word as i64);
        _mm512_set_epi64(w[7], w[6], w[5], w[4], w[3], w[2], w[1], w[0])
    }

    /// Draws eight consecutive windows of one stream into `out`'s eight
    /// `rows`-row chunks. The first window starts at state `base`; window
    /// `k` starts at `T^{k·n}·base`, given as that jump's coefficients
    /// `starts[k]`, and draws under `thresholds[k]`. Returns the last
    /// window's end state: the next window's start.
    #[target_feature(enable = "avx512f")]
    pub(super) fn draw_group(
        base: [u64; 4],
        starts: &[[u64; 4]; 8],
        thresholds: &[[u64; MAX_LANES]; 8],
        lanes: usize,
        out: &mut [u64],
    ) -> [u64; 4] {
        let rows = out.len() / 8;
        let zero = _mm512_setzero_si512();
        // Horner over the jump coefficients, highest first: each step
        // advances every lane and adds `base` where that lane's
        // coefficient is set, leaving lane `k` at `Σ cᵢ·Tⁱ·base`.
        let mut base_lanes = [zero; 4];
        for (lane, word) in base_lanes.iter_mut().zip(base) {
            *lane = _mm512_set1_epi64(word as i64);
        }
        let mut s: State = [zero; 4];
        for word in (0..4).rev() {
            let mut coeffs = lanes_of(std::array::from_fn(|k| starts[k][word]));
            for _ in 0..64 {
                advance(&mut s);
                let take = _mm512_cmplt_epi64_mask(coeffs, zero);
                for (state, b) in s.iter_mut().zip(base_lanes) {
                    *state = _mm512_mask_xor_epi64(*state, take, *state, b);
                }
                coeffs = _mm512_slli_epi64::<1>(coeffs);
            }
        }

        let mut lane_thresholds = [zero; MAX_LANES];
        for (lane, threshold) in lane_thresholds[..lanes].iter_mut().enumerate() {
            *threshold = lanes_of(std::array::from_fn(|k| thresholds[k][lane]));
        }
        for row in 0..rows {
            let mut masks = [0u64; 8];
            for (block, block_thresholds) in lane_thresholds[..lanes].chunks(8).enumerate() {
                // Byte `j` holds lane slot `8·block + j` of all eight
                // windows; the transpose makes byte `k` window `k`'s.
                let mut hits = 0u64;
                for (j, &threshold) in block_thresholds.iter().enumerate() {
                    let draws = _mm512_srli_epi64::<11>(next(&mut s));
                    hits |= u64::from(_mm512_cmplt_epu64_mask(draws, threshold)) << (8 * j);
                }
                let by_window = transpose8(hits);
                for (k, mask) in masks.iter_mut().enumerate() {
                    *mask |= (by_window >> (8 * k) & 0xFF) << (8 * block);
                }
            }
            for (k, mask) in masks.into_iter().enumerate() {
                out[k * rows + row] = mask;
            }
        }
        [
            _mm512_mask_reduce_or_epi64(0x80, s[0]) as u64,
            _mm512_mask_reduce_or_epi64(0x80, s[1]) as u64,
            _mm512_mask_reduce_or_epi64(0x80, s[2]) as u64,
            _mm512_mask_reduce_or_epi64(0x80, s[3]) as u64,
        ]
    }
}

/// A generator of scheduled-side effectuality masks.
pub trait SparsityGen {
    /// Average fraction of zero operand slots this generator produces.
    fn target_sparsity(&self) -> f64;

    /// The Bernoulli thresholds of window `window_index`'s first `lanes`
    /// lanes, in the raw-draw domain: a slot is non-zero iff its draw's
    /// top 53 bits (`next_u64() >> 11`) fall below its lane's threshold
    /// (`⌈p · 2⁵³⌉` for density `p`). Entries from `lanes` on are zero.
    /// Window `window_index`'s thresholds are fixed by the index alone and
    /// draw nothing from the operation's stream.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds 64.
    fn lane_thresholds(&self, window_index: u64, lanes: usize) -> [u64; MAX_LANES];

    /// Generates the mask stream for one window (`rows` rows of `lanes`
    /// lanes) directly into `out`, drawing `rows × lanes` words of `rng`,
    /// `window_index` identifying the stream for clustering.
    fn window_masks_into(
        &self,
        rng: &mut StdRng,
        window_index: u64,
        rows: usize,
        lanes: usize,
        out: &mut Vec<u64>,
    ) {
        let thresholds = self.lane_thresholds(window_index, lanes);
        draw_rows_into(rng, &thresholds[..lanes], rows, out);
    }

    /// As [`window_masks_into`](SparsityGen::window_masks_into), returning
    /// a fresh vector.
    fn window_masks(
        &self,
        rng: &mut StdRng,
        window_index: u64,
        rows: usize,
        lanes: usize,
    ) -> Vec<u64> {
        let mut out = Vec::with_capacity(rows);
        self.window_masks_into(rng, window_index, rows, lanes, &mut out);
        out
    }

    /// Builds a full synthetic [`OpTrace`] for `dims`/`op`: window `i`
    /// has window index `i`, all drawn from one stream seeded by `seed`
    /// ([`synthesize_arena`]).
    fn op_trace(
        &self,
        dims: ConvDims,
        op: TrainingOp,
        lanes: usize,
        sample: &SampleSpec,
        seed: u64,
    ) -> OpTrace {
        let total_windows = dims.windows(op);
        let total_rows = dims.rows_per_window(op, lanes);
        let n_windows = sample.max_windows.min(total_windows as usize);
        let rows = sample.max_rows.min(total_rows as usize);
        let arena = synthesize_arena(self, n_windows, rows, lanes, seed, 0);
        let density = 1.0 - self.target_sparsity();
        let sched_elems = match op {
            TrainingOp::Forward => dims.a_volume(),
            TrainingOp::InputGrad | TrainingOp::WeightGrad => dims.o_volume(),
        };
        let dense_elems = match op {
            TrainingOp::Forward | TrainingOp::InputGrad => dims.w_volume(),
            TrainingOp::WeightGrad => dims.a_volume(),
        };
        let out_elems = match op {
            TrainingOp::Forward => dims.o_volume(),
            TrainingOp::InputGrad => dims.a_volume(),
            TrainingOp::WeightGrad => dims.w_volume(),
        };
        OpTrace::from_arena(
            op,
            lanes,
            dims,
            total_windows,
            total_rows,
            arena,
            TrafficVolumes {
                dense_elems,
                dense_nonzero: dense_elems,
                sched_elems,
                sched_nonzero: (sched_elems as f64 * density).round() as u64,
                out_elems,
                out_nonzero: out_elems,
            },
        )
    }
}

/// Every operand slot is zero independently with probability `sparsity` —
/// the paper's Fig 20 setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformSparsity {
    sparsity: f64,
}

impl UniformSparsity {
    /// Creates a uniform generator.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= sparsity <= 1.0`.
    #[must_use]
    pub fn new(sparsity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be in [0, 1]"
        );
        UniformSparsity { sparsity }
    }
}

impl SparsityGen for UniformSparsity {
    fn target_sparsity(&self) -> f64 {
        self.sparsity
    }

    fn lane_thresholds(&self, _window_index: u64, lanes: usize) -> [u64; MAX_LANES] {
        assert!(lanes <= MAX_LANES, "masks pack at most {MAX_LANES} lanes");
        let density = (1.0 - self.sparsity).clamp(0.0, 1.0);
        let mut thresholds = [0u64; MAX_LANES];
        thresholds[..lanes].fill(bernoulli_threshold(density));
        thresholds
    }
}

/// Clustered sparsity: per-window and per-lane density multipliers model
/// the paper's observation that non-zeros cluster in certain feature maps
/// and spatial regions (§4.4, rows analysis). `clustering = 0` degenerates
/// to uniform; `clustering = 1` puts windows at the extremes (fully dense or
/// fully empty streams).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusteredSparsity {
    sparsity: f64,
    clustering: f64,
}

impl ClusteredSparsity {
    /// Creates a clustered generator.
    ///
    /// # Panics
    ///
    /// Panics unless both arguments are in `[0, 1]`.
    #[must_use]
    pub fn new(sparsity: f64, clustering: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&sparsity),
            "sparsity must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&clustering),
            "clustering must be in [0, 1]"
        );
        ClusteredSparsity {
            sparsity,
            clustering,
        }
    }

    /// The clustering strength.
    #[must_use]
    pub fn clustering(&self) -> f64 {
        self.clustering
    }
}

impl SparsityGen for ClusteredSparsity {
    fn target_sparsity(&self) -> f64 {
        self.sparsity
    }

    fn lane_thresholds(&self, window_index: u64, lanes: usize) -> [u64; MAX_LANES] {
        assert!(lanes <= MAX_LANES, "masks pack at most {MAX_LANES} lanes");
        let mean_density = 1.0 - self.sparsity;
        // Per-window density: uniform spread of relative width `clustering`
        // around the mean. The spread is scaled by the distance to the
        // nearer [0, 1] boundary so clamping can never engage — otherwise
        // the mean would drift at extreme densities (a bug this crate's
        // property tests caught). A deterministic per-window RNG keeps
        // window i's character stable across runs — it models a feature
        // map's identity, not noise.
        let mut wrng = StdRng::seed_from_u64(window_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let u: f64 = wrng.gen_range(-1.0..1.0);
        let spread = mean_density.min(1.0 - mean_density);
        let window_density = (mean_density + spread * self.clustering * u).clamp(0.0, 1.0);

        // Per-lane (channel) multipliers add the feature-map dimension of
        // clustering within the window. The per-lane Bernoulli probability
        // is row-invariant, so it is folded into a threshold once per
        // window.
        let mut lane_bias = [0.0f64; MAX_LANES];
        for bias in lane_bias.iter_mut().take(lanes) {
            let raw: f64 = wrng.gen_range(0.5..1.5);
            *bias = 1.0 + (raw - 1.0) * self.clustering;
        }
        let bias_mean: f64 = lane_bias[..lanes].iter().sum::<f64>() / lanes as f64;
        let mut thresholds = [0u64; MAX_LANES];
        for (threshold, bias) in thresholds[..lanes].iter_mut().zip(&lane_bias) {
            let p = (window_density * bias / bias_mean).clamp(0.0, 1.0);
            *threshold = bernoulli_threshold(p);
        }
        thresholds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn measured_sparsity(masks: &[Vec<u64>], lanes: usize) -> f64 {
        let rows: usize = masks.iter().map(Vec::len).sum();
        let nz: u64 = masks
            .iter()
            .flat_map(|w| w.iter())
            .map(|m| u64::from(m.count_ones()))
            .sum();
        1.0 - nz as f64 / (rows * lanes) as f64
    }

    /// The fused branchless loop must draw exactly like per-slot
    /// `gen_bool` — same RNG consumption, same decisions — for the
    /// uniform generator.
    #[test]
    fn uniform_fused_loop_replays_gen_bool_exactly() {
        for sparsity in [0.0, 0.25, 0.5, 0.93, 1.0] {
            let gen = UniformSparsity::new(sparsity);
            let mut fast_rng = StdRng::seed_from_u64(7);
            let mut slow_rng = StdRng::seed_from_u64(7);
            for i in 0..4u64 {
                let fast = gen.window_masks(&mut fast_rng, i, 700, 16);
                let density = 1.0 - sparsity;
                let slow: Vec<u64> = (0..700)
                    .map(|_| {
                        let mut mask = 0u64;
                        for lane in 0..16 {
                            if slow_rng.gen_bool(density) {
                                mask |= 1 << lane;
                            }
                        }
                        mask
                    })
                    .collect();
                assert_eq!(fast, slow, "sparsity {sparsity} window {i}");
            }
        }
    }

    /// The fused branchless loop must draw exactly like per-slot
    /// `gen_bool` — same RNG consumption, same decisions.
    #[test]
    fn fused_loop_replays_gen_bool_exactly() {
        for sparsity in [0.0, 0.3, 0.62, 0.97, 1.0] {
            for clustering in [0.0, 0.4, 1.0] {
                let gen = ClusteredSparsity::new(sparsity, clustering);
                let mut fast_rng = StdRng::seed_from_u64(99);
                let mut slow_rng = StdRng::seed_from_u64(99);
                for i in 0..8u64 {
                    let fast = gen.window_masks(&mut fast_rng, i, 50, 16);
                    // The original formulation: per-slot probability and
                    // gen_bool.
                    let mean_density = 1.0 - sparsity;
                    let mut wrng = StdRng::seed_from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let u: f64 = wrng.gen_range(-1.0..1.0);
                    let spread = mean_density.min(1.0 - mean_density);
                    let window_density = (mean_density + spread * clustering * u).clamp(0.0, 1.0);
                    let lane_bias: Vec<f64> = (0..16)
                        .map(|_| {
                            let raw: f64 = wrng.gen_range(0.5..1.5);
                            1.0 + (raw - 1.0) * clustering
                        })
                        .collect();
                    let bias_mean: f64 = lane_bias.iter().sum::<f64>() / 16.0;
                    let slow: Vec<u64> = (0..50)
                        .map(|_| {
                            let mut mask = 0u64;
                            for (lane, bias) in lane_bias.iter().enumerate() {
                                let p = (window_density * bias / bias_mean).clamp(0.0, 1.0);
                                if slow_rng.gen_bool(p) {
                                    mask |= 1 << lane;
                                }
                            }
                            mask
                        })
                        .collect();
                    assert_eq!(fast, slow, "sparsity {sparsity} clustering {clustering}");
                }
            }
        }
    }

    /// The golden twin: every window of an operation on the scalar path.
    fn scalar_arena(
        gen: &dyn SparsityGen,
        windows: usize,
        rows: usize,
        lanes: usize,
        seed: u64,
        base: u64,
    ) -> TraceArena {
        let mut arena = TraceArena::with_capacity(windows, rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let thresholds = |i: usize| gen.lane_thresholds(base.wrapping_add(i as u64), lanes);
        draw_scalar(&mut rng, &thresholds, 0..windows, rows, lanes, &mut arena);
        arena
    }

    /// The batch path over the operation's full groups, then the scalar
    /// path over the tail, called directly; `None` where the CPU has no
    /// batch path.
    fn batch_arena(
        gen: &dyn SparsityGen,
        windows: usize,
        rows: usize,
        lanes: usize,
        seed: u64,
        base: u64,
    ) -> Option<TraceArena> {
        if batch_width() != 8 {
            return None;
        }
        let mut arena = TraceArena::with_capacity(windows, rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let thresholds = |i: usize| gen.lane_thresholds(base.wrapping_add(i as u64), lanes);
        let batched = draw_batched(&mut rng, &thresholds, windows, rows, lanes, &mut arena);
        assert_eq!(batched, if rows == 0 { 0 } else { windows / 8 * 8 });
        draw_scalar(
            &mut rng,
            &thresholds,
            batched..windows,
            rows,
            lanes,
            &mut arena,
        );
        Some(arena)
    }

    fn assert_batch_equals_scalar(
        gen: &dyn SparsityGen,
        windows: usize,
        rows: usize,
        lanes: usize,
        seed: u64,
        base: u64,
    ) {
        let Some(batch) = batch_arena(gen, windows, rows, lanes, seed, base) else {
            eprintln!("this CPU does not report AVX-512F: only the scalar path ran");
            return;
        };
        let scalar = scalar_arena(gen, windows, rows, lanes, seed, base);
        assert!(
            batch == scalar,
            "{windows} windows x {rows} rows x {lanes} lanes, seed {seed}, base {base}"
        );
    }

    /// Draws per property case: keeps the debug-profile suite quick.
    const CASE_DRAWS: usize = 1 << 20;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The eight-wide path is the scalar path, bit for bit, over the
        /// whole parameter space, full groups and tails alike.
        #[test]
        fn batch_path_equals_scalar_path(
            seed in any::<u64>(),
            base in any::<u64>(),
            lanes in 1usize..=64,
            rows in prop_oneof![1usize..=64, 1usize..=5000],
            windows in 0usize..=70,
            sparsity in prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0],
            clustering in prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0],
        ) {
            let rows = rows.min((CASE_DRAWS / (windows * lanes).max(1)).max(1));
            let gen = ClusteredSparsity::new(sparsity, clustering);
            assert_batch_equals_scalar(&gen, windows, rows, lanes, seed, base);
        }
    }

    #[test]
    fn batch_path_equals_scalar_path_at_the_extremes() {
        let clustered = ClusteredSparsity::new(0.55, 0.3);
        for (windows, rows, lanes) in [
            (17, 5000, 16),
            (70, 1, 64),
            (70, 5000, 1),
            (9, 600, 64),
            (8, 36, 16),
            (64, 36, 16),
        ] {
            assert_batch_equals_scalar(&clustered, windows, rows, lanes, 42, 7);
        }
        for sparsity in [0.0, 1.0] {
            assert_batch_equals_scalar(&UniformSparsity::new(sparsity), 24, 100, 16, 3, 0);
        }
        // Window indices wrap like `build_op_trace`'s `seed·31 + i`.
        assert_batch_equals_scalar(&clustered, 16, 36, 16, 9, u64::MAX - 3);
    }

    /// Whenever the CPU reports AVX-512F, the dispatcher behind
    /// `synthesize_arena` draws every full group eight-wide, so a silent
    /// fallback to the scalar path fails here.
    #[test]
    fn the_dispatcher_draws_eight_wide_wherever_the_cpu_reports_avx512f() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        assert_eq!(batch_width(), if avx512 { 8 } else { 1 });
        assert_eq!(synthesis_path(), if avx512 { "avx512" } else { "scalar" });
        let gen = ClusteredSparsity::new(0.6, 0.2);
        for windows in [0, 7, 8, 9, 23, 64] {
            let mut arena = TraceArena::with_capacity(windows, 36);
            let batched = synthesize_into(&gen, windows, 36, 16, 5, 0, &mut arena);
            assert_eq!(batched, if avx512 { windows / 8 * 8 } else { 0 });
            assert!(arena == scalar_arena(&gen, windows, 36, 16, 5, 0));
        }
        if !avx512 {
            eprintln!("this CPU does not report AVX-512F: only the scalar path ran");
        }
    }

    #[test]
    fn bernoulli_threshold_is_the_ceiling() {
        let mut rng = StdRng::seed_from_u64(53);
        let edges = [
            0.0,
            1.0,
            0.5,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            0.3,
            0.7,
        ];
        for p in edges
            .into_iter()
            .chain((0..100_000).map(|_| rng.gen::<f64>()))
        {
            let ceiling = (p * (1u64 << 53) as f64).ceil() as u64;
            assert_eq!(bernoulli_threshold(p), ceiling, "p = {p}");
        }
    }

    #[test]
    fn transpose8_swaps_rows_and_columns() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..64 {
            let x = rng.next_u64();
            let t = transpose8(x);
            for (r, c) in (0..8).flat_map(|r| (0..8).map(move |c| (r, c))) {
                assert_eq!(t >> (8 * c + r) & 1, x >> (8 * r + c) & 1);
            }
        }
    }

    #[test]
    fn uniform_hits_target_sparsity() {
        let gen = UniformSparsity::new(0.7);
        let mut rng = StdRng::seed_from_u64(1);
        let masks: Vec<Vec<u64>> = (0..32)
            .map(|i| gen.window_masks(&mut rng, i, 200, 16))
            .collect();
        let s = measured_sparsity(&masks, 16);
        assert!((s - 0.7).abs() < 0.02, "measured {s}");
    }

    #[test]
    fn clustered_hits_target_sparsity_on_average() {
        for clustering in [0.0, 0.3, 0.7] {
            let gen = ClusteredSparsity::new(0.6, clustering);
            let mut rng = StdRng::seed_from_u64(2);
            let masks: Vec<Vec<u64>> = (0..256)
                .map(|i| gen.window_masks(&mut rng, i, 100, 16))
                .collect();
            let s = measured_sparsity(&masks, 16);
            assert!(
                (s - 0.6).abs() < 0.06,
                "clustering {clustering}: measured {s}"
            );
        }
    }

    #[test]
    fn clustering_raises_cross_window_variance() {
        let variance = |clustering: f64| {
            let gen = ClusteredSparsity::new(0.6, clustering);
            let mut rng = StdRng::seed_from_u64(3);
            let densities: Vec<f64> = (0..128)
                .map(|i| {
                    let masks = gen.window_masks(&mut rng, i, 100, 16);
                    1.0 - measured_sparsity(&[masks], 16)
                })
                .collect();
            let mean: f64 = densities.iter().sum::<f64>() / densities.len() as f64;
            densities
                .iter()
                .map(|d| (d - mean) * (d - mean))
                .sum::<f64>()
                / densities.len() as f64
        };
        let low = variance(0.1);
        let high = variance(0.9);
        assert!(
            high > low * 5.0,
            "clustering must spread window densities: {low} vs {high}"
        );
    }

    #[test]
    fn op_trace_has_correct_geometry() {
        let dims = ConvDims::conv_square(4, 64, 14, 96, 3, 1, 1);
        let gen = UniformSparsity::new(0.5);
        let t = gen.op_trace(dims, TrainingOp::Forward, 16, &SampleSpec::new(16, 100), 7);
        assert_eq!(t.num_windows(), 16);
        assert_eq!(t.window_masks(0).len(), 36); // 9 taps * 4 channel blocks
        assert_eq!(t.total_windows, 4 * 14 * 14);
        assert!((t.measured_sparsity() - 0.5).abs() < 0.05);
    }

    #[test]
    fn extreme_sparsities_work() {
        let dims = ConvDims::conv_square(1, 16, 8, 16, 3, 1, 1);
        let dense = UniformSparsity::new(0.0).op_trace(
            dims,
            TrainingOp::Forward,
            16,
            &SampleSpec::default(),
            1,
        );
        assert_eq!(dense.measured_sparsity(), 0.0);
        let empty = UniformSparsity::new(1.0).op_trace(
            dims,
            TrainingOp::Forward,
            16,
            &SampleSpec::default(),
            1,
        );
        assert_eq!(empty.measured_sparsity(), 1.0);
    }

    #[test]
    #[should_panic(expected = "sparsity must be in [0, 1]")]
    fn rejects_out_of_range_sparsity() {
        let _ = UniformSparsity::new(1.5);
    }
}
