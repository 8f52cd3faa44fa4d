//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access, so this workspace vendors the
//! small slice of the `rand` 0.8 API the repository uses: [`rngs::StdRng`]
//! (a deterministic xoshiro256++ generator seeded through SplitMix64),
//! the [`Rng`]/[`SeedableRng`] traits, and
//! [`distributions::Uniform`]/[`distributions::Distribution`].
//!
//! Streams are deterministic per seed — which is exactly what the
//! reproduction's sampled-trace methodology requires — but they are *not*
//! bit-identical to upstream `rand`'s ChaCha12-based `StdRng`.
//!
//! Beyond upstream's API, [`rngs::StdRng`] exposes its raw state and an
//! exact jump ahead by any number of draws ([`rngs::StdRng::jump`],
//! [`rngs::Jump`]), so a consumer can start several generators at known
//! offsets of one stream and draw them side by side.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A random number generator with convenience sampling methods.
pub trait Rng: RngCore {
    /// Samples a value of type `T` from its full range.
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability {p} outside [0, 1]"
        );
        unit_f64(self.next_u64()) < p
    }

    /// Samples from an explicit distribution.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, dist: D) -> T
    where
        Self: Sized,
    {
        dist.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Maps 64 random bits to a uniform `f32` in `[0, 1)`.
///
/// Computed at 24-bit precision directly in `f32`: narrowing a 53-bit
/// `f64` unit instead would round values near 1 up to exactly `1.0`,
/// violating the half-open contract about once per 2^25 draws.
fn unit_f32(word: u64) -> f32 {
    (word >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Types samplable from their full value range via [`Rng::gen`].
pub trait Standard {
    /// Samples one value.
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng.next_u64())
    }
}

impl Standard for f32 {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng.next_u64())
    }
}

impl Standard for bool {
    fn from_rng<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types with uniform sampling between two bounds.
pub trait SampleUniform: Sized {
    /// Uniform sample in `[low, high)` (or `[low, high]` when `inclusive`).
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let span = (high as i128 - low as i128) + i128::from(inclusive);
                assert!(span > 0, "empty sampling range {low}..{high}");
                let offset = (u128::from(rng.next_u64()) % span as u128) as i128;
                (low as i128 + offset) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: Self,
                high: Self,
                inclusive: bool,
            ) -> Self {
                let _ = inclusive; // measure-zero distinction for floats
                assert!(low < high, "empty sampling range {low}..{high}");
                // The unit is computed at the target type's own precision
                // so the half-open upper bound is never reached.
                low + (high - low) * $unit(rng.next_u64())
            }
        }
    )*};
}

impl_sample_uniform_float!(f32 => unit_f32, f64 => unit_f64);

/// Range shapes accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Samples one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, *self.start(), *self.end(), true)
    }
}

pub mod rngs {
    //! Concrete generator implementations.

    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++,
    /// seeded from a 64-bit value through SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding for xoshiro.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                state: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.state;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl StdRng {
        /// The raw xoshiro256++ state: what [`from_state`](StdRng::from_state)
        /// takes back.
        #[must_use]
        pub fn state(&self) -> [u64; 4] {
            self.state
        }

        /// A generator resuming from a raw state. The all-zero state is the
        /// update's fixed point (it draws zeros forever); seeding never
        /// produces it.
        #[must_use]
        pub fn from_state(state: [u64; 4]) -> Self {
            StdRng { state }
        }

        /// Advances the generator exactly as `draws` calls to
        /// [`next_u64`](RngCore::next_u64) would, in 256 steps whatever
        /// `draws` is.
        pub fn jump(&mut self, draws: u64) {
            // The state becomes `Σ cᵢ·Tⁱ·s` over the jump's coefficients,
            // accumulated while the generator steps 256 times (the
            // reference xoshiro jump).
            let mut acc = [0u64; 4];
            for word in Jump::new(draws).coefficients() {
                for bit in 0..64 {
                    let take = 0u64.wrapping_sub(word >> bit & 1);
                    for (a, s) in acc.iter_mut().zip(self.state) {
                        *a ^= s & take;
                    }
                    self.next_u64();
                }
            }
            self.state = acc;
        }
    }

    /// A polynomial over GF(2) of degree below 256, packed little-endian:
    /// bit `i % 64` of word `i / 64` is the coefficient of `xⁱ`.
    type Poly = [u64; 4];

    /// xoshiro256's characteristic polynomial `p(x) = x²⁵⁶ + CHAR_POLY_LOW`.
    ///
    /// The state update `T` is linear over GF(2), so `p(T) = 0` and
    /// `Tⁿ = (xⁿ mod p)(T)`: a jump of `n` draws is the remainder `xⁿ mod
    /// p` applied to the state. The constant was derived by
    /// Berlekamp–Massey over 512 steps of bit 0 of the state's first word
    /// (seed 1), giving a linear recurrence of order 256 whose reciprocal
    /// connection polynomial is `p`; `p` is primitive (the generator's
    /// period is `2²⁵⁶ − 1`), so every non-zero bit sequence has it as its
    /// minimal polynomial. `char_poly_is_the_minimal_polynomial_of_a_state_bit`
    /// re-derives it, and `x^(2^128) mod p` equals the published
    /// xoshiro256 `jump()` constant (`jump_2_128_matches_the_reference_constant`).
    const CHAR_POLY_LOW: Poly = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `v(x)·x^(256 + 4t) mod p` for every nibble `v` at every nibble
    /// position `t` of a word: the fold of a word that overflowed past
    /// `x²⁵⁵` is sixteen lookups. Evaluated at compile time.
    const FOLD: [[Poly; 16]; 16] = fold_table();

    /// `a·x mod p`.
    const fn mul_x(a: Poly) -> Poly {
        let carry = a[3] >> 63;
        let mut out = [
            a[0] << 1,
            a[1] << 1 | a[0] >> 63,
            a[2] << 1 | a[1] >> 63,
            a[3] << 1 | a[2] >> 63,
        ];
        if carry == 1 {
            let mut i = 0;
            while i < 4 {
                out[i] ^= CHAR_POLY_LOW[i];
                i += 1;
            }
        }
        out
    }

    const fn fold_table() -> [[Poly; 16]; 16] {
        let mut powers = [[0u64; 4]; 64]; // x^(256 + i) mod p
        let mut power = CHAR_POLY_LOW;
        let mut i = 0;
        while i < 64 {
            powers[i] = power;
            power = mul_x(power);
            i += 1;
        }
        let mut table = [[[0u64; 4]; 16]; 16];
        let mut t = 0;
        while t < 16 {
            let mut v = 0;
            while v < 16 {
                let mut b = 0;
                while b < 4 {
                    if v >> b & 1 == 1 {
                        let mut w = 0;
                        while w < 4 {
                            table[t][v][w] ^= powers[4 * t + b][w];
                            w += 1;
                        }
                    }
                    b += 1;
                }
                v += 1;
            }
            t += 1;
        }
        table
    }

    /// `h(x)·x²⁵⁶ mod p` for the 64 coefficients of `h`.
    fn fold(h: u64) -> Poly {
        let mut out = [0u64; 4];
        for (t, table) in FOLD.iter().enumerate() {
            let folded = table[(h >> (4 * t)) as usize & 15];
            for (o, f) in out.iter_mut().zip(folded) {
                *o ^= f;
            }
        }
        out
    }

    /// `a² mod p`: squaring over GF(2) spreads the bits apart, then the
    /// upper four words fold down, highest first.
    fn square(a: Poly) -> Poly {
        fn spread(half: u64) -> u64 {
            let mut x = half & 0xFFFF_FFFF;
            x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
            x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
            x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
            x = (x | x << 2) & 0x3333_3333_3333_3333;
            (x | x << 1) & 0x5555_5555_5555_5555
        }
        let mut wide = [0u64; 8];
        for (i, word) in a.into_iter().enumerate() {
            wide[2 * i] = spread(word);
            wide[2 * i + 1] = spread(word >> 32);
        }
        for top in (4..8).rev() {
            let folded = fold(wide[top]);
            for (w, f) in wide[top - 4..top].iter_mut().zip(folded) {
                *w ^= f;
            }
        }
        [wide[0], wide[1], wide[2], wide[3]]
    }

    /// `a·b mod p`, Horner over `b`'s nibbles from the top: each step
    /// multiplies by `x⁴` (a shift and one fold lookup) and adds one of
    /// the sixteen multiples of `a`.
    fn mul(a: Poly, b: Poly) -> Poly {
        let mut multiples = [[0u64; 4]; 16];
        let mut shifted = a;
        for bit in 0..4 {
            for v in (1usize << bit)..(2 << bit) {
                let low = multiples[v - (1 << bit)];
                multiples[v] = std::array::from_fn(|w| low[w] ^ shifted[w]);
            }
            shifted = mul_x(shifted);
        }
        let mut acc = [0u64; 4];
        for word in b.into_iter().rev() {
            for t in (0..16).rev() {
                let over = FOLD[0][(acc[3] >> 60) as usize];
                let add = multiples[(word >> (4 * t)) as usize & 15];
                acc = [
                    acc[0] << 4 ^ over[0] ^ add[0],
                    (acc[1] << 4 | acc[0] >> 60) ^ over[1] ^ add[1],
                    (acc[2] << 4 | acc[1] >> 60) ^ over[2] ^ add[2],
                    (acc[3] << 4 | acc[2] >> 60) ^ over[3] ^ add[3],
                ];
            }
        }
        acc
    }

    /// A jump of a fixed number of draws, as the polynomial `xⁿ mod p` in
    /// the state update `T`, where `p` is the generator's characteristic
    /// polynomial. Building one costs
    /// one square per bit of `n`; [`then`](Jump::then) composes two.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Jump {
        poly: Poly,
    }

    impl Jump {
        /// The jump over `draws` calls to [`next_u64`](RngCore::next_u64).
        #[must_use]
        pub fn new(draws: u64) -> Self {
            let mut poly = [1, 0, 0, 0];
            for bit in (0..u64::BITS - draws.leading_zeros()).rev() {
                poly = square(poly);
                if draws >> bit & 1 == 1 {
                    poly = mul_x(poly);
                }
            }
            Jump { poly }
        }

        /// The jump over this jump's draws followed by `other`'s.
        #[must_use]
        pub fn then(self, other: Jump) -> Self {
            Jump {
                poly: mul(self.poly, other.poly),
            }
        }

        /// The coefficients `c₀ … c₂₅₅` of the jump polynomial, packed
        /// little-endian: the jumped state is `Σ cᵢ·Tⁱ·s`.
        #[must_use]
        pub fn coefficients(self) -> [u64; 4] {
            self.poly
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::Rng;

        fn stepped(seed: u64, draws: u64) -> StdRng {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..draws {
                rng.next_u64();
            }
            rng
        }

        fn jumped(seed: u64, draws: u64) -> StdRng {
            let mut rng = StdRng::seed_from_u64(seed);
            rng.jump(draws);
            rng
        }

        #[test]
        fn jump_equals_stepping() {
            let mut picks = StdRng::seed_from_u64(0x5EED);
            for draws in [0, 1, 2, 63, 64, 255, 256, 257] {
                let seed = picks.gen();
                assert_eq!(jumped(seed, draws), stepped(seed, draws), "{draws} draws");
            }
            for _ in 0..8 {
                let (seed, draws) = (picks.gen(), picks.gen_range(0..1u64 << 20));
                assert_eq!(jumped(seed, draws), stepped(seed, draws), "{draws} draws");
            }
        }

        #[test]
        fn jumps_compose() {
            let mut picks = StdRng::seed_from_u64(0xC0DE);
            for _ in 0..16 {
                let (a, b) = (
                    picks.gen_range(0..1u64 << 40),
                    picks.gen_range(0..1u64 << 40),
                );
                let seed = picks.gen();
                let mut twice = StdRng::seed_from_u64(seed);
                twice.jump(a);
                twice.jump(b);
                assert_eq!(twice, jumped(seed, a + b), "{a} + {b}");
                assert_eq!(Jump::new(a).then(Jump::new(b)), Jump::new(a + b));
            }
            let poly = Jump::new(1_234_567).coefficients();
            assert_eq!(square(poly), mul(poly, poly));
        }

        /// Berlekamp–Massey over GF(2): the shortest recurrence generating
        /// `bits`, as its connection polynomial's coefficients `c₀ = 1, c₁, …`.
        fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
            let (mut c, mut b) = (vec![1u8], vec![1u8]);
            let (mut order, mut gap) = (0usize, 1usize);
            for n in 0..bits.len() {
                let discrepancy = (1..=order).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
                if discrepancy == 0 {
                    gap += 1;
                    continue;
                }
                let previous = c.clone();
                c.resize(c.len().max(b.len() + gap), 0);
                for (i, &bi) in b.iter().enumerate() {
                    c[i + gap] ^= bi;
                }
                if 2 * order <= n {
                    order = n + 1 - order;
                    b = previous;
                    gap = 1;
                } else {
                    gap += 1;
                }
            }
            c.truncate(order + 1);
            c.resize(order + 1, 0);
            c
        }

        #[test]
        fn char_poly_is_the_minimal_polynomial_of_a_state_bit() {
            let mut rng = StdRng::seed_from_u64(1);
            let bits: Vec<u8> = (0..512)
                .map(|_| {
                    let bit = (rng.state()[0] & 1) as u8;
                    rng.next_u64();
                    bit
                })
                .collect();
            let connection = berlekamp_massey(&bits);
            assert_eq!(connection.len() - 1, 256, "the recurrence has order 256");
            // p(x) = x²⁵⁶·C(1/x): the coefficient of xʲ is c₂₅₆₋ⱼ.
            let mut low = [0u64; 4];
            for j in 0..256 {
                low[j / 64] |= u64::from(connection[256 - j]) << (j % 64);
            }
            assert_eq!(connection[0], 1, "p is monic");
            assert_eq!(low, CHAR_POLY_LOW);
        }

        #[test]
        fn jump_2_128_matches_the_reference_constant() {
            // Vigna's xoshiro256 reference `jump()` advances 2¹²⁸ draws with
            // these coefficients; 128 squarings of `x` must reproduce them.
            let mut poly = [2, 0, 0, 0];
            for _ in 0..128 {
                poly = square(poly);
            }
            assert_eq!(
                poly,
                [
                    0x180e_c6d3_3cfd_0aba,
                    0xd5a6_1266_f0c9_392c,
                    0xa958_2618_e03f_c9aa,
                    0x39ab_dc45_29b1_661c,
                ]
            );
        }
    }
}

pub mod distributions {
    //! Sampling distributions.

    use super::{Rng, SampleUniform};

    /// A distribution over values of type `T`.
    pub trait Distribution<T> {
        /// Samples one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The uniform distribution over `[low, high)`.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Uniform<T> {
        low: T,
        high: T,
    }

    impl<T: SampleUniform + Copy + PartialOrd> Uniform<T> {
        /// A uniform distribution on the half-open range `[low, high)`.
        ///
        /// # Panics
        ///
        /// Panics if `low >= high`.
        pub fn new(low: T, high: T) -> Self {
            assert!(low < high, "Uniform requires low < high");
            Uniform { low, high }
        }
    }

    impl<T: SampleUniform + Copy> Distribution<T> for Uniform<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            T::sample_between(rng, self.low, self.high, false)
        }
    }

    impl<T, D: Distribution<T>> Distribution<T> for &D {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            (**self).sample(rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let xs: Vec<u64> = (0..16).map(|_| a.gen::<u64>()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen::<u64>()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn float_units_never_reach_the_upper_bound() {
        // All-ones words are the worst case: the f32 unit must not round
        // up to 1.0 (the regression the per-type unit computation fixes).
        assert!(super::unit_f32(u64::MAX) < 1.0);
        assert!(super::unit_f64(u64::MAX) < 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100_000 {
            assert!(rng.gen_range(0.0f32..1.0) < 1.0);
            assert!(rng.gen::<f32>() < 1.0);
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(7);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.3).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.gen_range(-8i32..=8);
            assert!((-8..=8).contains(&v));
            let f = rng.gen_range(0.25f32..0.75);
            assert!((0.25..0.75).contains(&f));
            let u = rng.gen_range(3usize..10);
            assert!((3..10).contains(&u));
        }
    }

    #[test]
    fn uniform_distribution_means_out() {
        use super::distributions::{Distribution, Uniform};
        let mut rng = StdRng::seed_from_u64(11);
        let d = Uniform::new(-1.0f32, 1.0);
        let mean: f32 = (0..20_000).map(|_| d.sample(&mut rng)).sum::<f32>() / 20_000.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
    }
}
