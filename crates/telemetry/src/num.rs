//! Number writers for the exposition formats, with no `core::fmt`.
//!
//! Integers go two digits per step into a stack buffer and then into the
//! output with one `push_str`. Floats print as the shortest decimal that
//! reads back to the same bits, laid out exactly as Rust's `{}` prints
//! an `f64`: no exponent, `-0` for negative zero.
//!
//! The shortest digits come from Ryu (Ulf Adams, "Ryū: Fast
//! Float-to-String Conversion", PLDI 2018), `d2d` over its full 128-bit
//! power-of-5 tables, which `const fn`s compute from exact powers of 5
//! at compile time. One departure: when the exact value lies halfway
//! between the two nearest shortest candidates, Ryu picks the even one
//! and `core::fmt` (Grisu with a Dragon fallback) the larger one:
//! 2^50 + 0.25 prints as `1125899906842624.3`, not `….2`. This writer
//! rounds such ties up, as `{}` does, and its tests hold it to
//! `format!("{v}")`.

/// `"00" "01" … "99"`: the two ASCII digits of each value below 100.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Decimal digits of `u64::MAX`.
const U64_DIGITS: usize = 20;

/// The decimal digits of `v`, written right-aligned into `buf`.
fn digits(buf: &mut [u8; U64_DIGITS], mut v: u64) -> &str {
    let mut at = U64_DIGITS;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    // Only ASCII digits were written, so this never falls back.
    std::str::from_utf8(&buf[at..]).unwrap_or_default()
}

/// Append `v` in decimal.
pub(crate) fn push_u64(out: &mut String, v: u64) {
    out.push_str(digits(&mut [0; U64_DIGITS], v));
}

/// Append `n` ASCII zeros.
fn push_zeros(out: &mut String, mut n: usize) {
    const ZEROS: &str = "0000000000000000000000000000000000000000000000000000000000000000";
    while n > 0 {
        let run = n.min(ZEROS.len());
        out.push_str(&ZEROS[..run]);
        n -= run;
    }
}

/// Append `v` as `format!("{v}")` would. `v` must be finite.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    debug_assert!(v.is_finite(), "{v} has no decimal form");
    if v.is_sign_negative() {
        out.push('-');
    }
    let bits = v.to_bits();
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if exponent == 0 && mantissa == 0 {
        out.push('0');
        return;
    }
    let (output, e10) = d2d(mantissa, exponent);
    let mut buf = [0; U64_DIGITS];
    let digits = digits(&mut buf, output);
    // `v` is 0.DIGITS × 10^point.
    let point = digits.len() as i32 + e10;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, point.unsigned_abs() as usize);
        out.push_str(digits);
    } else if e10 < 0 {
        let (int, frac) = digits.split_at(point as usize);
        out.push_str(int);
        out.push('.');
        out.push_str(frac);
    } else {
        out.push_str(digits);
        push_zeros(out, e10 as usize);
    }
}

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Bits kept of each power of 5 (and of each inverse) in the tables.
const POW5_BITCOUNT: i32 = 125;

/// The bit length of 5^e (⌈log₂ 5^e⌉ for `e >= 1`), for `e <= 3528`.
fn pow5bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// ⌊log₁₀ 2^e⌋ for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log₁₀ 5^e⌋ for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// True when 5^p divides `v` (`v` nonzero).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut factor = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        factor += 1;
    }
    factor >= p
}

/// ⌊m · mul / 2^j⌋ for `j >= 64`, with `mul` a 125-bit table entry.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// `mul_shift` of the value, upper and lower bound of the interval
/// around `m`: `4m`, `4m + 2` and `4m - 1 - mm_shift`.
fn mul_shift_all(m: u64, mul: u128, j: u32, mm_shift: u64) -> (u64, u64, u64) {
    (
        mul_shift(4 * m, mul, j),
        mul_shift(4 * m + 2, mul, j),
        mul_shift(4 * m - 1 - mm_shift, mul, j),
    )
}

/// The shortest `(digits, e10)` with `digits · 10^e10` inside the
/// rounding interval of the nonzero finite double with these IEEE
/// fields, nearest to its exact value, ties rounding up.
fn d2d(mantissa: u64, exponent: u32) -> (u64, i32) {
    let (e2, m2) = if exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (
            exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa,
        )
    };
    // Round-half-even parsing: an even mantissa owns both interval ends.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The lower neighbour is half as far away at a power of two.
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);

    // Step 3: the interval in a decimal power base.
    let (e10, mut vr, mut vp, mut vm);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITCOUNT + pow5bits(q as i32) - 1;
        let i = -e2 + q as i32 + k;
        (vr, vp, vm) = mul_shift_all(m2, POW5_INV_SPLIT[q as usize], i as u32, mm_shift);
        // Only one of mp, mv and mm can be a multiple of 5.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5bits(i) - POW5_BITCOUNT;
        let j = q as i32 - k;
        (vr, vp, vm) = mul_shift_all(m2, POW5_SPLIT[i as usize], j as u32, mm_shift);
        if q <= 1 {
            if accept_bounds {
                // mm = mv - 1 - mm_shift has a trailing 0 bit iff mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 always has one.
                vp -= 1;
            }
        }
    }

    // Step 4: drop digits while the interval still holds a candidate.
    // Ryu also tracks whether the digits below the last removed one were
    // all zero, to round an exact ...5 tie to even. Rounding ties up needs
    // only the last removed digit.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        // vr + 1 when vr is outside the interval or the digits round up.
        let outside = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        vr + u64::from(outside || last_removed >= 5)
    } else {
        // The common case: vm is not exact, so it is never a candidate.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `POW5_SPLIT[i]`: the top 125 bits of 5^i (5^i shifted left when shorter).
static POW5_SPLIT: [u128; 326] = pow5_table(false);

/// `POW5_INV_SPLIT[q]`: ⌊2^(pow5bits(q) − 1 + 125) / 5^q⌋ + 1.
static POW5_INV_SPLIT: [u128; 342] = pow5_table(true);

/// A natural number in little-endian 64-bit limbs, wide enough for the
/// products `pow5_table` forms (5^341 · 2^126 < 2^919).
type Big = [u64; 15];

/// `POW5_INV_SPLIT` if `inverse`, else `POW5_SPLIT`, from exact powers of 5.
const fn pow5_table<const N: usize>(inverse: bool) -> [u128; N] {
    let (mut table, mut pow5, mut i): (_, Big, _) = ([0; N], [0; 15], 0);
    pow5[0] = 1;
    while i < N {
        let (top, bits) = top128(&pow5);
        table[i] = if !inverse {
            top >> (128 - POW5_BITCOUNT)
        } else {
            // 2^k / 5^i = 2^252 / (5^i · 2^(128 − bits)) and `top` is that
            // divisor rounded down, so the quotient is at most one too big.
            let k = bits - 1 + POW5_BITCOUNT as u32;
            let mut two_k = [0; 15];
            two_k[k as usize / 64] = 1 << (k % 64);
            let mut inv = div_2_252(top);
            while !le(&mul(&pow5, inv), &two_k) {
                inv -= 1;
            }
            inv + 1
        };
        pow5 = mul(&pow5, 5);
        i += 1;
    }
    table
}

/// `a · m`; the product must fit in `Big`.
const fn mul(a: &Big, m: u128) -> Big {
    let mut out = [0; 15];
    let mut half = 0;
    while half < 2 {
        let m = (m >> (64 * half)) as u64 as u128;
        let (mut carry, mut i) = (0, 0);
        while i + half < 15 {
            let t = a[i] as u128 * m + out[i + half] as u128 + carry;
            out[i + half] = t as u64;
            carry = t >> 64;
            i += 1;
        }
        half += 1;
    }
    out
}

/// `a <= b`.
const fn le(a: &Big, b: &Big) -> bool {
    let mut i = 15;
    while i > 0 {
        i -= 1;
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    true
}

/// The top 128 bits of nonzero `a` (`a` shifted left when shorter) and
/// the bit length of `a`.
const fn top128(a: &Big) -> (u128, u32) {
    let mut i = 14;
    while a[i] == 0 {
        i -= 1;
    }
    let next = if i >= 1 { a[i - 1] } else { 0 };
    let after = if i >= 2 { a[i - 2] } else { 0 };
    let z = a[i].leading_zeros();
    let top = ((a[i] as u128) << 64 | next as u128) << z | (after as u128) << z >> 64;
    (top, 64 * (i as u32 + 1) - z)
}

/// ⌊2^252 / t⌋ for `t >= 2^127`, one quotient bit per step.
const fn div_2_252(t: u128) -> u128 {
    // 2^252 = 2^126 · 2^126 and 2^126 < t: bring down 126 zero bits.
    let (mut rem, mut quotient, mut step) = (1u128 << 126, 0, 0);
    while step < 126 {
        // `rem < t`, so doubling it can carry one bit past the u128.
        let carry = rem >> 127 == 1;
        rem <<= 1;
        quotient <<= 1;
        if carry || rem >= t {
            rem = rem.wrapping_sub(t);
            quotient |= 1;
        }
        step += 1;
    }
    quotient
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    fn shortest(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    /// Both renderings of one value, in buffers reused across values.
    #[derive(Default)]
    struct Oracle {
        ours: String,
        std: String,
    }

    impl Oracle {
        /// Hold the writer to `{}` on `v`, if finite.
        fn check(&mut self, v: f64) {
            use std::fmt::Write as _;
            if !v.is_finite() {
                return;
            }
            self.ours.clear();
            push_f64(&mut self.ours, v);
            self.std.clear();
            let _ = write!(self.std, "{v}");
            assert_eq!(self.ours, self.std, "bits {:#018x}", v.to_bits());
        }
    }

    /// `v` moved by `ulps` units in the last place, within the finite
    /// non-negative doubles.
    fn ulps(v: f64, ulps: i64) -> f64 {
        let bits = v.to_bits() as i64 + ulps;
        f64::from_bits(bits.clamp(0, f64::MAX.to_bits() as i64) as u64)
    }

    /// splitmix64: the tests' own deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Half random bit patterns, half short decimals `n / 10^k` and
        /// `n · 10^k`, which random bits almost never hit.
        fn float(&mut self) -> f64 {
            let r = self.next();
            if r & 1 == 0 {
                return f64::from_bits(self.next());
            }
            let n = (self.next() >> ((r >> 1) % 64)) as f64;
            let k = ((r >> 8) % 24) as i32;
            if r & 2 == 0 {
                n / 10f64.powi(k)
            } else {
                n * 10f64.powi(k)
            }
        }
    }

    #[test]
    fn integers_match_display() {
        let mut cases = vec![0, 1, 9, 10, 99, 100, 101, u64::from(u32::MAX), u64::MAX];
        for p in 1..20 {
            let p = 10u64.pow(p);
            cases.extend([p - 1, p, p + 1]);
        }
        let mut rng = Rng(7);
        cases.extend((0..10_000).map(|_| rng.next() >> (rng.next() % 64)));
        for v in cases {
            let mut out = String::from("x");
            push_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn floats_match_display_at_the_edges() {
        assert_eq!(shortest(0.0), "0");
        assert_eq!(shortest(-0.0), "-0");
        // An exact tie between two shortest candidates rounds up, as `{}`.
        assert_eq!(shortest(2f64.powi(50) + 0.25), "1125899906842624.3");
        let mut cases = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::EPSILON,
            0.1 + 0.2,
            1.0 / 3.0,
            // Subnormals: the smallest few, the largest, and between.
            f64::from_bits(1),
            f64::from_bits(2),
            f64::from_bits(3),
            f64::from_bits((1 << 52) - 1),
            f64::from_bits(1 << 40),
            // Integers past 1e21, where `{}` still writes every digit.
            1e21,
            1e22,
            1e23,
            9_007_199_254_740_993.0,
            u64::MAX as f64,
            2f64.powi(70),
            2f64.powi(100),
            123_456_789_012_345_680_000_000.0,
        ];
        // Every power of two and of ten, and their neighbours.
        let powers = (-1074..=1023).map(|e| 2f64.powi(e));
        let powers = powers.chain((-323..=308).map(|e| format!("1e{e}").parse().unwrap_or(0.0)));
        for p in powers {
            cases.extend((-2..=2).map(|n| ulps(p, n)));
        }
        // Exact ties: 2^e + k/4 for e near 50 is representable and its
        // shortest digits land on a ...5 boundary for odd k.
        for e in 48..=53 {
            for k in 0..16 {
                cases.push(2f64.powi(e) + f64::from(k) * 0.25);
            }
        }
        let mut oracle = Oracle::default();
        for v in cases {
            oracle.check(v);
            oracle.check(-v);
        }
    }

    #[test]
    fn floats_match_display_on_a_million_seeded_values() {
        let (mut rng, mut oracle) = (Rng(11), Oracle::default());
        for _ in 0..1_000_000 {
            oracle.check(rng.float());
        }
    }

    #[test]
    #[ignore = "50 M values: run under -O with --include-ignored"]
    fn floats_match_display_on_fifty_million_seeded_values() {
        let (mut rng, mut oracle) = (Rng(0x5eed_f10a7), Oracle::default());
        for _ in 0..50_000_000 {
            oracle.check(rng.float());
        }
    }

    /// Little-endian base-2^32 naturals: just enough arithmetic to
    /// recompute the tables from exact powers of 5.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Big(Vec<u32>);

    impl Big {
        fn new(v: u128) -> Big {
            Big((0..4).map(|i| (v >> (32 * i)) as u32).collect()).trim()
        }

        fn trim(mut self) -> Big {
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
            self
        }

        fn bits(&self) -> u32 {
            self.0
                .last()
                .map_or(0, |top| 32 * self.0.len() as u32 - top.leading_zeros())
        }

        fn mul(&self, other: &Big) -> Big {
            let mut out = vec![0u32; self.0.len() + other.0.len()];
            for (i, &a) in self.0.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &b) in other.0.iter().enumerate() {
                    let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                out[i + other.0.len()] = carry as u32;
            }
            Big(out).trim()
        }

        fn shl(&self, bits: u32) -> Big {
            self.mul(&Big::pow2(bits))
        }

        fn pow2(bits: u32) -> Big {
            let mut limbs = vec![0; (bits / 32) as usize];
            limbs.push(1 << (bits % 32));
            Big(limbs)
        }
    }

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Big) -> Option<Ordering> {
            let by_len = self.0.len().cmp(&other.0.len());
            Some(by_len.then_with(|| self.0.iter().rev().cmp(other.0.iter().rev())))
        }
    }

    #[test]
    fn tables_hold_exact_powers_of_five() {
        let mut pow5 = Big::new(1);
        for (i, &inv) in POW5_INV_SPLIT.iter().enumerate() {
            let bits = pow5.bits();
            assert_eq!(pow5bits(i as i32), bits as i32, "pow5bits({i})");
            if let Some(&split) = POW5_SPLIT.get(i) {
                let split = Big::new(split);
                assert_eq!(split.bits(), POW5_BITCOUNT as u32, "POW5_SPLIT[{i}]");
                if bits <= split.bits() {
                    assert_eq!(split, pow5.shl(split.bits() - bits), "POW5_SPLIT[{i}]");
                } else {
                    // split · 2^s <= 5^i < (split + 1) · 2^s
                    let s = bits - split.bits();
                    let next = Big::new(POW5_SPLIT[i] + 1);
                    assert!(
                        split.shl(s) <= pow5 && pow5 < next.shl(s),
                        "POW5_SPLIT[{i}]"
                    );
                }
            }
            // inv - 1 == ⌊2^k / 5^i⌋: (inv - 1) · 5^i <= 2^k < inv · 5^i.
            let two_k = Big::pow2(bits - 1 + POW5_BITCOUNT as u32);
            let below = Big::new(inv - 1).mul(&pow5);
            assert!(
                below <= two_k && two_k < Big::new(inv).mul(&pow5),
                "POW5_INV_SPLIT[{i}]"
            );
            pow5 = pow5.mul(&Big::new(5));
        }
        assert_eq!(POW5_SPLIT.len(), 326);
    }
}
