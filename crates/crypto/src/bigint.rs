//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! Supports the modular arithmetic needed by the Schnorr-style signature
//! scheme in [`crate::keys`]: addition, subtraction, multiplication with a
//! 512-bit intermediate, modular reduction, modular exponentiation and
//! modular inverse. The implementation favours clarity over speed — signing
//! and verification are not on the object-store fast path — except that
//! reduction modulo the signature prime itself uses its pseudo-Mersenne
//! shape: a controller bootstrap is about ten modular exponentiations, and
//! bit-serial division under each of their ~380 multiplications made it
//! 24 ms.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` holds the least-significant 64 bits.
    pub limbs: [u64; 4],
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", crate::hex_encode(&self.to_be_bytes()))
    }
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value one.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };

    /// Constructs from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Constructs from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            // Byte 0..8 is the most significant limb.
            limbs[3 - i] = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Constructs from a big-endian byte slice of at most 32 bytes.
    pub fn from_be_slice(bytes: &[u8]) -> Option<Self> {
        if bytes.len() > 32 {
            return None;
        }
        let mut buf = [0u8; 32];
        buf[32 - bytes.len()..].copy_from_slice(bytes);
        Some(Self::from_be_bytes(&buf))
    }

    /// Returns the 32-byte big-endian representation.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<u32> {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return Some(i as u32 * 64 + 63 - self.limbs[i].leading_zeros());
            }
        }
        None
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= 4 {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Wrapping addition; returns `(sum, carry)`.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, o) in out.iter_mut().enumerate() {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Wrapping subtraction; returns `(difference, borrow)`.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (i, o) in out.iter_mut().enumerate() {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Full 256×256→512-bit multiplication, returned as eight LE limbs.
    pub fn widening_mul(self, rhs: U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = out[i + 4].wrapping_add(carry as u64);
        }
        out
    }

    /// Modular addition: `(self + rhs) mod m`.
    ///
    /// Both operands must already be reduced modulo `m`.
    pub fn add_mod(self, rhs: U256, m: &U256) -> U256 {
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || sum.cmp_u256(m) != Ordering::Less {
            let (red, _) = sum.overflowing_sub(*m);
            red
        } else {
            sum
        }
    }

    /// Modular subtraction: `(self - rhs) mod m`.
    pub fn sub_mod(self, rhs: U256, m: &U256) -> U256 {
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            let (wrapped, _) = diff.overflowing_add(*m);
            wrapped
        } else {
            diff
        }
    }

    /// Comparison helper (avoids the `Ord` trait to keep call sites explicit).
    pub fn cmp_u256(&self, other: &U256) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Reduces a 512-bit value (eight LE limbs) modulo `m`.
    ///
    /// The signature modulus [`prime_p`] — the modulus of every `mul_mod`
    /// inside a signing or verifying `pow_mod` — takes the pseudo-Mersenne
    /// fold; any other modulus takes binary long division.
    pub fn reduce_wide(wide: &[u64; 8], m: &U256) -> U256 {
        if *m == PRIME_P {
            reduce_wide_prime_p(wide)
        } else {
            U256::reduce_wide_bitwise(wide, m)
        }
    }

    /// Reduces a 512-bit value modulo any non-zero `m` by binary long division:
    /// 512 shift-and-subtract steps. The general path, and the oracle the
    /// [`prime_p`] fold is tested against.
    fn reduce_wide_bitwise(wide: &[u64; 8], m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be non-zero");
        // Find the highest set bit of the 512-bit value.
        let mut high_bit: Option<u32> = None;
        for i in (0..8).rev() {
            if wide[i] != 0 {
                high_bit = Some(i as u32 * 64 + 63 - wide[i].leading_zeros());
                break;
            }
        }
        let Some(high_bit) = high_bit else {
            return U256::ZERO;
        };

        let bit_of = |bit: u32| -> bool {
            let limb = (bit / 64) as usize;
            (wide[limb] >> (bit % 64)) & 1 == 1
        };

        let mut rem = U256::ZERO;
        let mut bit = high_bit as i64;
        while bit >= 0 {
            // rem = rem * 2 + bit.
            rem = rem.shl1_mod(m);
            if bit_of(bit as u32) {
                rem = rem.add_mod(U256::ONE, m);
            }
            bit -= 1;
        }
        rem
    }

    /// Returns `(self << 1) mod m`; `self` must be `< m`.
    fn shl1_mod(self, m: &U256) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (i, o) in out.iter_mut().enumerate() {
            *o = (self.limbs[i] << 1) | carry;
            carry = self.limbs[i] >> 63;
        }
        let shifted = U256 { limbs: out };
        if carry != 0 || shifted.cmp_u256(m) != Ordering::Less {
            let (red, _) = shifted.overflowing_sub(*m);
            red
        } else {
            shifted
        }
    }

    /// Modular multiplication: `(self * rhs) mod m`.
    pub fn mul_mod(self, rhs: U256, m: &U256) -> U256 {
        let wide = self.widening_mul(rhs);
        U256::reduce_wide(&wide, m)
    }

    /// Modular exponentiation `self^exp mod m` by square-and-multiply.
    pub fn pow_mod(self, exp: &U256, m: &U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let base = {
            // Reduce the base first.
            let wide = {
                let mut w = [0u64; 8];
                w[..4].copy_from_slice(&self.limbs);
                w
            };
            U256::reduce_wide(&wide, m)
        };
        let mut result = U256::ONE;
        // Reduce ONE mod m in the degenerate case m == 1.
        if m.cmp_u256(&U256::ONE) == Ordering::Equal {
            return U256::ZERO;
        }
        let Some(high) = exp.highest_bit() else {
            return result;
        };
        let mut acc = base;
        for i in 0..=high {
            if exp.bit(i) {
                result = result.mul_mod(acc, m);
            }
            if i < high {
                acc = acc.mul_mod(acc, m);
            }
        }
        result
    }

    /// Reduces `self` modulo `m`.
    #[allow(clippy::should_implement_trait)]
    pub fn rem(self, m: &U256) -> U256 {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&self.limbs);
        U256::reduce_wide(&wide, m)
    }

    /// Modular inverse for a prime modulus via Fermat's little theorem
    /// (`self^(m-2) mod m`). Returns `None` if `self` reduces to zero.
    pub fn inv_mod_prime(self, m: &U256) -> Option<U256> {
        let reduced = self.rem(m);
        if reduced.is_zero() {
            return None;
        }
        let (m_minus_2, _) = m.overflowing_sub(U256::from_u64(2));
        Some(reduced.pow_mod(&m_minus_2, m))
    }

    /// Samples a uniformly random value strictly below `bound` (which must be
    /// non-zero) by rejection sampling.
    pub fn random_below<R: rand::Rng>(rng: &mut R, bound: &U256) -> U256 {
        assert!(!bound.is_zero(), "bound must be non-zero");
        loop {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes[..]);
            let candidate = U256::from_be_bytes(&bytes);
            // Cheap trick: mask down to the bit-length of the bound to keep
            // the rejection rate below 50%.
            let candidate = candidate.rem(bound);
            if !candidate.is_zero() {
                return candidate;
            }
        }
    }
}

/// `2^256 - PRIME_P`: what `2^256` is congruent to modulo [`prime_p`].
const PRIME_P_FOLD: u64 = 189;

const PRIME_P: U256 = U256 {
    limbs: [u64::MAX - (PRIME_P_FOLD - 1), u64::MAX, u64::MAX, u64::MAX],
};

/// `lo + hi * 189` as four limbs and the carry out of them.
fn fold_prime_p(lo: &[u64; 4], hi: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let cur = lo[i] as u128 + hi[i] as u128 * PRIME_P_FOLD as u128 + carry;
        out[i] = cur as u64;
        carry = cur >> 64;
    }
    (out, carry as u64)
}

/// Reduces a 512-bit value modulo `p = 2^256 - 189`.
///
/// `hi * 2^256 + lo` is congruent to `hi * 189 + lo`, which fits 256 bits
/// plus a carry limb of at most 189; folding that limb the same way leaves
/// a value below `2^256 + 189^2` — 256 bits and a carry of at most one,
/// and in either case less than `2p` — so one conditional subtraction
/// (wrapping when the carry is set, exactly as in `add_mod`) finishes.
fn reduce_wide_prime_p(wide: &[u64; 8]) -> U256 {
    let lo = [wide[0], wide[1], wide[2], wide[3]];
    let hi = [wide[4], wide[5], wide[6], wide[7]];
    let (folded, top) = fold_prime_p(&lo, &hi);
    let (folded, carry) = fold_prime_p(&folded, &[top, 0, 0, 0]);
    let folded = U256 { limbs: folded };
    if carry != 0 || folded.cmp_u256(&PRIME_P) != Ordering::Less {
        folded.overflowing_sub(PRIME_P).0
    } else {
        folded
    }
}

/// The 256-bit prime modulus used by the signature scheme: `2^256 - 189`,
/// the largest prime below `2^256`.
pub fn prime_p() -> U256 {
    PRIME_P
}

/// The exponent group order used by the signature scheme, `p - 1`.
pub fn group_order() -> U256 {
    let (q, _) = prime_p().overflowing_sub(U256::ONE);
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let v = U256::from_be_bytes(&bytes);
        assert_eq!(v.to_be_bytes(), bytes);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = U256::from_u64(12345678901234567);
        let b = U256::from_u64(98765432109876543);
        let (sum, carry) = a.overflowing_add(b);
        assert!(!carry);
        let (diff, borrow) = sum.overflowing_sub(b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn overflow_detection() {
        let max = U256 {
            limbs: [u64::MAX; 4],
        };
        let (_, carry) = max.overflowing_add(U256::ONE);
        assert!(carry);
        let (_, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
    }

    #[test]
    fn small_modular_arithmetic() {
        let m = U256::from_u64(97);
        let a = U256::from_u64(50);
        let b = U256::from_u64(60);
        assert_eq!(a.add_mod(b, &m), U256::from_u64(13));
        assert_eq!(a.sub_mod(b, &m), U256::from_u64(87));
        assert_eq!(a.mul_mod(b, &m), U256::from_u64(3000 % 97));
        assert_eq!(a.pow_mod(&U256::from_u64(96), &m), U256::ONE); // Fermat.
    }

    #[test]
    fn widening_mul_known_value() {
        let a = U256::from_u64(u64::MAX);
        let wide = a.widening_mul(a);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1.
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1], u64::MAX - 1);
        assert!(wide[2..].iter().all(|&l| l == 0));
    }

    #[test]
    fn inverse_mod_prime() {
        let p = prime_p();
        let a = U256::from_u64(1234567891011);
        let inv = a.inv_mod_prime(&p).unwrap();
        assert_eq!(a.mul_mod(inv, &p), U256::ONE);
        assert!(U256::ZERO.inv_mod_prime(&p).is_none());
    }

    #[test]
    fn fermat_on_prime_p() {
        // a^(p-1) == 1 mod p for a not divisible by p — checks primality of
        // the chosen modulus indirectly for a couple of witnesses.
        let p = prime_p();
        let p_minus_1 = group_order();
        for a in [2u64, 3, 65537, 1_000_003] {
            assert_eq!(U256::from_u64(a).pow_mod(&p_minus_1, &p), U256::ONE);
        }
    }

    #[test]
    fn prime_p_fold_matches_long_division() {
        use rand::{Rng, SeedableRng};
        let p = prime_p();
        let check = |wide: [u64; 8]| {
            let folded = U256::reduce_wide(&wide, &p);
            assert_eq!(folded, U256::reduce_wide_bitwise(&wide, &p), "{wide:x?}");
            assert_eq!(folded.cmp_u256(&p), Ordering::Less);
        };

        // Edge values around the modulus, in the low half, the high half
        // and both; all-ones exercises the carry out of the second fold.
        let widen = |lo: U256, hi: U256| -> [u64; 8] {
            let mut wide = [0u64; 8];
            wide[..4].copy_from_slice(&lo.limbs);
            wide[4..].copy_from_slice(&hi.limbs);
            wide
        };
        let ones = U256 {
            limbs: [u64::MAX; 4],
        };
        let edges = [
            U256::ZERO,
            U256::ONE,
            p.overflowing_sub(U256::ONE).0,
            p,
            p.overflowing_add(U256::ONE).0,
            ones,
        ];
        for lo in edges {
            for hi in edges {
                check(widen(lo, hi));
            }
        }
        // The largest product `mul_mod` can form from reduced operands.
        let p_minus_1 = group_order();
        check(p_minus_1.widening_mul(p_minus_1));

        let mut rng = rand::rngs::StdRng::seed_from_u64(189);
        for _ in 0..2000 {
            check(std::array::from_fn(|_| rng.gen()));
        }
    }

    #[test]
    fn rem_reduces() {
        let m = U256::from_u64(1000);
        let v = U256::from_u64(123_456_789);
        assert_eq!(v.rem(&m), U256::from_u64(789));
    }

    #[test]
    fn random_below_is_in_range() {
        let mut rng = rand::thread_rng();
        let bound = U256::from_u64(1_000_000);
        for _ in 0..50 {
            let v = U256::random_below(&mut rng, &bound);
            assert_eq!(v.cmp_u256(&bound), Ordering::Less);
            assert!(!v.is_zero());
        }
    }

    #[test]
    fn bit_access() {
        let v = U256::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert_eq!(v.highest_bit(), Some(3));
        assert_eq!(U256::ZERO.highest_bit(), None);
    }
}
