//! Fixed-limb unrolled kernels for wide operations.
//!
//! The generic `*_into` operations in [`ops`](crate::Bits) loop over a
//! runtime limb count, paying a bounds check and a loop-carried branch per
//! limb. The simulator's bytecode lowering knows each operand's width at
//! lowering time, so for the common wide classes — 2 limbs (65..=128 bits)
//! and 4 limbs (129..=256 bits) — it selects one of these kernels instead.
//! Monomorphizing over `L` lets the compiler emit straight-line code over
//! `[u64; L]` views with a single bounds check per operand.
//!
//! Every kernel computes bit-for-bit the same result as its generic
//! counterpart (`add_into`, `sub_into`, the bitwise `*_into`s,
//! `cmp_unsigned`); the differential suite in `hwdbg-sim` holds the
//! backends to that. Callers guarantee both operands share a width `w`
//! with `64 < w` and `limbs_for(w) == L`; that contract is checked in
//! debug builds.

use crate::{limbs_for, Bits};
use std::cmp::Ordering;

/// Fixed-length view of an operand's limbs.
#[inline]
fn arr<const L: usize>(b: &Bits) -> &[u64; L] {
    match b.limbs()[..L].try_into() {
        Ok(view) => view,
        // Callers uphold `limbs_for(width) == L` (checked in `check`).
        Err(_) => unreachable!("fixed-kernel limb count"),
    }
}

/// Fixed-length mutable view of an output's limbs (post `set_zero`).
#[inline]
fn arr_mut<const L: usize>(b: &mut Bits) -> &mut [u64; L] {
    match (&mut b.limbs_mut()[..L]).try_into() {
        Ok(view) => view,
        Err(_) => unreachable!("fixed-kernel limb count"),
    }
}

#[inline]
fn check<const L: usize>(a: &Bits, b: &Bits) {
    debug_assert_eq!(a.width(), b.width(), "fixed kernels need equal widths");
    debug_assert!(a.width() > 64, "fixed kernels are wide-only");
    debug_assert_eq!(limbs_for(a.width()), L, "limb count mismatch");
}

/// `out = a + b` with an unrolled `L`-limb carry chain.
#[inline]
pub fn add_into<const L: usize>(a: &Bits, b: &Bits, out: &mut Bits) {
    check::<L>(a, b);
    let w = a.width();
    out.set_zero(w);
    let (a, b) = (arr::<L>(a), arr::<L>(b));
    let o = arr_mut::<L>(out);
    let mut carry = 0u64;
    for i in 0..L {
        let (s1, c1) = a[i].overflowing_add(b[i]);
        let (s2, c2) = s1.overflowing_add(carry);
        o[i] = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    out.mask_top();
}

/// `out = a - b` with an unrolled `L`-limb borrow chain.
#[inline]
pub fn sub_into<const L: usize>(a: &Bits, b: &Bits, out: &mut Bits) {
    check::<L>(a, b);
    let w = a.width();
    out.set_zero(w);
    let (a, b) = (arr::<L>(a), arr::<L>(b));
    let o = arr_mut::<L>(out);
    let mut borrow = 0u64;
    for i in 0..L {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        o[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    out.mask_top();
}

macro_rules! fixed_bitwise {
    ($(#[$meta:meta])* $name:ident, $op:tt) => {
        $(#[$meta])*
        #[inline]
        pub fn $name<const L: usize>(a: &Bits, b: &Bits, out: &mut Bits) {
            check::<L>(a, b);
            let w = a.width();
            out.set_zero(w);
            let (a, b) = (arr::<L>(a), arr::<L>(b));
            let o = arr_mut::<L>(out);
            for i in 0..L {
                o[i] = a[i] $op b[i];
            }
            out.mask_top();
        }
    };
}

fixed_bitwise!(
    /// `out = a & b`, unrolled over `L` limbs.
    and_into, &
);
fixed_bitwise!(
    /// `out = a | b`, unrolled over `L` limbs.
    or_into, |
);
fixed_bitwise!(
    /// `out = a ^ b`, unrolled over `L` limbs.
    xor_into, ^
);

/// Unsigned comparison over exactly `L` limbs, high limb first.
#[inline]
pub fn cmp_unsigned<const L: usize>(a: &Bits, b: &Bits) -> Ordering {
    check::<L>(a, b);
    let (a, b) = (arr::<L>(a), arr::<L>(b));
    for i in (0..L).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn rand_bits(rng: &mut SplitMix64, w: u32) -> Bits {
        let mut b = Bits::zero(w);
        for i in 0..w {
            b.set_bit(i, rng.next_bool());
        }
        b
    }

    /// Every fixed kernel must agree with its generic counterpart at the
    /// width extremes of its limb class, on dense random operands.
    #[test]
    fn fixed_matches_generic() {
        let mut rng = SplitMix64::new(0xF1C5);
        for &(w, limbs) in &[(65u32, 2usize), (128, 2), (193, 4), (224, 4), (256, 4)] {
            for _ in 0..64 {
                let a = rand_bits(&mut rng, w);
                let b = rand_bits(&mut rng, w);
                let mut want = Bits::zero(w);
                let mut got = Bits::zero(w);
                macro_rules! case {
                    ($generic:ident, $fixed:ident) => {
                        a.$generic(&b, &mut want);
                        match limbs {
                            2 => $fixed::<2>(&a, &b, &mut got),
                            _ => $fixed::<4>(&a, &b, &mut got),
                        }
                        assert_eq!(want, got, "{} at width {w}", stringify!($fixed));
                    };
                }
                case!(add_into, add_into);
                case!(sub_into, sub_into);
                case!(and_into, and_into);
                case!(or_into, or_into);
                case!(xor_into, xor_into);
                let want = a.cmp_unsigned(&b);
                let got = match limbs {
                    2 => cmp_unsigned::<2>(&a, &b),
                    _ => cmp_unsigned::<4>(&a, &b),
                };
                assert_eq!(want, got, "cmp_unsigned at width {w}");
            }
        }
    }
}
