//! `GF(2^m)` arithmetic via exp/log tables, parameterized at runtime.
//!
//! The unique-list-recoverable code wants small symbol alphabets (the
//! paper's `Z` is polylogarithmic), so the field width is a tuning knob:
//! `GF(2^4)` keeps the inner-oracle domain tiny, `GF(2^8)` offers longer
//! blocks. Tables are built once per field (at most 256 entries).

/// Primitive (irreducible) polynomials for `GF(2^m)`, `m = 3..=8`,
/// written with the implicit leading bit (e.g. `0b1011` = x³+x+1).
const PRIMITIVE_POLYS: [(u32, u32); 6] = [
    (3, 0b1011),
    (4, 0b1_0011),
    (5, 0b10_0101),
    (6, 0b100_0011),
    (7, 0b1000_1001),
    (8, 0b1_0001_1101),
];

/// A binary extension field `GF(2^m)` with table-based arithmetic.
///
/// Elements are `u16` values in `[0, 2^m)`. The generator is `x` (value 2),
/// which is primitive for all the polynomials above.
#[derive(Debug, Clone)]
pub struct Gf {
    m: u32,
    size: u16,
    exp: Vec<u16>,
    log: Vec<u16>,
}

impl Gf {
    /// Construct `GF(2^m)` for `3 <= m <= 8`.
    pub fn new(m: u32) -> Self {
        let &(_, poly) = PRIMITIVE_POLYS
            .iter()
            .find(|&&(mm, _)| mm == m)
            .unwrap_or_else(|| panic!("unsupported field width m = {m} (need 3..=8)"));
        let size = 1u16 << m;
        let order = size - 1;
        let mut exp = vec![0u16; 2 * order as usize];
        let mut log = vec![0u16; size as usize];
        let mut v: u32 = 1;
        for i in 0..order {
            exp[i as usize] = v as u16;
            log[v as usize] = i;
            v <<= 1;
            if v & u32::from(size) != 0 {
                v ^= poly;
            }
        }
        // Duplicate for index-overflow-free multiplication.
        for i in 0..order {
            exp[(order + i) as usize] = exp[i as usize];
        }
        Self { m, size, exp, log }
    }

    /// Field width `m` (symbols are `m` bits).
    pub fn bits(&self) -> u32 {
        self.m
    }

    /// Number of field elements `2^m`.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Multiplicative order `2^m − 1` (max Reed–Solomon block length).
    pub fn order(&self) -> u16 {
        self.size - 1
    }

    /// The primitive element `α = x`.
    pub fn alpha(&self) -> u16 {
        2
    }

    /// `α^i` for `0 <= i < order`.
    pub fn alpha_pow(&self, i: u16) -> u16 {
        self.exp[(i % self.order()) as usize]
    }

    /// Addition = XOR (characteristic 2).
    #[inline]
    pub fn add(&self, a: u16, b: u16) -> u16 {
        debug_assert!(a < self.size && b < self.size);
        a ^ b
    }

    /// Subtraction = addition in characteristic 2.
    #[inline]
    pub fn sub(&self, a: u16, b: u16) -> u16 {
        self.add(a, b)
    }

    /// Multiplication via log/exp tables.
    #[inline]
    pub fn mul(&self, a: u16, b: u16) -> u16 {
        debug_assert!(a < self.size && b < self.size);
        if a == 0 || b == 0 {
            return 0;
        }
        let idx = u32::from(self.log[a as usize]) + u32::from(self.log[b as usize]);
        self.exp[idx as usize]
    }

    /// Multiplicative inverse; panics on zero.
    #[inline]
    pub fn inv(&self, a: u16) -> u16 {
        assert!(a != 0, "zero has no inverse in GF(2^{})", self.m);
        let order = u32::from(self.order());
        self.exp[(order - u32::from(self.log[a as usize])) as usize]
    }

    /// Division `a / b`; panics when `b = 0`.
    #[inline]
    pub fn div(&self, a: u16, b: u16) -> u16 {
        self.mul(a, self.inv(b))
    }

    /// Exponentiation `a^e`.
    pub fn pow(&self, a: u16, e: u32) -> u16 {
        if a == 0 {
            return if e == 0 { 1 } else { 0 };
        }
        let order = u32::from(self.order());
        let idx = (u64::from(self.log[a as usize]) * u64::from(e) % u64::from(order)) as usize;
        self.exp[idx]
    }

    /// Evaluate the polynomial with coefficients `coeffs` (constant term
    /// first) at `x` (Horner).
    pub fn poly_eval<I>(&self, coeffs: I, x: u16) -> u16
    where
        I: IntoIterator<Item = u16>,
        I::IntoIter: DoubleEndedIterator,
    {
        coeffs
            .into_iter()
            .rev()
            .fold(0, |acc, c| self.add(self.mul(acc, x), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_supported_widths_construct() {
        for m in 3..=8u32 {
            let f = Gf::new(m);
            assert_eq!(f.size(), 1 << m);
        }
    }

    #[test]
    #[should_panic(expected = "unsupported field width")]
    fn rejects_m_2() {
        let _ = Gf::new(2);
    }

    #[test]
    fn generator_has_full_order() {
        for m in 3..=8u32 {
            let f = Gf::new(m);
            let mut seen = std::collections::HashSet::new();
            let mut v = 1u16;
            for _ in 0..f.order() {
                assert!(seen.insert(v), "generator order too small in GF(2^{m})");
                v = f.mul(v, f.alpha());
            }
            assert_eq!(v, 1, "generator order wrong");
        }
    }

    #[test]
    fn inverse_roundtrip_exhaustive() {
        for m in [4u32, 8] {
            let f = Gf::new(m);
            for a in 1..f.size() {
                assert_eq!(f.mul(a, f.inv(a)), 1, "GF(2^{m}): {a}");
            }
        }
    }

    #[test]
    fn gf256_known_products() {
        // Classic AES-field (0x11D variant) sanity values.
        let f = Gf::new(8);
        assert_eq!(f.mul(0x02, 0x80), 0x1D); // x * x^7 = x^8 = poly tail
        assert_eq!(f.mul(3, 1), 3);
        assert_eq!(f.mul(0, 200), 0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = Gf::new(5);
        for a in 0..f.size() {
            let mut acc = 1u16;
            for e in 0..10u32 {
                assert_eq!(f.pow(a, e), acc, "a={a} e={e}");
                acc = f.mul(acc, a);
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let f = Gf::new(4);
        // p(x) = 3 + 5x + 7x² at x = 2: compute manually.
        let want = f.add(3, f.add(f.mul(5, 2), f.mul(7, f.mul(2, 2))));
        assert_eq!(f.poly_eval([3, 5, 7], 2), want);
        assert_eq!(f.poly_eval([], 9), 0);
    }

    proptest! {
        #[test]
        fn field_axioms(m in 3u32..=8, a in 0u16..256, b in 0u16..256, c in 0u16..256) {
            let f = Gf::new(m);
            let mask = f.size() - 1;
            let (a, b, c) = (a & mask, b & mask, c & mask);
            // Commutativity, associativity, distributivity.
            prop_assert_eq!(f.mul(a, b), f.mul(b, a));
            prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
            prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
            // Identities.
            prop_assert_eq!(f.add(a, 0), a);
            prop_assert_eq!(f.mul(a, 1), a);
            prop_assert_eq!(f.add(a, a), 0);
            if b != 0 {
                prop_assert_eq!(f.mul(f.div(a, b), b), a);
            }
        }
    }
}
