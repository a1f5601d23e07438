//! Amounts and prices.
//!
//! Amounts are 64-bit signed integers denominated in *stroops*
//! (1 XLM = 10⁷ stroops), matching production Stellar. Prices are exact
//! rationals `n/d` so order-book arithmetic never accumulates rounding
//! drift; conversions round in the direction that favors the *maker*
//! (the resting offer), as in `stellar-core`.

use stellar_crypto::impl_codec_struct;

/// Stroops per XLM (1 XLM = 10⁷ stroops).
pub const STROOPS_PER_XLM: i64 = 10_000_000;

/// The base transaction fee: 100 stroops = 10⁻⁵ XLM (§5.2).
pub const BASE_FEE: i64 = 100;

/// The per-entry base reserve: 0.5 XLM (§5.1).
pub const BASE_RESERVE: i64 = 5_000_000;

/// Converts whole XLM to stroops.
///
/// # Panics
///
/// Panics on overflow (amounts beyond ~922 billion XLM).
pub fn xlm(amount: i64) -> i64 {
    amount
        .checked_mul(STROOPS_PER_XLM)
        .expect("XLM amount overflow")
}

/// An exact rational price: `n` units of the buying asset per `d` units of
/// the selling asset.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct Price {
    /// Numerator (> 0).
    pub n: u32,
    /// Denominator (> 0).
    pub d: u32,
}

impl_codec_struct!(Price { n, d });

impl Price {
    /// Creates `n/d`.
    ///
    /// # Panics
    ///
    /// Panics if either component is zero (such prices are invalid on the
    /// ledger and always indicate a caller bug).
    pub fn new(n: u32, d: u32) -> Price {
        assert!(n > 0 && d > 0, "price components must be positive");
        Price { n, d }
    }

    /// One-to-one price.
    pub fn one() -> Price {
        Price { n: 1, d: 1 }
    }

    /// The reciprocal price `d/n`.
    pub fn invert(&self) -> Price {
        Price {
            n: self.d,
            d: self.n,
        }
    }

    /// The price as a float, for display and metrics only.
    pub fn as_f64(&self) -> f64 {
        f64::from(self.n) / f64::from(self.d)
    }

    /// Whether two prices `p` (selling A for B) and `q` (selling B for A)
    /// cross: `p · q ≤ 1`, i.e. the asks meet.
    pub fn crosses(&self, counter: &Price) -> bool {
        u64::from(self.n) * u64::from(counter.n) <= u64::from(self.d) * u64::from(counter.d)
    }

    /// Amount of the buying asset corresponding to selling `amount`, at
    /// this price, rounding **down** (taker receives the floor).
    ///
    /// Returns `None` on overflow.
    pub fn convert_floor(&self, amount: i64) -> Option<i64> {
        if amount < 0 {
            return None;
        }
        let v = i128::from(amount) * i128::from(self.n) / i128::from(self.d);
        i64::try_from(v).ok()
    }

    /// Like [`Price::convert_floor`] but rounding **up** (what the buyer
    /// must pay to take `amount`).
    pub fn convert_ceil(&self, amount: i64) -> Option<i64> {
        if amount < 0 {
            return None;
        }
        let num = i128::from(amount) * i128::from(self.n);
        let d = i128::from(self.d);
        let v = (num + d - 1) / d;
        i64::try_from(v).ok()
    }
}

impl PartialOrd for Price {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Price {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (u64::from(self.n) * u64::from(other.d)).cmp(&(u64::from(other.n) * u64::from(self.d)))
    }
}

impl std::fmt::Display for Price {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.n, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xlm_conversion() {
        assert_eq!(xlm(1), 10_000_000);
        assert_eq!(xlm(0), 0);
    }

    #[test]
    fn price_ordering_is_exact() {
        // 1/3 < 2/5 < 1/2, no float wobble.
        let a = Price::new(1, 3);
        let b = Price::new(2, 5);
        let c = Price::new(1, 2);
        assert!(a < b && b < c);
    }

    #[test]
    fn crossing() {
        // Selling A at 2 B/A crosses an offer selling B at 0.5 A/B exactly.
        assert!(Price::new(2, 1).crosses(&Price::new(1, 2)));
        // Selling A at 2 B/A does not cross B at 0.4 A/B (product 0.8 ≤ 1 — crosses).
        assert!(Price::new(2, 1).crosses(&Price::new(2, 5)));
        // Product 1.2 > 1: no cross.
        assert!(!Price::new(3, 1).crosses(&Price::new(2, 5)));
    }

    #[test]
    fn conversions_round_correctly() {
        let p = Price::new(1, 3); // one buying unit per 3 selling units
        assert_eq!(p.convert_floor(10), Some(3));
        assert_eq!(p.convert_ceil(10), Some(4));
        assert_eq!(p.convert_floor(0), Some(0));
        assert_eq!(p.convert_floor(-1), None);
    }

    #[test]
    fn conversion_overflow_guard() {
        let p = Price::new(u32::MAX, 1);
        assert_eq!(p.convert_floor(i64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_price_panics() {
        let _ = Price::new(0, 1);
    }
}
