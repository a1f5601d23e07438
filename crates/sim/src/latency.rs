//! Link-latency models.
//!
//! One-way delays are sampled per message from a uniform band
//! `[base, base + jitter]`, seeded so runs are reproducible. Presets match
//! the environments the paper measures: same-region EC2 (§7.3, sub-ms
//! RTTs at 10 Gbps) and the public internet topology of §7.2 (tens of ms
//! between data centers).

use rand::Rng;

/// A one-way link-delay distribution.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Minimum one-way delay (ms).
    pub base_ms: u64,
    /// Additional uniform jitter (ms).
    pub jitter_ms: u64,
}

impl LatencyModel {
    /// Same-region EC2 (the §7.3 controlled experiments). Raw RTTs are
    /// sub-millisecond at 10 Gbps, but the effective per-message delay the
    /// paper measures includes container scheduling and processing; a
    /// 5–20 ms one-way band reproduces their latency scale.
    pub fn lan() -> LatencyModel {
        LatencyModel {
            base_ms: 5,
            jitter_ms: 15,
        }
    }

    /// Public-internet WAN (the §7.2 production network): ~30–110 ms.
    pub fn wan() -> LatencyModel {
        LatencyModel {
            base_ms: 30,
            jitter_ms: 80,
        }
    }

    #[cfg(test)]
    /// Zero-delay (pure protocol-logic tests).
    pub fn instant() -> LatencyModel {
        LatencyModel {
            base_ms: 0,
            jitter_ms: 0,
        }
    }

    /// Samples a one-way delay in ms.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.jitter_ms == 0 {
            self.base_ms
        } else {
            self.base_ms + rng.gen_range(0..=self.jitter_ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_band() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel {
            base_ms: 10,
            jitter_ms: 5,
        };
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!((10..=15).contains(&s));
        }
    }

    #[test]
    fn instant_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(LatencyModel::instant().sample(&mut rng), 0);
    }

    #[test]
    fn seeded_sequences_reproduce() {
        let m = LatencyModel::wan();
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
