//! Fixture: the fixed-hasher alias is still a hash collection (must FAIL —
//! one finding per iteration site, none for the keyed lookup). Its order
//! repeats from run to run but depends on capacity and insert history, so
//! it must not reach an export any more than `HashMap`'s may.

use netfence_telemetry::IdMap;

pub struct Limiters {
    pub rates: IdMap<u32, u64>,
}

impl Limiters {
    pub fn rows(&self) -> Vec<(u32, u64)> {
        self.rates.iter().map(|(src, rate)| (*src, *rate)).collect()
    }

    pub fn total(&self) -> u64 {
        let mut sum = 0;
        for (_, rate) in &self.rates {
            sum += rate;
        }
        sum
    }

    /// Keyed access never fires.
    pub fn rate_of(&self, src: u32) -> Option<u64> {
        self.rates.get(&src).copied()
    }
}
