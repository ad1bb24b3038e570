//! Fixture: an `IdMap` kept keyed-only, and iterated only under a justified
//! allow that sorts before anyone sees the order (must PASS).

use netfence_telemetry::IdMap;

pub struct Limiters {
    pub rates: IdMap<u32, u64>,
}

impl Limiters {
    pub fn rate_of(&self, src: u32) -> Option<u64> {
        self.rates.get(&src).copied()
    }

    pub fn sorted_rows(&self) -> Vec<(u32, u64)> {
        // lint:allow(nondeterministic-iteration): collected then sorted on the next line — callers only ever see key order
        let mut rows: Vec<(u32, u64)> = self.rates.iter().map(|(s, r)| (*s, *r)).collect();
        rows.sort_unstable();
        rows
    }
}
