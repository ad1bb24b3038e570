//! Fixture: wall-clock reads without a justified allow (must FAIL — the
//! `SystemTime` import, the `Instant::now` call and the `SystemTime::now`
//! call each produce a finding).

use std::time::{Instant, SystemTime};

pub fn stamp() -> u128 {
    let t0 = Instant::now();
    let _ = t0.elapsed();
    SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
}
