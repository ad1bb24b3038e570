//! The benchmark's one source of host time. Every `wall_s`, `setup_s` and
//! ns/op figure is host time read here; simulated time never comes from
//! this module and nothing read here enters a `Record`.

use std::time::Instant;

/// The current host instant.
pub fn now() -> Instant {
    // lint:allow(wall-clock): the benchmark measures host time by definition; this is its single read site and the value never reaches a Record
    Instant::now()
}

/// Run `f`, returning its result and the host seconds it took.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
