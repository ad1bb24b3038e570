//! Rule `wall-clock`: `Instant::now()` / `SystemTime` are banned
//! everywhere. Simulated time comes from the event clock; a wall-clock
//! read either leaks real time into a `Record` or tempts someone to. The
//! two deliberate timing sites — the `perf` benchmark's clock and one
//! test's 50 K-host build bar — carry justified `lint:allow` annotations
//! instead.

use super::{Context, Rule, SourceFile};
use crate::diag::Diagnostic;

pub struct WallClock;

impl Rule for WallClock {
    fn name(&self) -> &'static str {
        "wall-clock"
    }

    fn check(&self, file: &SourceFile, _ctx: &Context, out: &mut Vec<Diagnostic>) {
        let s = &file.sig;
        for k in 0..s.len() {
            if file.test_code(k) {
                continue;
            }
            let t = file.tok(k);
            if t.is_ident("SystemTime") {
                out.push(Diagnostic::error(
                    self.name(),
                    &file.path,
                    t.line,
                    "`SystemTime` read; simulated time must come from the event clock".to_string(),
                ));
            }
            if t.is_ident("Instant")
                && k + 2 < s.len()
                && file.tok(k + 1).is_punct("::")
                && file.tok(k + 2).is_ident("now")
            {
                out.push(Diagnostic::error(
                    self.name(),
                    &file.path,
                    t.line,
                    "`Instant::now()` read; simulated time must come from the event clock"
                        .to_string(),
                ));
            }
        }
    }
}
