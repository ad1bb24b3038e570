//! Fixture: a public function and a public inherent method nobody names
//! (must FAIL with two `orphan-pub-fn` findings). A mention in a comment
//! or a string — never_called, "unused_knob" — is not a caller.

pub struct Queue {
    limit: usize,
}

impl Queue {
    pub fn new() -> Queue {
        Queue { limit: 8 }
    }

    pub fn unused_knob(mut self, limit: usize) -> Queue {
        self.limit = limit;
        self
    }
}

pub fn never_called() -> &'static str {
    "unused_knob"
}

pub fn build() -> Queue {
    Queue::new()
}

pub const fn entry() -> usize {
    build().limit
}

pub fn main() {
    let _ = entry();
}
