//! Fixture: a public function and two public inherent methods nobody
//! names (must FAIL with three `orphan-pub-fn` findings). A mention in a
//! comment or a string — never_called, "unused_knob" — is not a caller,
//! and neither is the field a setter is named after: `limit` occurs as a
//! declaration, a struct-literal key and a field access, never as a call.

pub struct Queue {
    limit: usize,
}

impl Queue {
    pub fn new() -> Queue {
        Queue { limit: 8 }
    }

    pub fn unused_knob(mut self, bytes: usize) -> Queue {
        self.limit = bytes;
        self
    }

    pub fn limit(&mut self, bytes: usize) {
        self.limit = bytes;
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
