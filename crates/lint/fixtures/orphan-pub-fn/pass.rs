//! Fixture: every public function is named somewhere else (must PASS) —
//! by a caller, by a test, or by being a trait method, which cannot be
//! `pub` and is never an orphan; `main` is exempt. A setter named like
//! its field passes once something calls it (`.side(` is a call, `.side`
//! alone is the field).

pub trait Shape {
    fn area(&self) -> u64;
}

pub struct Square {
    side: u64,
}

impl Shape for Square {
    fn area(&self) -> u64 {
        self.side * self.side
    }
}

impl Square {
    pub fn unit() -> Square {
        Square { side: 1 }
    }

    pub fn side(mut self, to: u64) -> Square {
        self.side = to;
        self
    }

    pub fn doubled(&self) -> Square {
        Square { side: self.side * 2 }
    }
}

pub fn total() -> u64 {
    Square::unit().side(1).doubled().side
}

pub fn main() {}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_is_a_caller() {
        assert_eq!(super::total(), 2);
    }
}
