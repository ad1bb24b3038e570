//! Fixture: every public function is named somewhere else (must PASS) —
//! by a caller, by a test, or by being a trait method, which cannot be
//! `pub` and is never an orphan; `main` is exempt.

pub trait Shape {
    fn area(&self) -> u64;
}

pub struct Square(pub u64);

impl Shape for Square {
    fn area(&self) -> u64 {
        self.0 * self.0
    }
}

impl Square {
    pub fn unit() -> Square {
        Square(1)
    }

    pub fn doubled(&self) -> Square {
        Square(self.0 * 2)
    }
}

pub fn total() -> u64 {
    Square::unit().doubled().0
}

pub fn main() {}

#[cfg(test)]
mod tests {
    #[test]
    fn a_test_is_a_caller() {
        assert_eq!(super::total(), 2);
    }
}
