//! Fixture: functions named through a module path and with a turbofish
//! (must PASS). `codec::decode(` calls `decode`; `mod codec` and the
//! `codec::` prefix are paths, so the function `codec` lives by its own
//! turbofish call, `codec::<u8>()`.

mod codec {
    pub fn decode(bytes: &[u8]) -> usize {
        bytes.len()
    }
}

pub fn codec<T: Default>() -> T {
    T::default()
}

pub fn main() {
    let _ = codec::decode(&[codec::<u8>()]);
}
