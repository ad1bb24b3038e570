//! Fixture: an accessor named like its module, with no caller (must FAIL
//! with one `orphan-pub-fn` finding). `mod monitor` declares the module,
//! `crate::monitor::{..}` and `crate::monitor::poll` are paths through it,
//! and the field `monitor` is a field: none of them calls `Link::monitor`.

mod monitor;

use crate::monitor::{Monitor, MonitorEvent};

pub struct Link {
    monitor: Monitor,
}

impl Link {
    pub fn new() -> Link {
        Link { monitor: Monitor }
    }

    pub fn tick(&mut self) -> MonitorEvent {
        crate::monitor::poll(&mut self.monitor)
    }

    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }
}

pub fn main() {
    let _ = Link::new().tick();
}
