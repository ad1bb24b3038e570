//! The topology vocabulary of the experiment layer: re-exports of the
//! `netfence-topo` crate, where every builder (classic dumbbell / parking
//! lot, generated transit-stub and multi-bottleneck families) lives and
//! returns one uniform [`BuiltTopo`] (§6.3 of the paper).

pub use netfence_topo::classic::src_host_addr;
pub use netfence_topo::{Bottleneck, BuiltTopo, TopoGroup, TopoSpec};
