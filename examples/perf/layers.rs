//! The per-layer ns/op table: microbenchmarks of the stations a packet (or a
//! set-up) crosses, timed from outside through the crates' public functions.
//! Fixtures follow `crates/bench/benches/fig7_microbench.rs`.
//!
//! Every figure is the median over batches; a batch repeats the operation
//! until it lasts at least a millisecond. Operations that take milliseconds
//! themselves run once per batch, and stop early once they have used their
//! time budget, so the whole table stays a few seconds long.

use std::hint::black_box;

use netfence::core::bottleneck::BottleneckLink;
use netfence::core::config::Config;
use netfence::core::feedback;
use netfence::core::prelude::*;
use netfence::core::types::nanos_to_secs;
use netfence::crypto::{
    full_mesh_exchange, Aes128, AsKeyAgent, AsKeyTable, Cmac, MacInput, TimeVaryingSecret,
};
use netfence::ctrl::prelude::PolicyStore;
use netfence::experiments::prelude::{DefenseContext, SuppressionGroup, TopoSpec};
use netfence::experiments::topo_scale::transit_stub_spec;
use netfence::sim::prelude::{
    ChannelClass, Classifier, DropTail, DrrQueue, DualChannelQueue, HierDrrQueue, NodeId, Packet,
    PriorityLevelQueue, QueueDisc, RedQueue, SimRng,
};
use netfence::systems::NetFenceExt;

use crate::clock;
use crate::report::Metric;
use crate::stat::Summary;
use crate::trace::Tracer;
use crate::workloads::{transit_stub_of, Workload};

/// Batches per metric in a full run / in `perf check`.
pub const BATCHES: usize = 30;
pub const CHECK_BATCHES: usize = 3;

/// Shortest batch worth timing.
const MIN_BATCH_SECS: f64 = 1e-3;
/// A once-per-batch operation stops after this much time (but never before
/// `MIN_SLOW_BATCHES` batches).
const SLOW_BUDGET_SECS: f64 = 0.3;
const MIN_SLOW_BATCHES: usize = 3;

struct Table<'a> {
    batches: usize,
    tracer: &'a mut Tracer,
    out: Vec<Metric>,
}

impl Table<'_> {
    /// Nanoseconds per call of `op`, which receives a running call index.
    fn per_op(&mut self, name: &str, mut op: impl FnMut(u64)) {
        let batches = self.batches;
        let (samples, _) = self.tracer.span(&format!("layer.{name}"), |_| {
            let mut calls = 0u64;
            let mut run = |n: u64| {
                let ((), secs) = clock::time(|| {
                    for i in calls..calls + n {
                        op(i);
                    }
                });
                calls += n;
                secs
            };
            let mut n = 1u64;
            while run(n) < MIN_BATCH_SECS {
                n *= 2;
            }
            (0..batches).map(|_| run(n) * 1e9 / n as f64).collect::<Vec<f64>>()
        });
        self.out.push(Metric::median(name, "ns", Summary::of(&samples)));
    }

    /// Time of one call of `op` on a fresh `setup()` value (set-up untimed),
    /// in `unit` (`scale` units per second).
    fn per_call<S, R>(
        &mut self,
        name: &str,
        unit: &str,
        scale: f64,
        mut setup: impl FnMut() -> S,
        mut op: impl FnMut(S) -> R,
    ) {
        let batches = self.batches;
        let (samples, _) = self.tracer.span(&format!("layer.{name}"), |_| {
            let mut samples = Vec::with_capacity(batches);
            let mut spent = 0.0;
            while samples.len() < batches
                && (samples.len() < MIN_SLOW_BATCHES || spent < SLOW_BUDGET_SECS)
            {
                let input = setup();
                let (out, secs) = clock::time(|| op(input));
                black_box(out);
                spent += secs;
                samples.push(secs * scale);
            }
            samples
        });
        self.out.push(Metric::median(name, unit, Summary::of(&samples)));
    }

    fn exact(&mut self, name: &str, unit: &str, value: f64) {
        self.out.push(Metric::exact(name, unit, value));
    }
}

const US: f64 = 1e6;
const MS: f64 = 1e3;

/// An access router (AS 1), a bottleneck link (AS 2) and the keys they share.
fn fixture() -> (AccessRouter, BottleneckLink, FlowPair) {
    let agents = vec![AsKeyAgent::new(1, 101), AsKeyAgent::new(2, 202)];
    let mut tables = full_mesh_exchange(&agents);
    let t1 = tables.remove(0);
    let t2 = tables.remove(0);
    let mut access = AccessRouter::new(Config::default(), AsId(1), [9u8; 16], t1);
    access.register_link_as(LinkId(500), AsId(2));
    let bl = BottleneckLink::new(LinkId(500), 10_000_000, t2, Config::default(), 0);
    (access, bl, FlowPair::new(HostId(0x0a00_0001), HostId(0x1400_0001)))
}

/// Force the bottleneck into a monitoring cycle; returns the time it took.
fn drive_into_mon(bl: &mut BottleneckLink) -> Nanos {
    let mut now = 0;
    while !bl.in_mon() {
        now += SEC;
        for i in 0..200 {
            bl.record_regular(1500, i % 5 == 0);
        }
        bl.tick(now);
    }
    now
}

/// The nop feedback a fresh request from `flow` gets stamped with.
fn fresh_nop(access: &mut AccessRouter, now: Nanos, flow: FlowPair) -> Feedback {
    let mut h = NetFenceHeader::request(6, 0, Feedback::Nop { ts: 0, token: 0 });
    access.process_outbound(now, flow, &mut h, 92);
    h.presented
}

/// An access router holding `n` live (sender, bottleneck) limiters, with the
/// valid feedback each sender would present next.
fn limited_router(n: usize) -> (AccessRouter, Vec<(FlowPair, Feedback)>, Nanos) {
    let (mut access, mut bl, _) = fixture();
    let now = drive_into_mon(&mut bl);
    let mut live = Vec::with_capacity(n);
    for i in 0..n {
        let flow = FlowPair::new(HostId(0x0a00_0000 + i as u32), HostId(0x1400_0001));
        let mut fb = fresh_nop(&mut access, now, flow);
        bl.update_feedback(now, flow, AsId(1), &mut fb);
        let mut h = NetFenceHeader::regular(6, fb, None);
        access.process_outbound(now, flow, &mut h, 1500);
        live.push((flow, h.presented));
    }
    assert_eq!(access.limiter_count(), n, "every sender got its limiter");
    (access, live, now)
}

fn packet(i: u64) -> Packet {
    let mut p = Packet::udp(0, (i % 1000) as u32, 999, 1500, 0);
    p.src_as = 1 + (i % 10) as u32;
    p
}

/// One enqueue + one dequeue per op on `q`, pre-filled with `depth` packets.
fn queue_op(table: &mut Table, name: &str, mut q: impl QueueDisc, depth: u64) {
    for i in 0..depth {
        q.enqueue(0, packet(i));
    }
    table.per_op(name, |i| {
        black_box(q.enqueue(i, packet(i)));
        black_box(q.dequeue(i));
    });
}

/// Run the whole table. `small` divides the big fixtures by ten
/// (`perf check`); metric names keep their nominal sizes.
pub fn run(seed: u64, batches: usize, small: bool, tracer: &mut Tracer) -> Vec<Metric> {
    let div = if small { 10 } else { 1 };
    let mut t = Table { batches, tracer, out: Vec::new() };
    let key = [0x42u8; 16];
    let msg = [0xabu8; 48];

    // --- crypto ---
    let aes = Aes128::new(&key);
    let mut block = [7u8; 16];
    t.per_op("crypto.aes_encrypt_block_ns", |_| {
        aes.encrypt_block(&mut block);
        black_box(&block);
    });
    let cmac = Cmac::new(&key);
    t.per_op("crypto.cmac_mac32_1blk_ns", |_| {
        black_box(cmac.mac32(black_box(&msg[..16])));
    });
    t.per_op("crypto.cmac_mac32_3blk_ns", |_| {
        black_box(cmac.mac32(black_box(&msg[..48])));
    });
    let capability = b"capability:12345678";
    let tag = cmac.mac32(capability);
    t.per_op("crypto.cmac_verify32_ns", |_| {
        black_box(cmac.verify32(black_box(capability), black_box(tag)));
    });
    let mut ka = TimeVaryingSecret::new([9u8; 16]);
    t.per_op("crypto.secret_mac32_ns", |i| {
        black_box(ka.mac32(SEC + i, black_box(&msg[..20])));
    });
    t.per_op("crypto.macinput_build_ns", |i| {
        let mut m = MacInput::new("nf-nop");
        m.push_u32(i as u32).push_u32(0x1400_0001).push_u32(17).push_u8(0);
        black_box(m.as_bytes());
    });
    t.per_op("crypto.cmac_new_ns", |_| {
        black_box(Cmac::new(black_box(&key)));
    });
    let agents: Vec<AsKeyAgent> =
        (1..=64).map(|asn| AsKeyAgent::new(asn, 1000 + asn as u64)).collect();
    t.per_call(
        "crypto.keyexchange_full_mesh_64_us",
        "us",
        US,
        || (),
        |()| full_mesh_exchange(&agents),
    );

    // --- core: access router ---
    {
        let (mut access, _, flow) = fixture();
        t.per_op("core.access_request_ns", |i| {
            let mut h = NetFenceHeader::request(17, 0, Feedback::Nop { ts: 0, token: 0 });
            black_box(access.process_outbound(SEC + i, flow, &mut h, 92));
        });
        let nop = fresh_nop(&mut access, SEC, flow);
        t.per_op("core.access_regular_nop_ns", |_| {
            let mut h = NetFenceHeader::regular(6, nop, None);
            black_box(access.process_outbound(SEC, flow, &mut h, 1500));
        });
    }
    for (name, n) in [
        ("core.access_regular_limited_16_ns", 16),
        ("core.access_regular_limited_10k_ns", 10_000 / div),
    ] {
        // Each sender returns every 100 ms of simulated time — inside the
        // feedback expiry, and slow enough for its 200 kbps bucket to pass
        // the packet — so the op is validate + AIMD observe + bucket + stamp
        // on a table of `n` limiters visited round-robin.
        let (mut access, mut live, mut now) = limited_router(n);
        let step = (100 * MILLI / n as u64).max(1);
        t.per_op(name, |i| {
            let k = (i % n as u64) as usize;
            now += step;
            let (flow, fb) = live[k];
            let mut h = NetFenceHeader::regular(6, fb, None);
            let verdict = access.process_outbound(now, flow, &mut h, 1500);
            if !matches!(verdict, AccessVerdict::Drop(_)) {
                live[k].1 = h.presented;
            }
            black_box(verdict);
        });
        if n > 16 {
            t.per_call(
                "core.access_tick_10k_us",
                "us",
                US,
                || (),
                |()| {
                    now += 2 * SEC;
                    access.tick(now)
                },
            );
        }
    }

    // --- core: bottleneck and feedback ---
    {
        let (mut access, mut bl, flow) = fixture();
        let now = drive_into_mon(&mut bl);
        let nop = fresh_nop(&mut access, now, flow);
        t.per_op("core.bottleneck_update_mon_ns", |_| {
            let mut fb = nop;
            black_box(bl.update_feedback(now, flow, AsId(1), &mut fb));
        });
        let mut quiet =
            BottleneckLink::new(LinkId(501), 10_000_000, AsKeyTable::new(), Config::default(), 0);
        t.per_op("core.bottleneck_update_idle_ns", |_| {
            let mut fb = nop;
            black_box(quiet.update_feedback(now, flow, AsId(1), &mut fb));
        });

        let mut ka = TimeVaryingSecret::new([9u8; 16]);
        let kai = Cmac::new(&[5u8; 16]);
        t.per_op("core.feedback_stamp_nop_ns", |i| {
            black_box(feedback::stamp_nop(&mut ka, now + i, flow));
        });
        let prior = feedback::stamp_nop(&mut ka, now, flow);
        t.per_op("core.feedback_stamp_decr_ns", |_| {
            black_box(feedback::stamp_decr(&kai, flow, LinkId(500), black_box(&prior)));
        });
        // The attack-time case: validating L-down recomputes token_nop under
        // the router's secret, then the Eq. 3 MAC under the AS pair key.
        let decr =
            feedback::stamp_decr(&kai, flow, LinkId(500), &prior).expect("nop converts to L-down");
        assert!(feedback::validate(&decr, &mut ka, |_| Some(&kai), now, flow, 4 * SEC).is_ok());
        t.per_op("core.feedback_validate_ns", |_| {
            let verdict =
                feedback::validate(black_box(&decr), &mut ka, |_| Some(&kai), now, flow, 4 * SEC);
            let _ = black_box(verdict);
        });

        let header = NetFenceHeader::regular(6, decr, Some(prior));
        t.per_op("core.header_encode_ns", |_| {
            black_box(black_box(&header).encode());
        });
        let wire = header.encode();
        let now_secs = nanos_to_secs(now);
        assert!(NetFenceHeader::decode(&wire, now_secs).is_ok());
        t.per_op("core.header_decode_ns", |_| {
            let _ = black_box(NetFenceHeader::decode(black_box(&wire), now_secs));
        });

        let mut carried = Packet::udp(0, 1, 2, 1500, 0);
        carried.ext = Some(Box::new(NetFenceExt::new(header)));
        t.per_op("sim.packet_clone_ext_ns", |_| {
            black_box(black_box(&carried).clone());
        });
    }

    // --- sim: queue disciplines ---
    queue_op(&mut t, "sim.queue_droptail_ns", DropTail::new(1 << 20), 64);
    queue_op(&mut t, "sim.queue_red_ns", RedQueue::for_capacity(10_000_000, seed), 32);
    queue_op(
        &mut t,
        "sim.queue_drr_1k_ns",
        DrrQueue::new(Classifier::BySource, 1500, 30_000),
        1000,
    );
    queue_op(&mut t, "sim.queue_hierdrr_ns", HierDrrQueue::new(1500, 30_000), 1000);
    {
        let mut q = PriorityLevelQueue::new(1 << 20);
        let leveled = |i: u64| {
            let mut p = packet(i);
            p.priority = (i % 4) as u8;
            p
        };
        for i in 0..64 {
            q.enqueue(0, leveled(i));
        }
        t.per_op("sim.queue_priority_ns", |i| {
            black_box(q.enqueue(i, leveled(i)));
            black_box(q.dequeue(i));
        });
    }
    {
        // The three-channel queue as `NetFenceDefense` deploys it on a
        // 10 Mbps link: RED regular channel, priority request channel,
        // drop-tail legacy. One op is one packet time (1.2 ms simulated),
        // every eighth packet a 92-byte request, so the request channel's
        // token bucket refills faster than it drains.
        let mut q = DualChannelQueue::new(
            Box::new(RedQueue::for_capacity(10_000_000, seed)),
            Box::new(PriorityLevelQueue::new(12_500)),
            62_500,
            10_000_000,
            0.05,
        );
        let mixed = |i: u64| {
            let mut p = packet(i);
            if i.is_multiple_of(8) {
                p.channel = ChannelClass::Request;
                p.size = 92;
                p.priority = ((i / 8) % 4) as u8;
            }
            p
        };
        for i in 1..32 {
            q.enqueue(0, mixed(i));
        }
        t.per_op("sim.queue_dualchannel_ns", |i| {
            let now = i * 1_200_000;
            black_box(q.enqueue(now, mixed(i)));
            black_box(q.dequeue(now));
        });
    }

    // --- topo / systems / sim on the flood workloads' internet ---
    let flood = Workload::new("flood_netfence", seed, small).expect("a canonical workload");
    let flood_spec = flood.spec().expect("the floods are single cells");
    let stub = transit_stub_of(flood_spec).expect("the floods run on a generated internet");
    t.per_call("topo.build_8k_ms", "ms", MS, || (), |()| TopoSpec::TransitStub(stub).build());
    let built = TopoSpec::TransitStub(stub).build();
    {
        let routers: Vec<NodeId> = (0..built.net.nodes.len())
            .map(NodeId)
            .filter(|n| built.net.nodes[n.0].host_addr().is_none())
            .collect();
        let hosts = built.net.hosts();
        let mut rng = SimRng::new(seed);
        let pairs: Vec<(NodeId, u32)> = (0..4096)
            .map(|_| {
                let r = routers[rng.uniform_u64(0, routers.len() as u64) as usize];
                let h = hosts[rng.uniform_u64(0, hosts.len() as u64) as usize];
                (r, h)
            })
            .collect();
        t.per_op("sim.next_hop_ns", |i| {
            let (router, host) = pairs[(i & 4095) as usize];
            black_box(built.net.next_hop(router, host));
        });
    }
    {
        let ctx = DefenseContext {
            groups: built
                .groups
                .iter()
                .map(|g| SuppressionGroup {
                    victim: g.victim,
                    users: &g.users,
                    attackers: &g.attackers,
                })
                .collect(),
            bottleneck_bps: built.min_bottleneck_bps(),
            attack_on_victim: true,
        };
        let factory = flood_spec.defense.build(&ctx);
        let extent =
            flood_spec.defense.deployment.resolve_for_source_ases(&built.net, &built.source_ases);
        t.per_call(
            "systems.deploy_netfence_8k_ms",
            "ms",
            MS,
            || (),
            |()| factory.deploy(&built.net, &extent),
        );
    }
    let mut table_bytes = 0;
    t.per_call(
        "topo.build_50k_ms",
        "ms",
        MS,
        || (),
        |()| {
            let big = TopoSpec::TransitStub(transit_stub_spec(50_000 / div, seed)).build();
            table_bytes = big.net.route_stats().table_bytes;
        },
    );
    t.exact("topo.route_table_bytes_50k", "bytes", table_bytes as f64);

    // --- sim / faults on the chaos workload's internet ---
    {
        let chaos = Workload::new("chaos_ctrl", seed, small).expect("a canonical workload");
        let chaos_spec = chaos.spec().expect("the chaos workload is a single cell");
        let stub =
            transit_stub_of(chaos_spec).expect("the chaos cell runs on a generated internet");
        let mut net = TopoSpec::TransitStub(stub).build().net;
        t.per_call(
            "faults.compile_us",
            "us",
            US,
            || (),
            |()| chaos_spec.faults.compile(&net, seed).expect("the plan fits its own network"),
        );
        let is_router = |n: NodeId| net.nodes[n.0].host_addr().is_none();
        let core_link = net
            .links
            .iter()
            .position(|l| is_router(l.from) && is_router(l.to))
            .expect("an internet has inter-router links");
        let mut down = vec![false; net.links.len()];
        down[core_link] = true;
        t.per_call("sim.recompute_routes_2k_ms", "ms", MS, || (), |()| net.recompute_routes(&down));
    }

    // --- ctrl: policy store with 10 K live rules ---
    {
        let rules = 10_000 / div as u64;
        let mut store: PolicyStore<u64> = PolicyStore::new(4 * SEC, 0);
        for k in 0..rules {
            store.insert(0, k);
        }
        t.per_op("ctrl.policy_insert_ns", |i| {
            black_box(store.insert(i, (i * 7919) % rules));
        });
        t.per_op("ctrl.policy_contains_ns", |i| {
            black_box(store.contains(SEC, &((i * 7919) % rules)));
        });
        t.per_call(
            "ctrl.policy_purge_10k_us",
            "us",
            US,
            || {
                let mut lapsed: PolicyStore<u64> = PolicyStore::new(SEC, 0);
                for k in 0..rules {
                    lapsed.insert(0, k);
                }
                lapsed
            },
            |mut lapsed| lapsed.purge(2 * SEC),
        );
    }
    t.out
}
