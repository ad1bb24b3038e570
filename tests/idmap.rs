//! The fixed `IdHasher` on the keys the packet path actually probes with.
//!
//! hashbrown takes a key's bucket from the *low* bits of its hash and the
//! control-byte tag from the *top seven*, so both ends must look uniform on
//! topology-assigned identifiers — consecutive host addresses, one address
//! per /24 or per /16, and (sender, link) grids. A plain wrapping multiply
//! fails the strided cases outright (its low bits ignore a key's high bits);
//! these tests are what keeps a later "simplification" of the mixer honest.

use std::hash::{BuildHasher, BuildHasherDefault, Hash};

use netfence::core::types::{HostId, LimiterKey, LinkId};
use netfence::telemetry::{IdHasher, IdMap};

/// Pearson χ² per degree of freedom of `hashes` binned by `bin`: ≈ 1 for a
/// uniform random assignment, in the hundreds when keys pile into few bins.
fn chi2_per_df(hashes: &[u64], bins: usize, bin: impl Fn(u64) -> usize) -> f64 {
    let mut counts = vec![0u32; bins];
    for &h in hashes {
        counts[bin(h)] += 1;
    }
    let expected = hashes.len() as f64 / bins as f64;
    let chi2: f64 = counts.iter().map(|&c| (f64::from(c) - expected).powi(2) / expected).sum();
    chi2 / (bins - 1) as f64
}

fn assert_near_uniform(what: &str, keys: impl Iterator<Item = impl Hash>) {
    let build = BuildHasherDefault::<IdHasher>::default();
    let hashes: Vec<u64> = keys.map(|k| build.hash_one(k)).collect();
    assert_eq!(hashes.len(), 10_000, "{what}: every key set is 10 K keys");
    let buckets = chi2_per_df(&hashes, 1 << 12, |h| (h & 0xfff) as usize);
    let tags = chi2_per_df(&hashes, 1 << 7, |h| (h >> 57) as usize);
    assert!(buckets < 2.0, "{what}: low 12 bits (bucket index) χ²/df = {buckets:.2}");
    assert!(tags < 2.0, "{what}: top 7 bits (control tag) χ²/df = {tags:.2}");
}

#[test]
fn strided_addresses_fill_buckets_and_tags_evenly() {
    // Host addresses are `0x0A00_0000 + as·0x100 + i`, link addresses count
    // up from 1000 (`netfence-topo`, `NetworkBuilder::link`).
    for base in [0x0A00_0000u32, 1_000] {
        for stride in [1u32, 256, 65_536] {
            let keys = (0..10_000u32).map(|i| base + i * stride);
            assert_near_uniform(&format!("{base:#x} + i·{stride}"), keys);
        }
    }
}

#[test]
fn limiter_key_grids_fill_buckets_and_tags_evenly() {
    for (senders, links) in [(10_000u32, 1u32), (1_000, 10), (100, 100), (10, 1_000)] {
        for src_stride in [1u32, 256] {
            let keys = (0..senders).flat_map(move |s| {
                (0..links).map(move |l| LimiterKey {
                    src: HostId(0x0A00_0000 + s * src_stride),
                    link: LinkId(1_001 + 2 * l),
                })
            });
            assert_near_uniform(
                &format!("{senders} senders (·{src_stride}) × {links} links"),
                keys,
            );
        }
    }
}

#[test]
fn the_same_insert_sequence_iterates_identically() {
    let build = || {
        let mut map: IdMap<u32, u64> = IdMap::default();
        for i in 0..5_000u32 {
            map.insert(0x0A00_0000 + i * 256, u64::from(i));
        }
        for i in (0..5_000u32).step_by(3) {
            map.remove(&(0x0A00_0000 + i * 256));
        }
        for i in 0..500u32 {
            map.insert(i, 0);
        }
        map
    };
    let (a, b) = (build(), build());
    #[expect(
        clippy::disallowed_methods,
        reason = "this test compares two maps' hash order on purpose: the order must repeat"
    )]
    let same_order = a.iter().eq(b.iter());
    assert!(same_order, "no per-process or per-map seed may reach the order");
}
