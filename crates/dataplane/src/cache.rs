//! The two-tier packet-classification cache (OVS-style).
//!
//! The slow path classifies a packet by walking every flow table with a
//! linear priority scan. This module memoizes the *trajectory* of that
//! walk — which entry matched in which table, as positions into the
//! tables — behind two caches consulted in order:
//!
//! 1. A **microflow cache**: exact match on the full parsed [`FlowKey`]
//!    (which includes the ingress port). One entry per active flow;
//!    a single hash lookup on the hot path.
//! 2. A **megaflow cache**: entries carry a [`KeyMask`] — the union of
//!    key fields the slow-path classification actually consulted — and
//!    match any packet that agrees on just those fields. One megaflow
//!    covers every microflow the tables cannot distinguish.
//!
//! A hit replays the recorded per-table trajectory: each matched
//! entry's list is run where it lives, in the table, against the
//! *current* packet and datapath state (meters, group buckets, port
//! liveness), and the entry's counters are credited exactly as the
//! slow path would. Replaying the entries rather than memoized effects
//! keeps stateful steps (meters, SELECT group hashing, TTL decrement)
//! bit-identical to the uncached path without widening the mask.
//!
//! Consistency is by generation: any table/meter/port mutation clears
//! both tiers ([`FlowCache::invalidate`]) and bumps a generation
//! counter, so a cached trajectory's `(table, entry-index)` positions
//! always name the entries the walk matched. That invariant is all
//! that makes a program of positions sound: a table mutation that did
//! not flush would leave positions naming whatever entry slid into
//! them.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::hash::BuildWordHasher;
use crate::key::FlowKey;
use crate::matching::KeyMask;

/// One step of a recorded pipeline trajectory: eight bytes, a position
/// and nothing copied from the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// The scan of `table_id` matched the entry at `entry_idx`, which
    /// replay credits and runs in place.
    Hit {
        /// Which table matched.
        table_id: u8,
        /// Position of the matched entry within that table (stable
        /// until the next invalidation).
        entry_idx: u32,
    },
    /// The scan of `table_id` matched nothing; the datapath's miss
    /// policy applies.
    Miss {
        /// Which table missed.
        table_id: u8,
    },
}

/// Segments a [`Program`] holds inline. Pipelines here are one or two
/// tables deep; the bound is what keeps a microflow entry narrow.
const INLINE_SEGMENTS: usize = 2;

/// A memoized classification: the table-walk trajectory for one
/// equivalence class of packets. Both tiers hold it by value, so
/// recording one allocates nothing and dropping one frees nothing — a
/// trajectory longer than [`INLINE_SEGMENTS`] excepted, whose steps sit
/// in one heap slice every copy shares.
#[derive(Debug, Clone)]
pub enum Program {
    /// The first `.0` of the segments are the steps.
    Inline(u8, [Segment; INLINE_SEGMENTS]),
    /// More steps than fit inline.
    Spilled(Arc<[Segment]>),
}

impl Program {
    /// The program whose steps are `segments`, in pipeline order.
    pub fn new(segments: &[Segment]) -> Program {
        if segments.len() > INLINE_SEGMENTS {
            return Program::Spilled(segments.into());
        }
        let mut held = [Segment::Miss { table_id: 0 }; INLINE_SEGMENTS];
        held[..segments.len()].copy_from_slice(segments);
        Program::Inline(segments.len() as u8, held)
    }

    /// The recorded steps, in pipeline order.
    pub fn segments(&self) -> &[Segment] {
        match self {
            Program::Inline(len, held) => &held[..usize::from(*len)],
            Program::Spilled(all) => all,
        }
    }
}

/// Observable cache counters, surfaced through datapath stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Packets answered by the exact-match microflow tier.
    pub micro_hits: u64,
    /// Packets answered by the wildcard megaflow tier.
    pub mega_hits: u64,
    /// Packets that took the slow path.
    pub misses: u64,
    /// Programs inserted (microflow and megaflow entries count once).
    pub inserts: u64,
    /// Whole-cache invalidations (flow-mod, expiry, meter, port events).
    pub invalidations: u64,
    /// Microflow entries recycled by capacity eviction. Includes
    /// megaflow promotions cycling back out of tier 1, so this is
    /// turnover, not pressure.
    pub micro_evictions: u64,
    /// Megaflow entries dropped by capacity eviction — the real
    /// wildcard-tier pressure signal.
    pub mega_evictions: u64,
}

impl CacheStats {
    /// Total lookups that hit either tier.
    pub fn hits(&self) -> u64 {
        self.micro_hits + self.mega_hits
    }

    /// Capacity evictions across both tiers.
    pub fn evictions(&self) -> u64 {
        self.micro_evictions + self.mega_evictions
    }
}

/// One tier's map. Hashed with the unseeded [`WordHasher`]
/// (`crate::hash`), so nothing may iterate it in an order anyone can
/// observe: lookups, inserts, removals, `len` and `clear` only.
///
/// [`WordHasher`]: crate::hash::WordHasher
type TierMap = HashMap<FlowKey, Program, BuildWordHasher>;

/// The two-tier flow cache. See the module docs for the design.
#[derive(Debug, Default)]
pub struct FlowCache {
    /// Tier 1: exact FlowKey (includes in-port) → program.
    micro: TierMap,
    /// Tier 2: per-mask maps of projected keys → program. The masks are
    /// scanned in install order, which is irrelevant for correctness:
    /// all masks a packet can hit agree on its trajectory (they were all
    /// recorded from the same tables-generation).
    mega: Vec<(KeyMask, TierMap)>,
    /// Emptied per-mask maps, kept for the next mask installed: the
    /// masks in use come back after every invalidation, so at most as
    /// many maps as were ever live at once are held here.
    spare_maps: Vec<TierMap>,
    /// FIFO of microflow keys for capacity eviction.
    micro_fifo: VecDeque<FlowKey>,
    /// FIFO of (mask, projected key) for capacity eviction.
    mega_fifo: VecDeque<(KeyMask, FlowKey)>,
    /// Bumped on every invalidation; lets observers (and tests) detect
    /// revalidation boundaries.
    generation: u64,
    /// Counters.
    pub stats: CacheStats,
}

/// Microflow-tier capacity (entries).
pub const MICRO_CAP: usize = 8192;
/// Megaflow-tier capacity (entries across all masks).
pub const MEGA_CAP: usize = 4096;

impl FlowCache {
    /// An empty cache.
    pub fn new() -> FlowCache {
        FlowCache::default()
    }

    /// The current generation (bumped by every invalidation).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Probe the exact-match tier. The program is lent, not copied: a
    /// microflow hit costs one hash probe. On `None`, continue with
    /// [`FlowCache::lookup_mega`].
    pub fn lookup_micro(&mut self, key: &FlowKey) -> Option<&Program> {
        let hit = self.micro.get(key);
        if hit.is_some() {
            self.stats.micro_hits += 1;
        }
        hit
    }

    /// Probe the megaflow tier for a key the microflow tier just
    /// missed. A hit promotes the program into the microflow tier so
    /// later packets of the flow take the exact-match path; no hit
    /// counts the lookup as a cache miss.
    pub fn lookup_mega(&mut self, key: &FlowKey) -> Option<&Program> {
        let found = self
            .mega
            .iter()
            .find_map(|(mask, map)| map.get(&mask.project(key)));
        let Some(program) = found else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.mega_hits += 1;
        let program = program.clone();
        self.insert_micro(*key, program);
        self.micro.get(key)
    }

    /// Record a slow-path classification: `key` (exact, for tier 1) and
    /// its consulted-field `mask` (for tier 2) both map to `program`.
    pub fn insert(&mut self, key: FlowKey, mask: KeyMask, program: Program) {
        self.stats.inserts += 1;
        self.insert_micro(key, program.clone());

        let projected = mask.project(&key);
        let map = match self.mega.iter_mut().find(|(m, _)| *m == mask) {
            Some((_, map)) => map,
            None => {
                let map = self.spare_maps.pop().unwrap_or_default();
                self.mega.push((mask, map));
                &mut self.mega.last_mut().expect("just pushed").1
            }
        };
        if let Entry::Vacant(slot) = map.entry(projected) {
            slot.insert(program);
            self.mega_fifo.push_back((mask, projected));
            if self.mega_fifo.len() > MEGA_CAP {
                if let Some((old_mask, old_key)) = self.mega_fifo.pop_front() {
                    if let Some(pos) = self.mega.iter().position(|(m, _)| *m == old_mask) {
                        self.mega[pos].1.remove(&old_key);
                        // Prune the bucket once its last entry is gone,
                        // or every subsequent miss keeps scanning a
                        // dead mask until the next invalidation.
                        if self.mega[pos].1.is_empty() {
                            self.spare_maps.push(self.mega.remove(pos).1);
                        }
                    }
                    self.stats.mega_evictions += 1;
                }
            }
        }
    }

    fn insert_micro(&mut self, key: FlowKey, program: Program) {
        if let Entry::Vacant(slot) = self.micro.entry(key) {
            slot.insert(program);
            self.micro_fifo.push_back(key);
            if self.micro_fifo.len() > MICRO_CAP {
                if let Some(old) = self.micro_fifo.pop_front() {
                    self.micro.remove(&old);
                    self.stats.micro_evictions += 1;
                }
            }
        } else {
            self.micro.insert(key, program);
            // An overwrite is a re-insert: move the key to the back of
            // the FIFO so it is not evicted on the schedule of the
            // stale slot it would otherwise inherit.
            if let Some(pos) = self.micro_fifo.iter().position(|k| *k == key) {
                self.micro_fifo.remove(pos);
            }
            self.micro_fifo.push_back(key);
        }
    }

    /// Drop everything and bump the generation. Called on any mutation
    /// that could change classification results: flow add/delete,
    /// expiry, meter config, port state.
    pub fn invalidate(&mut self) {
        self.generation += 1;
        self.stats.invalidations += 1;
        // A burst of mods invalidates once per mod; all but the first
        // find nothing cached.
        if self.micro.is_empty() && self.mega.is_empty() {
            return;
        }
        self.micro.clear();
        self.micro_fifo.clear();
        self.mega_fifo.clear();
        for (_, mut map) in self.mega.drain(..) {
            map.clear();
            self.spare_maps.push(map);
        }
    }

    /// Number of distinct megaflow masks currently installed (every
    /// miss scans all of them, so this is the wildcard-tier scan cost).
    pub fn mask_count(&self) -> usize {
        self.mega.len()
    }

    /// Total entries across both tiers (for observability).
    pub fn len(&self) -> usize {
        self.micro.len() + self.mega.iter().map(|(_, m)| m.len()).sum::<usize>()
    }

    /// Whether both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zen_wire::builder::PacketBuilder;
    use zen_wire::{EthernetAddress, Ipv4Address};

    fn key(port: u16) -> FlowKey {
        let frame = PacketBuilder::udp(
            EthernetAddress::from_id(1),
            Ipv4Address::new(10, 0, 0, 1),
            1000,
            EthernetAddress::from_id(2),
            Ipv4Address::new(10, 0, 0, 2),
            port,
            b"x",
        );
        FlowKey::extract(1, &frame).unwrap()
    }

    /// Both tiers in order, as the datapath probes them.
    fn lookup(cache: &mut FlowCache, key: &FlowKey) -> Option<Program> {
        if let Some(program) = cache.lookup_micro(key) {
            return Some(program.clone());
        }
        cache.lookup_mega(key).cloned()
    }

    fn program(tag: usize) -> Program {
        Program::new(&[Segment::Hit {
            table_id: 0,
            entry_idx: tag as u32,
        }])
    }

    /// A microflow entry stays narrow, and a trajectory deeper than
    /// the inline bound keeps every step in order.
    #[test]
    fn programs_are_narrow_and_spill_in_order() {
        assert_eq!(std::mem::size_of::<Segment>(), 8);
        assert!(std::mem::size_of::<Program>() <= 24);
        let steps: Vec<Segment> = (0..5)
            .map(|table_id| Segment::Hit {
                table_id,
                entry_idx: 100 + u32::from(table_id),
            })
            .collect();
        for depth in 0..=steps.len() {
            assert_eq!(Program::new(&steps[..depth]).segments(), &steps[..depth]);
        }
    }

    #[test]
    fn micro_hit_after_insert() {
        let mut cache = FlowCache::new();
        assert!(lookup(&mut cache, &key(1)).is_none());
        cache.insert(key(1), KeyMask::default(), program(7));
        let hit = lookup(&mut cache, &key(1)).unwrap();
        assert_eq!(hit.segments(), program(7).segments());
        assert_eq!(cache.stats.micro_hits, 1);
        assert_eq!(cache.stats.misses, 1);
    }

    #[test]
    fn mega_covers_unconsulted_fields_and_promotes() {
        let mut cache = FlowCache::new();
        // Mask that only consults the destination /24.
        let mask = KeyMask {
            ipv4_presence: true,
            ipv4_dst_plen: 24,
            ..KeyMask::default()
        };
        cache.insert(key(1), mask, program(3));
        // Different L4 port: not in the mask, so the megaflow covers it.
        let other = key(9);
        assert!(lookup(&mut cache, &other).is_some());
        assert_eq!(cache.stats.mega_hits, 1);
        // The hit was promoted to the microflow tier.
        assert!(lookup(&mut cache, &other).is_some());
        assert_eq!(cache.stats.micro_hits, 1);
    }

    #[test]
    fn invalidate_clears_and_bumps_generation() {
        let mut cache = FlowCache::new();
        cache.insert(key(1), KeyMask::default(), program(0));
        let g = cache.generation();
        cache.invalidate();
        assert!(cache.is_empty());
        assert_eq!(cache.generation(), g + 1);
        assert!(lookup(&mut cache, &key(1)).is_none());
        assert_eq!(cache.stats.invalidations, 1);
    }

    /// A burst of mods invalidates once per mod. The ones that find
    /// nothing cached still count and still move the generation, and a
    /// mask's emptied map serves the next mask installed.
    #[test]
    fn invalidate_on_an_empty_cache_still_counts() {
        let mut cache = FlowCache::new();
        cache.invalidate();
        assert_eq!((cache.generation(), cache.stats.invalidations), (1, 1));

        cache.insert(key(1), KeyMask::default(), program(0));
        cache.invalidate();
        cache.invalidate();
        assert_eq!((cache.generation(), cache.stats.invalidations), (3, 3));
        assert!(cache.is_empty());
        assert_eq!(cache.mask_count(), 0);

        cache.insert(key(2), KeyMask::default(), program(1));
        assert!(
            lookup(&mut cache, &key(1)).is_some(),
            "covered by the megaflow"
        );
        assert_eq!(cache.mask_count(), 1);
        assert!(cache.spare_maps.is_empty(), "the recycled map is in use");
    }

    #[test]
    fn micro_capacity_evicts_fifo() {
        let mut cache = FlowCache::new();
        // All-wildcard masks project every key to the same megaflow, so
        // only the microflow tier grows here.
        for i in 0..(MICRO_CAP + 10) {
            let frame = PacketBuilder::udp(
                EthernetAddress::from_id(1),
                Ipv4Address::from_u32(0x0a00_0000 + i as u32),
                1,
                EthernetAddress::from_id(2),
                Ipv4Address::new(10, 0, 0, 2),
                2,
                b"x",
            );
            let k = FlowKey::extract(1, &frame).unwrap();
            cache.insert(k, KeyMask::default(), program(i));
        }
        assert!(cache.micro.len() <= MICRO_CAP);
        assert!(cache.stats.micro_evictions >= 10);
        assert_eq!(cache.stats.mega_evictions, 0);
    }

    /// A key whose IPv4 destination is `dst` (other fields fixed).
    fn key_to(dst: u32) -> FlowKey {
        let frame = PacketBuilder::udp(
            EthernetAddress::from_id(1),
            Ipv4Address::new(10, 0, 0, 1),
            1000,
            EthernetAddress::from_id(2),
            Ipv4Address::from_u32(dst),
            2,
            b"x",
        );
        FlowKey::extract(1, &frame).unwrap()
    }

    #[test]
    fn mega_eviction_prunes_empty_mask_buckets() {
        let mut cache = FlowCache::new();
        let mask_a = KeyMask {
            ipv4_presence: true,
            ipv4_dst_plen: 32,
            ..KeyMask::default()
        };
        let mask_b = KeyMask {
            ipv4_presence: true,
            ipv4_dst_plen: 24,
            ..KeyMask::default()
        };
        // Fill the megaflow tier exactly with mask-A entries, then churn
        // a full capacity of mask-B entries (distinct /24s) through it.
        for i in 0..MEGA_CAP {
            cache.insert(key_to(0x0a00_0000 + i as u32), mask_a, program(i));
        }
        assert_eq!(cache.mask_count(), 1);
        for i in 0..MEGA_CAP {
            cache.insert(key_to(0x3000_0000 + ((i as u32) << 8)), mask_b, program(i));
        }
        // Every mask-A entry was FIFO-evicted, so its bucket must be
        // pruned — not left behind as a dead mask every miss rescans.
        assert_eq!(cache.mask_count(), 1);
        assert_eq!(cache.stats.mega_evictions, MEGA_CAP as u64);
    }

    #[test]
    fn micro_overwrite_refreshes_fifo_position() {
        let mut cache = FlowCache::new();
        // Two resident keys, inserted in order k0 then k1.
        cache.insert(key(10), KeyMask::default(), program(0));
        cache.insert(key(11), KeyMask::default(), program(1));
        // Overwrite k0: it must move to the back of the FIFO.
        cache.insert(key(10), KeyMask::default(), program(2));
        assert_eq!(cache.micro.len(), cache.micro_fifo.len(), "no FIFO drift");
        // Churn distinct keys until exactly one eviction happens; the
        // victim must be k1 (now oldest), not the refreshed k0.
        for i in 0..(MICRO_CAP - 2) {
            cache.insert(
                key_to(0x0b00_0000 + i as u32),
                KeyMask::default(),
                program(i),
            );
        }
        assert_eq!(cache.stats.micro_evictions, 0);
        cache.insert(key_to(0x0c00_0000), KeyMask::default(), program(9));
        assert_eq!(cache.stats.micro_evictions, 1, "exactly one eviction");
        assert!(
            cache.micro.contains_key(&key(10)),
            "overwritten key must survive (FIFO position refreshed)"
        );
        assert!(
            !cache.micro.contains_key(&key(11)),
            "oldest un-refreshed key must be the victim"
        );
        assert_eq!(cache.micro.len(), cache.micro_fifo.len(), "no FIFO drift");
        // The overwrite installed the new program, not the stale one.
        assert_eq!(
            lookup(&mut cache, &key(10)).unwrap().segments(),
            program(2).segments()
        );
    }
}
