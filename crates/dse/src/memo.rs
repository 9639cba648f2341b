//! Concurrent compile-result memoization for the exploration sweep.
//!
//! The sweep compiles each plan for hundreds of architectures, but the
//! back end cannot tell most of them apart: scheduling reads the
//! machine's [`SchedSignature`] (the spec minus its register-file size),
//! and lowering reads only the Level-2 latency. [`CompileCache`] memoizes
//! both phases behind those exact keys, so the exploration does the
//! work once per *distinguishable* machine and the register axis — a 4×
//! multiplier in the paper's space — costs only a capacity check.
//!
//! The map is std-only: a fixed array of `Mutex<HashMap>` shards. A
//! lookup hashes its key once, with the repo's in-process table hash
//! ([`cfp_ir::WordHasher`]), and both the shard and the slot inside
//! the shard's table come from that one value — from *different* bits
//! of it, so a shard's keys still spread over its own table. The hash is
//! unseeded, so which shard a key lands in — and therefore what a
//! bounded cache evicts, and its hit, miss and eviction counts on a
//! single thread — is the same in every process. None of these values
//! is ever written anywhere: what is persisted or pinned goes through
//! [`cfp_machine::Fnv1a`].
//!
//! Under a miss the shard lock is *released* while the value is
//! computed, so a long compile never blocks unrelated keys in the same
//! shard; two threads racing on one key may both compute it,
//! and the first insert wins. That race is benign — every value here is
//! a pure function of its key (given one plan cache), so the discarded
//! duplicate is bit-identical to the winner and determinism survives any
//! interleaving.
//!
//! ## Bounded caches (the service's eviction policy)
//!
//! A one-shot sweep can let the cache grow with the space, but the
//! long-running exploration service (DESIGN.md §15) shares one
//! [`CompileCache`] across every job it will ever run, so the cache must
//! be boundable. [`ShardedMap::bounded`] adds a **segmented-LRU**
//! eviction policy: within a shard, entries that have only been
//! inserted (probationary) are evicted before entries that have been hit
//! again (protected), oldest-touch first within each segment. Eviction
//! never compromises correctness — every value is a pure function of its
//! key, so a post-eviction recompute is bit-identical to the evicted
//! original (proven by `post_eviction_recompute_is_bit_identical`
//! below); the only cost is the recompute itself. The bound is the
//! whole map's, not a share per shard: a cache evicts only once it
//! holds `cap` entries, however its keys spread over the shards. From
//! then on each insert evicts one entry — the inserting shard's
//! segmented-LRU victim, or, when that shard holds nothing but the new
//! entry, the next non-empty shard's.

use crate::eval::PlanId;
use cfp_ir::{WordBuildHasher, WordHasher};
use cfp_machine::SchedSignature;
use cfp_sched::{Prepared, SchedCore};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shard count: enough that the paper-scale sweep (≲ a few hundred
/// distinct keys, ≲ dozens of threads) rarely collides, small enough to
/// stay cheap to create. Power of two only for the modulo's sake.
const SHARDS: usize = 64;

/// The shard a key with table hash `hash` lives in: the low bits of
/// [`WordHasher::unmixed`]. A shard's table indexes its buckets by the
/// hash's low bits and takes its control bytes from the top seven, so
/// the shard must come from neither — keys that share a shard would
/// otherwise share buckets or tags. The unmixed bits are a bijection of
/// each key word's low bits: plans of one signature whose ids differ
/// modulo [`SHARDS`] land in distinct shards.
fn shard_index(hash: u64) -> usize {
    (WordHasher::unmixed(hash) % SHARDS as u64) as usize
}

/// A key stored with its table hash, so a lookup hashes the key once and
/// the shard's table re-reads that value instead of hashing again.
#[derive(Debug, Clone)]
struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: Hash> Hashed<K> {
    fn new(key: K) -> Self {
        Hashed {
            hash: WordBuildHasher::default().hash_one(&key),
            key,
        }
    }
}

impl<K: Eq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The shard tables' hasher: [`Hashed`] keys hand it their one
/// precomputed word, which it passes through.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("shard keys hash as their one precomputed word");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One cached entry plus its segmented-LRU bookkeeping: the shard-local
/// touch stamp and whether the entry has graduated out of probation
/// (been hit at least once after insertion).
#[derive(Debug)]
struct Slot<V> {
    value: Arc<V>,
    stamp: u64,
    protected: bool,
}

/// A shard's table: keys carry their hash, so the table only reads it.
type ShardTable<K, V> = HashMap<Hashed<K>, Slot<V>, BuildHasherDefault<Prehashed>>;

/// One shard: the key → slot map plus the shard-local LRU clock.
#[derive(Debug)]
struct Shard<K, V> {
    map: ShardTable<K, V>,
    clock: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: ShardTable::default(),
            clock: 0,
        }
    }
}

impl<K: Eq + Clone, V> Shard<K, V> {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evict one slot, never `keep` (the entry the current caller just
    /// inserted — evicting it immediately would make a one-entry cache
    /// useless); whether there was one to evict. Victim order is the
    /// segmented-LRU rule: oldest probationary slot first, oldest
    /// protected slot only when no probationary slot remains.
    fn evict_one(&mut self, keep: &Hashed<K>) -> bool {
        let victim = self
            .map
            .iter()
            .filter(|(k, _)| *k != keep)
            .min_by_key(|(_, s)| (s.protected, s.stamp))
            .map(|(k, _)| k.clone());
        victim.is_some_and(|victim| self.map.remove(&victim).is_some())
    }
}

/// A sharded concurrent memo table, optionally bounded by a
/// segmented-LRU eviction policy (see the module docs). Values are
/// handed out in `Arc`s so a hit is one clone of a pointer, never of a
/// schedule — and an evicted value stays alive for as long as any
/// caller still holds its `Arc`.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Entry budget of the whole map; `None` means unbounded.
    cap: Option<usize>,
    /// Entries held across all shards (kept for bounded maps only).
    held: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::with_cap(None)
    }
}

/// Lock a memo shard, recovering from poisoning. A panic in *another*
/// thread can only have happened outside `f` (compute runs with the lock
/// released), so the map itself is never mid-mutation when poisoned;
/// every stored value is a completed, pure function of its key. Throwing
/// the data away over a dead neighbor would be strictly worse.
fn lock_shard<K, V>(shard: &Mutex<Shard<K, V>>) -> MutexGuard<'_, Shard<K, V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    fn with_cap(cap: Option<usize>) -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            cap,
            held: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A map bounded to `cap` entries (at least 1), enforced by
    /// segmented-LRU eviction at insert time (see the module docs). On
    /// one thread it never holds more than `cap`; threads inserting at
    /// once can each pass it by one entry until their evictions land.
    #[must_use]
    pub fn bounded(cap: usize) -> Self {
        Self::with_cap(Some(cap.max(1)))
    }
}

impl<K: Eq + Hash + Clone, V> ShardedMap<K, V> {
    /// The value for `key`, computing it with `f` on a miss. `f` runs
    /// outside the shard lock; see the module docs for the (benign)
    /// duplicate-compute race this allows.
    pub fn get_or_insert_with(&self, key: &K, f: impl FnOnce() -> V) -> Arc<V> {
        match self.try_get_or_insert_with(key, || Ok::<V, std::convert::Infallible>(f())) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// [`Self::get_or_insert_with`] for fallible computations: an `Err`
    /// from `f` is returned to the caller and nothing is cached, so a
    /// failed compilation is re-attempted (and fails identically — every
    /// computation here is deterministic) rather than poisoning the map.
    pub fn try_get_or_insert_with<E>(
        &self,
        key: &K,
        f: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let key = Hashed::new(key.clone());
        let home = shard_index(key.hash);
        let shard = &self.shards[home];
        {
            let mut guard = lock_shard(shard);
            let tick = guard.tick();
            if let Some(slot) = guard.map.get_mut(&key) {
                // A hit graduates the slot out of probation: it has
                // proven reuse, so the eviction policy protects it over
                // entries that were only ever inserted.
                slot.stamp = tick;
                slot.protected = true;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.value));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(f()?);
        let mut guard = lock_shard(shard);
        let tick = guard.tick();
        let slot = match guard.map.entry(key.clone()) {
            // Another thread raced this one to the key; its value wins.
            Entry::Occupied(e) => return Ok(Arc::clone(&e.get().value)),
            Entry::Vacant(e) => e.insert(Slot {
                value,
                stamp: tick,
                protected: false,
            }),
        };
        let out = Arc::clone(&slot.value);
        let Some(cap) = self.cap else { return Ok(out) };
        if self.held.fetch_add(1, Ordering::Relaxed) < cap {
            return Ok(out);
        }
        // Full: evict one entry, from the home shard unless it holds
        // only the new one, else from the next shard that holds any.
        // One lock at a time, so two inserting threads never deadlock.
        let evicted = guard.evict_one(&key) || {
            drop(guard);
            (1..SHARDS).any(|step| lock_shard(&self.shards[(home + step) % SHARDS]).evict_one(&key))
        };
        if evicted {
            self.held.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(out)
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that computed (or raced to compute) an entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the bound (0 for an unbounded map).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct keys stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).map.len()).sum()
    }

    /// Whether nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Both memo layers of the compile pipeline, shared by all worker
/// threads of one exploration (or, in the exploration service, by every
/// job the daemon ever runs):
///
/// * `prepared` — the machine-independent phase, keyed by the plan and
///   the only machine parameter it reads (the Level-2 latency);
/// * `cores` — what evaluation reads of assignment + scheduling + peak
///   pressure (a [`CoreSummary`], not the schedule itself), keyed by
///   the plan and the full scheduling signature.
#[derive(Debug, Default)]
pub struct CompileCache {
    prepared: ShardedMap<(PlanId, u32), Prepared>,
    cores: ShardedMap<(PlanId, SchedSignature), CoreSummary>,
}

/// The part of a [`SchedCore`] a memoized evaluation reads. Retaining
/// whole cores (placements, the assigned loop code, the value-home map)
/// for a sweep's lifetime only grew the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreSummary {
    /// Schedule length in cycles (no spill traffic).
    pub length: u32,
    /// Maximum simultaneous live values per cluster.
    pub peak: Vec<u32>,
    /// Scheduler steps the compilation cost, charged on every lookup.
    pub steps: u64,
}

impl From<SchedCore> for CoreSummary {
    fn from(core: SchedCore) -> Self {
        CoreSummary {
            length: core.length,
            peak: core.peak,
            steps: core.steps,
        }
    }
}

impl CompileCache {
    /// A fresh, empty, unbounded cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache whose `cores` layer (one entry per distinguishable
    /// machine and plan) is bounded to `core_cap` entries by
    /// segmented-LRU eviction; see [`ShardedMap::bounded`]. The
    /// `prepared` layer stays unbounded: its population is `unique plans
    /// × distinct L2 latencies`, small by construction. Eviction only ever costs a
    /// recompute — the recomputed core is bit-identical to the evicted
    /// one.
    #[must_use]
    pub fn bounded(core_cap: usize) -> Self {
        CompileCache {
            prepared: ShardedMap::default(),
            cores: ShardedMap::bounded(core_cap),
        }
    }

    /// The prepared (lowered + dependence-analysed) form of a plan for
    /// machines with the given Level-2 latency.
    pub fn prepared(
        &self,
        id: PlanId,
        l2_latency: u32,
        f: impl FnOnce() -> Prepared,
    ) -> Arc<Prepared> {
        self.prepared.get_or_insert_with(&(id, l2_latency), f)
    }

    /// The summary of a plan's scheduled core for machines with the
    /// given scheduling signature, compiling it with `f` on a miss. Only
    /// successful compilations are cached, and an `Err` from `f` comes
    /// straight back.
    pub fn try_core<E>(
        &self,
        id: PlanId,
        sig: SchedSignature,
        f: impl FnOnce() -> Result<SchedCore, E>,
    ) -> Result<Arc<CoreSummary>, E> {
        self.cores
            .try_get_or_insert_with(&(id, sig), || f().map(CoreSummary::from))
    }

    /// Schedule lookups served from the cache.
    #[must_use]
    pub fn core_hits(&self) -> u64 {
        self.cores.hits()
    }

    /// Schedule lookups that had to compile.
    #[must_use]
    pub fn core_misses(&self) -> u64 {
        self.cores.misses()
    }

    /// Scheduled cores evicted by the bound (0 when unbounded).
    #[must_use]
    pub fn core_evictions(&self) -> u64 {
        self.cores.evictions()
    }

    /// Distinct `(plan, signature)` schedules currently resident.
    #[must_use]
    pub fn unique_cores(&self) -> usize {
        self.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn second_lookup_hits_and_reuses_the_value() {
        let map: ShardedMap<u32, String> = ShardedMap::default();
        let a = map.get_or_insert_with(&7, || "seven".to_string());
        let b = map.get_or_insert_with(&7, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((map.hits(), map.misses(), map.len()), (1, 1, 1));
        assert_eq!(map.evictions(), 0);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let map: ShardedMap<u32, u32> = ShardedMap::default();
        for k in 0..500 {
            assert_eq!(*map.get_or_insert_with(&k, || k * 3), k * 3);
        }
        for k in 0..500 {
            assert_eq!(*map.get_or_insert_with(&k, || unreachable!()), k * 3);
        }
        assert_eq!(map.len(), 500);
        assert_eq!((map.hits(), map.misses()), (500, 500));
    }

    #[test]
    fn concurrent_hammering_computes_each_key_and_stays_consistent() {
        let map: ShardedMap<u32, u32> = ShardedMap::default();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                scope.spawn(|| {
                    let _ = t;
                    for round in 0..100 {
                        let k = round % 10;
                        let v = map.get_or_insert_with(&k, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            k + 1000
                        });
                        assert_eq!(*v, k + 1000);
                    }
                });
            }
        });
        assert_eq!(map.len(), 10);
        // Racing threads may duplicate a computation, but every duplicate
        // produces the same value and only one copy is kept.
        assert!(computed.load(Ordering::Relaxed) >= 10);
        assert_eq!(map.hits() + map.misses(), 800);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let map: ShardedMap<u32, u32> = ShardedMap::default();
        let e = map.try_get_or_insert_with(&1, || Err::<u32, &str>("nope"));
        assert_eq!(e, Err("nope"));
        assert!(map.is_empty());
        // A later success on the same key computes and caches normally.
        let v = map.try_get_or_insert_with(&1, || Ok::<u32, &str>(11));
        assert_eq!(*v.expect("succeeds"), 11);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn a_poisoned_shard_keeps_serving_its_values() {
        let map = Arc::new(ShardedMap::<u32, u32>::default());
        for k in 0..50 {
            map.get_or_insert_with(&k, || k * 2);
        }
        // Poison every shard: panic while holding each lock in turn.
        for shard in &map.shards {
            let _ = std::thread::scope(|s| {
                s.spawn(move || {
                    let _guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
                    panic!("poison the shard");
                })
                .join()
            });
        }
        assert!(map.shards.iter().any(|s| s.lock().is_err()), "poisoned");
        // Reads and writes still work on the recovered data.
        for k in 0..50 {
            assert_eq!(*map.get_or_insert_with(&k, || unreachable!()), k * 2);
        }
        assert_eq!(*map.get_or_insert_with(&100, || 7), 7);
    }

    #[test]
    fn a_bounded_map_evicts_and_recomputes_identically() {
        // Cap below the insertion count forces evictions; every evicted
        // key must recompute to a value equal to the original.
        let map: ShardedMap<u32, Vec<u64>> = ShardedMap::bounded(16);
        let value = |k: u32| -> Vec<u64> { (0..8).map(|i| u64::from(k) * 1_000 + i).collect() };
        let originals: Vec<Vec<u64>> = (0..600)
            .map(|k| (*map.get_or_insert_with(&k, || value(k))).clone())
            .collect();
        // On one thread the bound is exact: every insert past the
        // sixteenth evicts one entry.
        assert_eq!((map.len(), map.evictions()), (16, 600 - 16));
        // Recompute everything; an entry either hits (survivor) or is
        // recomputed, and both paths must reproduce the original bits.
        for (k, original) in originals.iter().enumerate() {
            let k = u32::try_from(k).unwrap();
            let again = map.get_or_insert_with(&k, || value(k));
            assert_eq!(*again, *original, "key {k}");
        }
    }

    #[test]
    fn the_bound_is_the_whole_maps_not_a_share_per_shard() {
        // Forty keys that all hash to shard 0 fit a 40-entry cache: it
        // evicts nothing until it is full, however the keys crowd.
        let crowded: Vec<u32> = (0..)
            .filter(|k| shard_index(Hashed::new(*k).hash) == 0)
            .take(41)
            .collect();
        let map: ShardedMap<u32, u32> = ShardedMap::bounded(40);
        for k in &crowded[..40] {
            map.get_or_insert_with(k, || *k);
        }
        assert_eq!((map.len(), map.evictions()), (40, 0));
        map.get_or_insert_with(&crowded[40], || 0);
        assert_eq!((map.len(), map.evictions()), (40, 1));
        // A one-entry cache evicts across shards: the new key's shard
        // holds nothing else, so the victim is the old key elsewhere.
        let other = (0..)
            .find(|k| shard_index(Hashed::new(*k).hash) != 0)
            .expect("some key hashes elsewhere");
        let one: ShardedMap<u32, u32> = ShardedMap::bounded(1);
        one.get_or_insert_with(&crowded[0], || 1);
        one.get_or_insert_with(&other, || 2);
        assert_eq!((one.len(), one.evictions()), (1, 1));
        assert_eq!(*one.get_or_insert_with(&other, || unreachable!()), 2);
    }

    #[test]
    fn segmented_lru_protects_reused_entries_over_one_shot_ones() {
        // Drive the policy directly through one shard.
        let mut shard: Shard<u32, u32> = Shard::default();
        let at = Hashed::new;
        fn put(shard: &mut Shard<u32, u32>, k: u32, protected: bool) {
            let tick = shard.tick();
            shard.map.insert(
                Hashed::new(k),
                Slot {
                    value: Arc::new(k),
                    stamp: tick,
                    protected,
                },
            );
        }
        put(&mut shard, 1, true); // protected, oldest
        put(&mut shard, 2, false); // probationary, older
        put(&mut shard, 3, false); // probationary, newer (just inserted)
        assert!(shard.evict_one(&at(3)));
        // The probationary entry went first even though the protected
        // one is older.
        assert!(shard.map.contains_key(&at(1)) && shard.map.contains_key(&at(3)));
        // With only protected entries left, the oldest protected goes.
        let tick = shard.tick();
        if let Some(s) = shard.map.get_mut(&at(3)) {
            s.protected = true;
            s.stamp = tick;
        }
        put(&mut shard, 4, false);
        assert!(shard.evict_one(&at(4)));
        assert!(!shard.map.contains_key(&at(1)), "oldest protected evicted");
        assert!(shard.map.contains_key(&at(3)) && shard.map.contains_key(&at(4)));
    }

    #[test]
    fn the_paper_sweep_spreads_evenly_over_the_shards() {
        // Every `(plan, signature)` core key the paper's sweep of the ten
        // table benchmarks can ask for (each unroll factor with a plan,
        // whether or not the sweep stops before it): no shard may hold
        // more than twice its share. A crowded shard is a contended lock,
        // and a full bounded cache takes its victims from the inserting
        // shard.
        use crate::eval::{residency_budget, PlanCache, UNROLL_SWEEP};
        use cfp_ir::{WordMap, WordSet};
        use cfp_kernels::Benchmark;
        use cfp_machine::{ArchSpec, SpaceAxes};

        let axes = SpaceAxes::paper();
        let cache = PlanCache::build(&Benchmark::TABLE_COLUMNS, axes.reg_values(), &UNROLL_SWEEP);
        let mut specs = axes.arrangements();
        specs.push(ArchSpec::baseline());
        let mut keys: WordSet<(PlanId, SchedSignature)> = WordSet::default();
        for spec in &specs {
            let sig = spec.sched_signature();
            for b in Benchmark::TABLE_COLUMNS {
                for u in UNROLL_SWEEP {
                    if let Some(id) = cache.id(b, residency_budget(spec.regs), u, spec.exts) {
                        keys.insert((id, sig));
                    }
                }
            }
        }
        let mut load = [0_usize; SHARDS];
        for key in &keys {
            load[shard_index(Hashed::new(*key).hash)] += 1;
        }
        let mean = keys.len() as f64 / SHARDS as f64;
        let max = load.iter().copied().max().unwrap_or(0);
        assert!(keys.len() > 20 * SHARDS, "{} keys", keys.len());
        assert!(
            max as f64 <= 2.0 * mean,
            "fullest shard holds {max} of {} keys (mean {mean:.1}): {load:?}",
            keys.len()
        );
        // What keeps it even: with the signature fixed, the shard is a
        // bijection of the plan id modulo `SHARDS`, so one signature's
        // plans share a shard only where their ids do. A hash that mixes
        // the shard bits too (a rotate in every round) scatters them like
        // random placement and fails here.
        let mut by_sig: WordMap<SchedSignature, (WordSet<usize>, WordSet<usize>)> =
            WordMap::default();
        for key in &keys {
            let (ids, shards) = by_sig.entry(key.1).or_default();
            ids.insert(key.0.index() % SHARDS);
            shards.insert(shard_index(Hashed::new(*key).hash));
        }
        for (sig, (ids, shards)) in &by_sig {
            assert_eq!(shards.len(), ids.len(), "{sig:?}");
        }
    }

    #[test]
    fn post_eviction_recompute_is_bit_identical() {
        // The real thing: evaluate through a CompileCache bounded to a
        // single core, forcing every (plan, signature) to be evicted
        // and rescheduled, and require bit-identical
        // measurements against an unbounded cache.
        use crate::eval::{Evaluator, PlanCache};
        use cfp_kernels::Benchmark;
        use cfp_machine::ArchSpec;
        use cfp_obs::UnitTrace;

        let benches = [Benchmark::D, Benchmark::G];
        let cache = PlanCache::build(&benches, &[64, 256], &[1, 2, 4]);
        let specs = [
            ArchSpec::baseline(),
            ArchSpec::new(4, 2, 256, 1, 4, 1).expect("valid"),
            ArchSpec::new(8, 2, 64, 1, 4, 2).expect("valid"),
        ];
        let unbounded = CompileCache::new();
        let tiny = CompileCache::bounded(1);
        let mut rounds = Vec::new();
        for round in 0..3 {
            for spec in &specs {
                for b in benches {
                    let through = |memo| {
                        Evaluator::new(&cache, memo)
                            .evaluate(spec, b, &mut UnitTrace::disabled())
                            .expect("evaluates")
                    };
                    let (full, evicted) = (through(&unbounded), through(&tiny));
                    assert_eq!(full, evicted, "round {round}: {spec} {b}");
                    rounds.push(evicted);
                }
            }
        }
        assert!(
            tiny.core_evictions() > 0,
            "a one-core cache over {} cores must evict",
            unbounded.unique_cores()
        );
        assert_eq!(unbounded.core_evictions(), 0);
        // Later rounds reproduce the first bit for bit even though the
        // tiny cache recomputed (not replayed) most lookups.
        let per_round = rounds.len() / 3;
        assert_eq!(rounds[..per_round], rounds[per_round..2 * per_round]);
    }

    #[test]
    fn a_bounded_cache_counts_the_same_in_every_run() {
        // Shard placement is a fixed hash of the key, so two identical
        // single-thread runs evict the same entries.
        use crate::eval::{Evaluator, PlanCache};
        use cfp_kernels::Benchmark;
        use cfp_machine::ArchSpec;
        use cfp_obs::UnitTrace;

        let benches = [Benchmark::A, Benchmark::D, Benchmark::G];
        let cache = PlanCache::build(&benches, &[64, 256], &[1, 2, 4]);
        let specs: Vec<ArchSpec> = [(2, 1, 1), (4, 2, 1), (4, 2, 2), (8, 2, 2), (8, 4, 4)]
            .into_iter()
            .flat_map(|(a, m, c)| {
                [64, 256].map(|r| ArchSpec::new(a, m, r, 1, 4, c).expect("valid"))
            })
            .collect();
        let run = || {
            let memo = CompileCache::bounded(8);
            for _ in 0..2 {
                for spec in &specs {
                    for b in benches {
                        Evaluator::new(&cache, &memo)
                            .evaluate(spec, b, &mut UnitTrace::disabled())
                            .expect("evaluates");
                    }
                }
            }
            (memo.core_hits(), memo.core_misses(), memo.core_evictions())
        };
        let first = run();
        assert!(
            first.2 > 0,
            "the bound must bind for the test to mean anything"
        );
        assert!(first.0 > 0, "and some lookups must still hit");
        assert_eq!(first, run());
    }
}
