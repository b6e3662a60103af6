//! Shared decoded-trace chunks and the lockstep sweep step.
//!
//! Population sweeps run the *same* trace slice against many
//! configurations (the paper's §II design-space methodology). The trace
//! generators are pure functions of `(SliceSpec, seed)`, so every member
//! of such a group consumes an identical instruction stream. [`lockstep`]
//! decodes each block of records once, through a [`CachedStream`], and
//! steps every member over the shared block ([`Simulator::run_block`]),
//! amortizing generation cost across the whole group.
//!
//! Lockstep preserves bit-identity by construction: simulators share no
//! mutable state, and each member sees the exact record sequence it
//! would have seen stepping its own generator, so every member performs
//! the very `step` calls [`Simulator::run_slice`] performs. The
//! `batch_determinism` suite gates this against the scalar path.

use crate::error::SimError;
use crate::sim::{Simulator, SliceMeasure, SliceResult};
use exynos_trace::suite::SliceSpec;
use exynos_trace::{Fingerprint, Inst, SlicePlan, TraceError, TraceGen};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Records decoded per [`InstChunk::refill`] call. The dominant cost of
/// small chunks is not the bookkeeping but the *member switch*: each
/// simulator's hot predictor state (SHP weights, BTB/µBTB tag+target
/// arrays, cache tags) is evicted by the other members' tables between
/// its turns, so members must step long contiguous runs to keep
/// scalar-like locality. 8 Ki records gives each member thousands of
/// contiguous steps per switch (a typical warmup or detail window is a
/// handful of chunks) while the buffer itself stays well under a MiB,
/// so it remains cache-resident across the member loop.
pub const CHUNK_LEN: usize = 8 * 1024;

/// A reusable buffer of decoded trace records. The sweep engine reads
/// through [`CachedStream`]; this plain buffer is kept for the benchmark's
/// `perfbench/src/entry.rs`, which decodes streams through it, and goes
/// with that file's own adaptation.
#[derive(Debug, Default)]
pub struct InstChunk {
    buf: Vec<Inst>,
}

impl InstChunk {
    /// An empty chunk with capacity for [`CHUNK_LEN`] records.
    pub fn new() -> InstChunk {
        InstChunk { buf: Vec::with_capacity(CHUNK_LEN) }
    }

    /// Discard the current contents and decode up to `n` records from
    /// `gen`. Returns the freshly decoded block.
    pub fn refill(&mut self, gen: &mut dyn TraceGen, n: usize) -> &[Inst] {
        self.buf.clear();
        self.buf.reserve(n);
        for _ in 0..n {
            self.buf.push(gen.next_inst());
        }
        &self.buf
    }
}

/// One cached chunk's identity: which stream it came from and where in
/// that stream it sits. Chunks are always materialized on canonical
/// [`CHUNK_LEN`]-aligned boundaries (chunk `i` covers records
/// `[i*CHUNK_LEN, (i+1)*CHUNK_LEN)`), so any consumer cursor — warmup
/// offsets included — maps onto the same cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChunkKey {
    stream: u128,
    index: u64,
}

/// Bytes one fully decoded chunk occupies (the eviction unit).
const CHUNK_BYTES: usize = CHUNK_LEN * std::mem::size_of::<Inst>();

/// How many evicted buffers the free list retains for reuse. Small on
/// purpose: it only needs to cover the steady-state churn of the
/// streams materializing at once, not the whole cache.
const FREE_LIST_CAP: usize = 8;

struct CacheEntry {
    data: Arc<Vec<Inst>>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<ChunkKey, CacheEntry>,
    /// Decoded bytes currently resident (gauge behind `stats().bytes`).
    bytes: u64,
    /// Monotone LRU clock, bumped on every hit/insert.
    tick: u64,
    /// Recycled chunk buffers (the free-list pool): evicted chunks whose
    /// last `Arc` lived in the cache donate their allocation back here,
    /// so steady-state materialization is allocation-free.
    free: Vec<Vec<Inst>>,
}

/// A bounded, ref-counted cache of decoded trace chunks, shared across
/// generation groups, sweep jobs and service jobs.
///
/// Keys are [`Fingerprint`] stream digests plus a canonical chunk index;
/// values are `Arc<Vec<Inst>>` handed out to any consumer replaying the
/// same stream. Eviction is LRU under a byte `budget`:
///
/// * `None` — unbounded (the default for one-shot sweeps);
/// * `Some(0)` — store nothing: every lookup misses, materialized chunks
///   go straight to the caller and are dropped after use. The cache is
///   then a pure pass-through, which is what the bit-identity suite uses
///   to prove caching is invisible to results;
/// * `Some(n)` — evict least-recently-used whole chunks until resident
///   bytes fit `n` (an in-flight chunk's memory is freed only when its
///   consumers drop their `Arc`s, but it stops being findable).
///
/// All methods take `&self`; the cache is `Sync` and meant to be shared
/// behind an [`Arc`].
pub struct ChunkCache {
    inner: Mutex<CacheInner>,
    budget: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ChunkCache")
            .field("budget", &self.budget)
            .field("stats", &s)
            .finish()
    }
}

/// Point-in-time counters for one [`ChunkCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkCacheStats {
    /// Lookups served from a resident chunk.
    pub hits: u64,
    /// Lookups that had to materialize (including budget-0 pass-through).
    pub misses: u64,
    /// Whole chunks evicted under the byte budget.
    pub evictions: u64,
    /// Decoded bytes currently resident.
    pub bytes: u64,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl ChunkCache {
    /// An unbounded cache.
    pub fn unbounded() -> ChunkCache {
        ChunkCache::with_budget(None)
    }

    /// A cache holding at most `budget` decoded bytes (`None` =
    /// unbounded, `Some(0)` = pass-through; see the type docs).
    pub fn with_budget(budget: Option<u64>) -> ChunkCache {
        ChunkCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                free: Vec::new(),
            }),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Current counters.
    pub fn stats(&self) -> ChunkCacheStats {
        ChunkCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: lock_unpoisoned(&self.inner).bytes,
        }
    }

    fn lookup(&self, key: ChunkKey) -> Option<Arc<Vec<Inst>>> {
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            e.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(&e.data));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Pop a recycled buffer to materialize into (or a fresh one).
    fn checkout_buffer(&self) -> Vec<Inst> {
        lock_unpoisoned(&self.inner)
            .free
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(CHUNK_LEN))
    }

    /// Insert a freshly materialized chunk, evicting LRU entries to fit
    /// the budget. With budget 0 nothing is stored (the caller keeps the
    /// only `Arc`). Races between two streams materializing one key are
    /// benign: both materialized byte-identical data, last insert wins.
    fn insert(&self, key: ChunkKey, data: &Arc<Vec<Inst>>) {
        if self.budget == Some(0) {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let old = inner.map.insert(
            key,
            CacheEntry { data: Arc::clone(data), last_used: tick },
        );
        if old.is_none() {
            inner.bytes += CHUNK_BYTES as u64;
        }
        if let Some(budget) = self.budget {
            while inner.bytes > budget && !inner.map.is_empty() {
                let lru = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k);
                let Some(lru) = lru else { break };
                if let Some(e) = inner.map.remove(&lru) {
                    inner.bytes -= CHUNK_BYTES as u64;
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    // Recycle the allocation if the cache held the last
                    // reference (the free-list pool).
                    if let Ok(mut buf) = Arc::try_unwrap(e.data) {
                        if inner.free.len() < FREE_LIST_CAP {
                            buf.clear();
                            inner.free.push(buf);
                        }
                    }
                }
            }
        }
    }
}

/// A record-level cursor over one fingerprinted stream, backed by a
/// shared [`ChunkCache`].
///
/// The stream holds the decoded chunk under its cursor and hands out
/// sub-slices of it, so consumers with arbitrary (non-chunk-aligned)
/// warmup/detail windows still map onto canonical cache entries, and a
/// window boundary inside a chunk never looks that chunk up (or
/// materializes it) a second time. On a hit the private generator is
/// *not* advanced — it lazily fast-forwards (or rebuilds from scratch if
/// the cursor ever regressed past it) only when a miss forces
/// materialization. Over a pass-through cache the held chunk's buffer is
/// refilled in place, so the stream allocates one chunk in all.
/// Correctness never depends on the cache: every path re-derives the
/// same records from the same pure generator.
pub struct CachedStream {
    cache: Arc<ChunkCache>,
    stream: Fingerprint,
    build: Box<dyn Fn() -> Result<Box<dyn TraceGen + Send>, TraceError> + Send + Sync>,
    gen: Option<Box<dyn TraceGen + Send>>,
    /// Absolute record position of `gen` (records already drawn from it).
    gen_pos: u64,
    /// Absolute record position of the consumer cursor.
    pos: u64,
    /// The chunk the cursor last read from: `(chunk index, records)`.
    current: Option<(u64, Arc<Vec<Inst>>)>,
}

impl std::fmt::Debug for CachedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedStream")
            .field("stream", &self.stream)
            .field("pos", &self.pos)
            .field("gen_pos", &self.gen_pos)
            .finish()
    }
}

impl CachedStream {
    /// A stream over `build()`'s output, identified by `stream`.
    ///
    /// The caller asserts that `build` is pure and that `stream` is a
    /// faithful content digest (two streams with equal fingerprints must
    /// emit byte-identical records) — [`SliceSpec::stream_fingerprint`]
    /// and the [`exynos_trace::TraceSource`] contract provide exactly
    /// that.
    pub fn new<F>(cache: Arc<ChunkCache>, stream: Fingerprint, build: F) -> CachedStream
    where
        F: Fn() -> Result<Box<dyn TraceGen + Send>, TraceError> + Send + Sync + 'static,
    {
        CachedStream {
            cache,
            stream,
            build: Box::new(build),
            gen: None,
            gen_pos: 0,
            pos: 0,
            current: None,
        }
    }

    /// A stream over a catalog slice (the common case).
    pub fn for_slice(cache: Arc<ChunkCache>, slice: &SliceSpec) -> CachedStream {
        let fp = slice.stream_fingerprint();
        let spec = slice.clone();
        CachedStream::new(cache, fp, move || spec.build())
    }

    /// Advance the cursor by `n` records without producing them. Free on
    /// cached regions: the skipped records are only ever generated if a
    /// later miss needs the generator fast-forwarded through them.
    pub fn skip(&mut self, n: u64) {
        self.pos += n;
    }

    /// Materialize the canonical chunk containing absolute record
    /// `start..start+CHUNK_LEN` into `buf`.
    fn materialize(
        &mut self,
        chunk_index: u64,
        mut buf: Vec<Inst>,
    ) -> Result<Vec<Inst>, TraceError> {
        let start = chunk_index * CHUNK_LEN as u64;
        // The generator can only move forward; a cursor that regressed
        // (or a fresh stream) rebuilds it from the pure source.
        if self.gen.is_none() || self.gen_pos > start {
            self.gen = Some((self.build)()?);
            self.gen_pos = 0;
        }
        // `materialize` is only called with `gen` freshly assigned above
        // or already present; the `else` arm is unreachable but kept
        // typed rather than unwrapped.
        let Some(gen) = self.gen.as_mut() else {
            return Err(TraceError::program("cached-stream", "generator unavailable"));
        };
        for _ in self.gen_pos..start {
            let _ = gen.next_inst();
        }
        buf.clear();
        buf.reserve(CHUNK_LEN);
        for _ in 0..CHUNK_LEN {
            buf.push(gen.next_inst());
        }
        self.gen_pos = start + CHUNK_LEN as u64;
        Ok(buf)
    }

    /// Produce the next run of at most `max` records from the chunk
    /// under the cursor, looking the chunk up (and materializing it on a
    /// miss) only when the cursor has moved onto a different chunk. The
    /// run never crosses a chunk boundary, so a consumer loop naturally
    /// re-enters per chunk. Streams are infinite; this always yields a
    /// non-empty run for `max > 0`.
    pub fn next_block(&mut self, max: usize) -> Result<&[Inst], TraceError> {
        let chunk_index = self.pos / CHUNK_LEN as u64;
        let offset = (self.pos % CHUNK_LEN as u64) as usize;
        let len = max.min(CHUNK_LEN - offset);
        let data = match self.current.take() {
            Some((index, data)) if index == chunk_index => data,
            stale => {
                let key = ChunkKey { stream: self.stream.0, index: chunk_index };
                match self.cache.lookup(key) {
                    Some(d) => d,
                    None => {
                        // Refill the stale chunk's buffer when nothing else
                        // holds it (always, over a pass-through cache).
                        let buf = match stale.map(|(_, d)| Arc::try_unwrap(d)) {
                            Some(Ok(buf)) => buf,
                            _ => self.cache.checkout_buffer(),
                        };
                        let d = Arc::new(self.materialize(chunk_index, buf)?);
                        self.cache.insert(key, &d);
                        d
                    }
                }
            }
        };
        self.pos += len as u64;
        let (_, data) = self.current.insert((chunk_index, data));
        Ok(&data[offset..offset + len])
    }
}

/// Step every member over `plan.warmup + plan.detail` records of
/// `stream` in lockstep and return one detail-window [`SliceResult`] per
/// member, member order.
///
/// Each block is decoded once and stepped by every member before the
/// next; the blocks split exactly at the warmup/detail boundary, where
/// each member's measurement baseline is taken. Per member this is the
/// `step` sequence of [`Simulator::run_slice`] over a private generator
/// positioned where `stream`'s cursor is, so results are bit-identical
/// to it for any member count and any cache budget. Members must all
/// belong to the same stream (the caller groups them).
pub fn lockstep(
    members: &mut [Simulator],
    stream: &mut CachedStream,
    plan: SlicePlan,
) -> Result<Vec<SliceResult>, SimError> {
    let mut advance = |members: &mut [Simulator], n: u64| -> Result<(), SimError> {
        let mut rem = n;
        while rem > 0 {
            let block = stream.next_block(rem.min(CHUNK_LEN as u64) as usize)?;
            for sim in members.iter_mut() {
                sim.run_block(block)?;
            }
            rem -= block.len() as u64;
        }
        Ok(())
    };
    advance(members, plan.warmup)?;
    let begin: Vec<SliceMeasure> = members.iter().map(Simulator::measure_begin).collect();
    advance(members, plan.detail)?;
    Ok(members.iter().zip(&begin).map(|(s, m)| s.measure_end(m)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use exynos_trace::gen::loops::{LoopNest, LoopNestParams};

    #[test]
    fn refill_matches_direct_generation() {
        let params = LoopNestParams::default();
        let mut a = LoopNest::new(&params, 0, 7);
        let mut b = LoopNest::new(&params, 0, 7);
        let mut chunk = InstChunk::new();
        let block = chunk.refill(&mut a, 100);
        assert_eq!(block.len(), 100);
        for inst in block {
            assert_eq!(inst.pc, b.next_inst().pc);
        }
        // Refilling reuses the buffer and replaces the contents.
        let block = chunk.refill(&mut a, 5);
        assert_eq!(block.len(), 5);
        assert_eq!(block[0].pc, b.next_inst().pc);
    }

    fn loop_stream(cache: &Arc<ChunkCache>, seed: u64) -> CachedStream {
        let params = LoopNestParams::default();
        CachedStream::new(
            Arc::clone(cache),
            Fingerprint(0x1234 + seed as u128),
            move || Ok(Box::new(LoopNest::new(&params, 0, seed))),
        )
    }

    /// Drain `n` records through arbitrary block sizes and collect PCs.
    fn drain(stream: &mut CachedStream, n: usize, block: usize) -> Vec<u64> {
        let mut pcs = Vec::with_capacity(n);
        while pcs.len() < n {
            let block = stream.next_block(block.min(n - pcs.len())).unwrap();
            pcs.extend(block.iter().map(|i| i.pc));
        }
        pcs
    }

    #[test]
    fn cached_stream_matches_direct_generation() {
        let cache = Arc::new(ChunkCache::unbounded());
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 7);
        let want: Vec<u64> = (0..20_000).map(|_| direct.next_inst().pc).collect();
        let mut s = loop_stream(&cache, 7);
        assert_eq!(drain(&mut s, 20_000, 777), want);
        // Pass 1 looks each chunk up once, however many blocks it reads
        // from it; a second pass over the same stream hits the cache and
        // still yields identical records.
        let before = cache.stats();
        assert_eq!((before.hits, before.misses), (0, 3), "{before:?}");
        let mut s2 = loop_stream(&cache, 7);
        assert_eq!(drain(&mut s2, 20_000, 4_096), want);
        let after = cache.stats();
        assert_eq!(after.misses, before.misses, "pass 2 must be all hits");
        assert!(after.hits > before.hits);
    }

    #[test]
    fn budget_zero_is_pure_pass_through() {
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 9);
        let want: Vec<u64> = (0..20_000).map(|_| direct.next_inst().pc).collect();
        let mut s = loop_stream(&cache, 9);
        assert_eq!(drain(&mut s, 20_000, 1_000), want);
        let st = cache.stats();
        assert_eq!(st.hits, 0);
        assert_eq!(st.bytes, 0);
        assert!(st.misses >= 3);
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        // One chunk's worth of budget: the second resident chunk evicts
        // the first, every pass regenerates, results stay identical.
        let cache = Arc::new(ChunkCache::with_budget(Some(CHUNK_BYTES as u64)));
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 11);
        let want: Vec<u64> = (0..3 * CHUNK_LEN).map(|_| direct.next_inst().pc).collect();
        let mut s = loop_stream(&cache, 11);
        assert_eq!(drain(&mut s, 3 * CHUNK_LEN, 500), want);
        let st = cache.stats();
        assert!(st.evictions >= 2, "expected evictions under a 1-chunk budget: {st:?}");
        assert!(st.bytes <= CHUNK_BYTES as u64);
        let mut s2 = loop_stream(&cache, 11);
        assert_eq!(drain(&mut s2, 3 * CHUNK_LEN, 8_192), want);
    }

    #[test]
    fn skip_is_cursor_only_and_alignment_is_canonical() {
        let cache = Arc::new(ChunkCache::unbounded());
        // Warm chunks 0..3 via one consumer.
        let mut warm = loop_stream(&cache, 13);
        let all = drain(&mut warm, 3 * CHUNK_LEN, CHUNK_LEN);
        let misses = cache.stats().misses;
        // A second consumer skipping a non-aligned warmup still lands on
        // the same canonical chunks: zero new misses.
        let mut s = loop_stream(&cache, 13);
        s.skip(10_000);
        let tail = drain(&mut s, 3 * CHUNK_LEN - 10_000, 321);
        assert_eq!(tail, all[10_000..]);
        assert_eq!(cache.stats().misses, misses, "skip must not bypass canonical alignment");
    }

    #[test]
    fn distinct_fingerprints_do_not_share_chunks() {
        let cache = Arc::new(ChunkCache::unbounded());
        let mut a = loop_stream(&cache, 1);
        let mut b = loop_stream(&cache, 2);
        let _ = a.next_block(64).unwrap();
        let hits_before = cache.stats().hits;
        let _ = b.next_block(64).unwrap();
        assert_eq!(cache.stats().hits, hits_before, "different streams must miss");
    }

    #[test]
    fn pass_through_materializes_each_chunk_once_across_a_window_split() {
        // 5,000 + 30,000 records: the split lands inside chunk 0, which
        // must not be materialized again for the detail window.
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let mut s = loop_stream(&cache, 17);
        let (warmup, detail) = (5_000usize, 30_000usize);
        let mut pcs = drain(&mut s, warmup, CHUNK_LEN);
        pcs.extend(drain(&mut s, detail, CHUNK_LEN));
        let mut direct = LoopNest::new(&LoopNestParams::default(), 0, 17);
        let want: Vec<u64> = (0..warmup + detail).map(|_| direct.next_inst().pc).collect();
        assert_eq!(pcs, want);
        let st = cache.stats();
        assert_eq!(st.misses, (warmup + detail).div_ceil(CHUNK_LEN) as u64, "{st:?}");
        assert_eq!(st.hits, 0);
    }

    #[test]
    fn lockstep_matches_scalar_across_generations() {
        use crate::builder::SimBuilder;
        use crate::config::CoreConfig;
        let slice = &exynos_trace::standard_suite(1)[0];
        let plan = SlicePlan::new(700, 900);
        let gens = CoreConfig::all_generations();
        let build = |cfg: &CoreConfig| SimBuilder::config(cfg.clone()).build().unwrap();
        let mut members: Vec<Simulator> = gens.iter().map(build).collect();
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let mut stream = CachedStream::for_slice(cache, slice);
        let batched = lockstep(&mut members, &mut stream, plan).unwrap();
        for (cfg, b) in gens.iter().zip(&batched) {
            let mut gen = slice.build().unwrap();
            let scalar = build(cfg).run_slice(&mut *gen, plan).unwrap();
            assert_eq!(format!("{scalar:?}"), format!("{b:?}"), "{}", cfg.gen.name());
        }
        // No members: the stream is still consumed, nothing is returned.
        let cache = Arc::new(ChunkCache::with_budget(Some(0)));
        let mut stream = CachedStream::for_slice(cache, slice);
        assert!(lockstep(&mut [], &mut stream, plan).unwrap().is_empty());
    }
}
