//! Constant-size per task-file block histograms (§3).
//!
//! A histogram maintains, for each tracked data block of one file as seen by
//! one task, a small fixed set of statistics (operation counts, bytes,
//! first/last access time — well under the ~10-statistic bound in the
//! paper). The number of tracked locations is bounded by two mechanisms:
//!
//! 1. **Access resolution** — the block size, derived from file size by a
//!    [`BlockPolicy`](crate::block::BlockPolicy). If a file grows past the
//!    location bound, the histogram *coarsens*: the block size doubles and
//!    buckets merge pairwise.
//! 2. **Spatial sampling** — a deterministic
//!    [`crate::sampling::SpatialSampler`] rule on the block's
//!    first *granule* index, so all tasks touching a file keep the same
//!    subset of locations at any given resolution.

use serde::{Deserialize, Serialize, Value};

use crate::block::MIN_BLOCK;
use crate::sampling::SpatialSampler;

/// Per-block statistics. Deliberately small and fixed-size: 8 scalar fields,
/// within the paper's ≤ ~10-statistics-per-location budget.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockStats {
    /// Number of read operations touching the block.
    pub reads: u64,
    /// Number of write operations touching the block.
    pub writes: u64,
    /// Bytes read from the block (non-unique).
    pub bytes_read: u64,
    /// Bytes written to the block (non-unique).
    pub bytes_written: u64,
    /// Time of the first access (ns).
    pub first_ns: u64,
    /// Time of the most recent access (ns).
    pub last_ns: u64,
    /// `true` if the most recent access was a write.
    pub last_was_write: bool,
    /// Number of accesses that re-touched the block with zero seek distance
    /// (temporal locality indicator).
    pub repeat_hits: u64,
}

impl BlockStats {
    fn merge(&mut self, other: &BlockStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        if other.first_ns < self.first_ns || (self.reads + self.writes) == 0 {
            self.first_ns = self.first_ns.min(other.first_ns);
        }
        if other.last_ns >= self.last_ns {
            self.last_ns = other.last_ns;
            self.last_was_write = other.last_was_write;
        }
        self.repeat_hits += other.repeat_hits;
    }
}

/// Which direction an access flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Ordered block-index → stats storage.
///
/// Semantically an ordered map, stored as a key-sorted `Vec` because the
/// dominant access pattern — one sequential whole-file operation filling a
/// contiguous index range — turns into a single bulk splice instead of one
/// tree insertion per block.
///
/// On the wire (checkpoint snapshots and measurement files) the same
/// pattern makes neighbouring blocks identical, so the map travels
/// run-length encoded: one row per maximal run of key-contiguous blocks
/// with equal stats, `[start, len, reads, writes, bytes_read,
/// bytes_written, first_ns, last_ns, last_was_write, repeat_hits]`.
/// [`BlockHistogram`]'s decoder expands the rows back into this `Vec`.
#[derive(Debug, Clone, Default, PartialEq)]
struct BlockMap(Vec<(u64, BlockStats)>);

/// Cells in one run-length row of the wire form.
const ROW_CELLS: usize = 10;

impl Serialize for BlockMap {
    fn to_value(&self) -> Value {
        let n = |x: u64| x.to_value();
        let rows = self
            .0
            .chunk_by(|a, b| b.0 == a.0 + 1 && b.1 == a.1)
            .map(|run| {
                let (start, s) = run[0];
                Value::Array(vec![
                    n(start),
                    n(run.len() as u64),
                    n(s.reads),
                    n(s.writes),
                    n(s.bytes_read),
                    n(s.bytes_written),
                    n(s.first_ns),
                    n(s.last_ns),
                    s.last_was_write.to_value(),
                    n(s.repeat_hits),
                ])
            })
            .collect();
        Value::Array(rows)
    }
}

/// A bounded block histogram for one task-file pair.
///
/// Decoding checks every invariant that [`BlockHistogram::new`] asserts and
/// the recording hot path assumes, so a hand-edited or corrupted file is a
/// typed error instead of a panic or a loop that never ends (coarsening a
/// zero block size doubles zero forever).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BlockHistogram {
    /// Current block size in bytes (power of two, multiple of the granule).
    block_size: u64,
    /// Sampling granule: the *initial* block size; sampling decisions hash
    /// the granule index of a block's first byte so they remain consistent
    /// as the histogram coarsens.
    granule: u64,
    /// Maximum number of tracked locations before coarsening.
    max_locations: u32,
    sampler: SpatialSampler,
    blocks: BlockMap,
}

impl Deserialize for BlockHistogram {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let invalid = |m: String| serde::Error::msg(format!("block histogram: {m}"));
        let block_size: u64 = serde::de_field(v, "block_size")?;
        let granule: u64 = serde::de_field(v, "granule")?;
        let max_locations: u32 = serde::de_field(v, "max_locations")?;
        let sampler: SpatialSampler = serde::de_field(v, "sampler")?;
        if !block_size.is_power_of_two() || !granule.is_power_of_two() {
            return Err(invalid(format!(
                "block_size {block_size} and granule {granule} must be powers of two"
            )));
        }
        if granule < MIN_BLOCK || granule > block_size {
            return Err(invalid(format!(
                "granule {granule} must lie in [{MIN_BLOCK}, block_size {block_size}]"
            )));
        }
        if max_locations == 0 {
            return Err(invalid("max_locations must be positive".into()));
        }
        let rows = v
            .get("blocks")
            .and_then(Value::as_array)
            .ok_or_else(|| invalid("missing `blocks` row array".into()))?;
        let mut h = BlockHistogram {
            block_size,
            granule,
            max_locations,
            sampler,
            blocks: BlockMap::default(),
        };
        // Any block an access can touch starts at a byte offset that fits
        // in u64; coarsening and sampling multiply keys on that premise.
        let max_key = u64::MAX / block_size;
        for row in rows {
            let cells = row
                .as_array()
                .filter(|c| c.len() == ROW_CELLS)
                .ok_or_else(|| invalid(format!("run row is not {ROW_CELLS} cells: {row:?}")))?;
            let cell = |i: usize| {
                let c = &cells[i];
                c.as_u64().ok_or_else(|| invalid(format!("run row cell {i} is not a u64: {c:?}")))
            };
            let (start, len) = (cell(0)?, cell(1)?);
            if len == 0 {
                return Err(invalid(format!("run at block {start} has length 0")));
            }
            if let Some(&(prev, _)) = h.blocks.0.last() {
                if start <= prev {
                    return Err(invalid(format!("run at block {start} does not follow {prev}")));
                }
            }
            let last = start
                .checked_add(len - 1)
                .filter(|&k| k <= max_key)
                .ok_or_else(|| invalid(format!("run {start}+{len} overflows the byte range")))?;
            if len > u64::from(max_locations) - h.blocks.0.len() as u64 {
                return Err(invalid(format!("more than max_locations {max_locations} blocks")));
            }
            let stats = BlockStats {
                reads: cell(2)?,
                writes: cell(3)?,
                bytes_read: cell(4)?,
                bytes_written: cell(5)?,
                first_ns: cell(6)?,
                last_ns: cell(7)?,
                last_was_write: bool::from_value(&cells[8])?,
                repeat_hits: cell(9)?,
            };
            for key in start..=last {
                if !h.tracked(key, block_size) {
                    return Err(invalid(format!("block {key} is not sampled")));
                }
                h.blocks.0.push((key, stats));
            }
        }
        Ok(h)
    }
}

impl BlockHistogram {
    /// Creates a histogram with the given initial resolution and sampler.
    ///
    /// # Panics
    /// Panics if `block_size` is zero, not a power of two, or below
    /// [`MIN_BLOCK`]; or if `max_locations` is zero.
    pub fn new(block_size: u64, max_locations: u32, sampler: SpatialSampler) -> Self {
        assert!(block_size.is_power_of_two() && block_size >= MIN_BLOCK);
        assert!(max_locations > 0);
        Self {
            block_size,
            granule: block_size,
            max_locations,
            sampler,
            blocks: BlockMap::default(),
        }
    }

    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    pub fn sampler(&self) -> SpatialSampler {
        self.sampler
    }

    /// Number of tracked locations (bounded by `max_locations`).
    pub fn tracked_locations(&self) -> usize {
        self.blocks.0.len()
    }

    /// Whether the block starting at `idx * block_size` is tracked under the
    /// sampling rule. The rule hashes the granule index of the block start so
    /// the tracked set is consistent across resolutions and tasks.
    #[inline]
    fn tracked(&self, block_idx: u64, block_size: u64) -> bool {
        let granule_idx = block_idx * (block_size / self.granule);
        self.sampler.tracks(granule_idx)
    }

    /// Records an access of `len` bytes at `offset` at time `now_ns`.
    ///
    /// `repeat` marks a zero-distance re-access (for temporal-locality
    /// accounting on the first touched block).
    pub fn record(&mut self, kind: AccessKind, offset: u64, len: u64, now_ns: u64, repeat: bool) {
        if len == 0 {
            return;
        }
        let first = offset / self.block_size;
        let last = (offset + len - 1) / self.block_size;
        // All stored keys in [first, last] sit in `blocks[lo..hi)`; every
        // stored key is tracked (insertions are sampled, coarsening
        // re-filters), so a single merge cursor pairs them with the index
        // walk below.
        let lo = self.blocks.0.partition_point(|&(k, _)| k < first);
        let hi = lo + self.blocks.0[lo..].partition_point(|&(k, _)| k <= last);
        let mut cur = lo;
        // Blocks not yet tracked, gathered in index order and spliced in
        // afterwards: touching a fresh range costs one bulk move instead of
        // one ordered insertion per block.
        let mut fresh: Vec<(u64, BlockStats)> = Vec::new();
        for idx in first..=last {
            if !self.tracked(idx, self.block_size) {
                continue;
            }
            let blk_start = idx * self.block_size;
            let blk_end = blk_start + self.block_size;
            let span = (offset + len).min(blk_end) - offset.max(blk_start);
            let entry = if cur < hi && self.blocks.0[cur].0 == idx {
                cur += 1;
                &mut self.blocks.0[cur - 1].1
            } else {
                fresh.push((idx, BlockStats { first_ns: now_ns, ..BlockStats::default() }));
                &mut fresh.last_mut().expect("just pushed").1
            };
            match kind {
                AccessKind::Read => {
                    entry.reads += 1;
                    entry.bytes_read += span;
                    entry.last_was_write = false;
                }
                AccessKind::Write => {
                    entry.writes += 1;
                    entry.bytes_written += span;
                    entry.last_was_write = true;
                }
            }
            entry.last_ns = now_ns;
            if repeat && idx == first {
                entry.repeat_hits += 1;
            }
        }
        if !fresh.is_empty() {
            if lo == hi {
                // Nothing tracked in the range yet: contiguous insertion.
                self.blocks.0.splice(lo..lo, fresh);
            } else {
                // Interleave the new entries with the surviving range.
                let mut merged = Vec::with_capacity(hi - lo + fresh.len());
                let mut f = fresh.into_iter().peekable();
                for &old in &self.blocks.0[lo..hi] {
                    while f.peek().is_some_and(|n| n.0 < old.0) {
                        merged.push(f.next().expect("peeked"));
                    }
                    merged.push(old);
                }
                merged.extend(f);
                self.blocks.0.splice(lo..hi, merged);
            }
        }
        while self.blocks.0.len() > self.max_locations as usize {
            self.coarsen();
        }
    }

    /// Doubles the block size, merging buckets pairwise. Buckets whose merged
    /// index is no longer in the sampled set are dropped (the sampled set at
    /// the coarser resolution is a deterministic function of location, so all
    /// tasks converge on the same set).
    pub fn coarsen(&mut self) {
        let new_size = self.block_size * 2;
        let old = std::mem::take(&mut self.blocks.0);
        // Keys are sorted, so merged indices arrive non-decreasing and pair
        // merging is a single in-order pass.
        let mut merged: Vec<(u64, BlockStats)> = Vec::with_capacity(old.len() / 2 + 1);
        for (idx, stats) in old {
            let new_idx = idx / 2;
            let granule_idx = new_idx * (new_size / self.granule);
            if !self.sampler.tracks(granule_idx) {
                continue;
            }
            match merged.last_mut() {
                Some(tail) if tail.0 == new_idx => tail.1.merge(&stats),
                _ => merged.push((new_idx, stats)),
            }
        }
        self.block_size = new_size;
        self.blocks.0 = merged;
    }

    /// Coarsens until the block size reaches `target` (a power-of-two
    /// multiple of the current size). Used at export so every task's
    /// histogram for a file shares the file's final resolution.
    pub fn coarsen_to(&mut self, target: u64) {
        assert!(target >= self.block_size && target.is_power_of_two());
        while self.block_size < target {
            self.coarsen();
        }
    }

    /// Iterates tracked `(block_index, stats)` pairs in index order.
    pub fn iter_sorted(&self) -> Vec<(u64, BlockStats)> {
        self.blocks.0.clone()
    }

    /// Estimated number of *unique* blocks read, scaled for sampling.
    pub fn unique_blocks_read_est(&self) -> f64 {
        let n = self.blocks.0.iter().filter(|(_, s)| s.reads > 0).count();
        n as f64 * self.sampler.scale()
    }

    /// Estimated number of unique blocks written, scaled for sampling.
    pub fn unique_blocks_written_est(&self) -> f64 {
        let n = self.blocks.0.iter().filter(|(_, s)| s.writes > 0).count();
        n as f64 * self.sampler.scale()
    }

    /// Estimated unique bytes read (footprint), scaled for sampling.
    pub fn footprint_read_est(&self) -> f64 {
        // Use actual covered bytes per block (not whole blocks) to stay
        // accurate for files smaller than one block.
        let covered: u64 = self
            .blocks
            .0
            .iter()
            .filter(|(_, s)| s.reads > 0)
            .map(|(_, s)| s.bytes_read.min(self.block_size))
            .sum();
        covered as f64 * self.sampler.scale()
    }

    /// Estimated unique bytes written (footprint), scaled for sampling.
    pub fn footprint_written_est(&self) -> f64 {
        let covered: u64 = self
            .blocks
            .0
            .iter()
            .filter(|(_, s)| s.writes > 0)
            .map(|(_, s)| s.bytes_written.min(self.block_size))
            .sum();
        covered as f64 * self.sampler.scale()
    }

    /// Mean accesses per touched block — an intra-task reuse indicator.
    pub fn mean_accesses_per_block(&self) -> f64 {
        if self.blocks.0.is_empty() {
            return 0.0;
        }
        let total: u64 = self.blocks.0.iter().map(|(_, s)| s.reads + s.writes).sum();
        total as f64 / self.blocks.0.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(block: u64, max_loc: u32) -> BlockHistogram {
        BlockHistogram::new(block, max_loc, SpatialSampler::keep_all(0))
    }

    #[test]
    fn sequential_reads_fill_blocks() {
        let mut h = hist(4096, 1024);
        for i in 0..8 {
            h.record(AccessKind::Read, i * 4096, 4096, i, false);
        }
        assert_eq!(h.tracked_locations(), 8);
        assert_eq!(h.unique_blocks_read_est(), 8.0);
        assert_eq!(h.footprint_read_est(), 8.0 * 4096.0);
    }

    #[test]
    fn access_spanning_blocks_splits_bytes() {
        let mut h = hist(4096, 1024);
        h.record(AccessKind::Read, 2048, 4096, 0, false);
        let blocks = h.iter_sorted();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].1.bytes_read, 2048);
        assert_eq!(blocks[1].1.bytes_read, 2048);
    }

    #[test]
    fn coarsening_respects_location_bound() {
        let mut h = hist(4096, 4);
        for i in 0..64 {
            h.record(AccessKind::Write, i * 4096, 4096, i, false);
        }
        assert!(h.tracked_locations() <= 4);
        assert!(h.block_size() > 4096);
        // Volume is conserved through merges (no sampling here).
        let total: u64 = h.iter_sorted().iter().map(|(_, s)| s.bytes_written).sum();
        assert_eq!(total, 64 * 4096);
    }

    #[test]
    fn repeat_hits_counted_on_first_block() {
        let mut h = hist(4096, 16);
        h.record(AccessKind::Read, 0, 100, 0, false);
        h.record(AccessKind::Read, 0, 100, 1, true);
        h.record(AccessKind::Read, 0, 100, 2, true);
        let blocks = h.iter_sorted();
        assert_eq!(blocks[0].1.repeat_hits, 2);
        assert_eq!(blocks[0].1.reads, 3);
    }

    #[test]
    fn sampling_scales_unique_estimates() {
        let sampler = SpatialSampler::with_rate(100, 25, 11);
        let mut h = BlockHistogram::new(4096, 100_000, sampler);
        let n = 10_000u64;
        for i in 0..n {
            h.record(AccessKind::Read, i * 4096, 4096, i, false);
        }
        let est = h.unique_blocks_read_est();
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.05, "estimate {est} vs {n}");
        assert!(h.tracked_locations() < 3_000);
    }

    #[test]
    fn coarsen_to_reaches_target_resolution() {
        let mut h = hist(4096, 1 << 20);
        for i in 0..32 {
            h.record(AccessKind::Read, i * 4096, 4096, 0, false);
        }
        h.coarsen_to(65536);
        assert_eq!(h.block_size(), 65536);
        assert_eq!(h.tracked_locations(), 2);
    }

    #[test]
    fn zero_len_access_ignored() {
        let mut h = hist(4096, 16);
        h.record(AccessKind::Read, 0, 0, 0, false);
        assert_eq!(h.tracked_locations(), 0);
    }

    #[test]
    fn interleaved_inserts_stay_sorted() {
        // Touch even blocks, then a range spanning them: the new odd blocks
        // must interleave with the existing even entries in key order.
        let mut h = hist(4096, 1024);
        for i in [0u64, 2, 4, 6] {
            h.record(AccessKind::Read, i * 4096, 4096, i, false);
        }
        h.record(AccessKind::Write, 0, 8 * 4096, 10, false);
        let blocks = h.iter_sorted();
        let keys: Vec<u64> = blocks.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(blocks[2].1.reads, 1);
        assert_eq!(blocks[2].1.writes, 1);
        assert_eq!(blocks[3].1.reads, 0);
        assert_eq!(blocks[3].1.writes, 1);
        // Pre-existing blocks keep their original first-access stamp.
        assert_eq!(blocks[2].1.first_ns, 2);
        assert_eq!(blocks[3].1.first_ns, 10);
    }

    #[test]
    fn wire_form_is_one_row_per_run() {
        let mut h = hist(4096, 1024);
        h.record(AccessKind::Read, 0, 3 * 4096, 7, false);
        h.record(AccessKind::Write, 5 * 4096, 4096, 9, false);
        let v = h.to_value();
        // Three identical neighbours collapse into one row; the gap at
        // blocks 3-4 starts a second.
        let rows: Vec<String> = v["blocks"]
            .as_array()
            .expect("blocks array")
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        assert_eq!(rows, ["[0,3,1,0,4096,0,7,7,false,0]", "[5,1,0,1,0,4096,9,9,true,0]"]);
        assert_eq!(BlockHistogram::from_value(&v).unwrap(), h);
    }

    /// `h`'s wire value with field `key` replaced by `val`.
    fn with_field(h: &BlockHistogram, key: &str, val: Value) -> Value {
        let mut v = h.to_value();
        if let Value::Object(fields) = &mut v {
            for (k, x) in fields.iter_mut() {
                if k == key {
                    *x = val.clone();
                }
            }
        }
        v
    }

    /// One run-length row of `len` single-read blocks from `start`.
    fn row(start: u64, len: u64) -> Value {
        serde_json::from_str(&format!("[{start},{len},1,0,4096,0,0,0,false,0]")).unwrap()
    }

    fn with_rows(h: &BlockHistogram, rows: Vec<Value>) -> Value {
        with_field(h, "blocks", Value::Array(rows))
    }

    #[test]
    fn decoder_rejects_each_broken_invariant() {
        let h = hist(4096, 8);
        let n = |x: u64| x.to_value();
        let old_pair: Value = serde_json::from_str(
            r#"[0,{"reads":1,"writes":0,"bytes_read":4096,"bytes_written":0,
                "first_ns":0,"last_ns":0,"last_was_write":false,"repeat_hits":0}]"#,
        )
        .unwrap();
        let short_row: Value = serde_json::from_str("[0,1,1,0,4096,0,0,0,false]").unwrap();
        let cases = [
            ("zero block size", with_field(&h, "block_size", n(0)), "powers of two"),
            ("odd block size", with_field(&h, "block_size", n(12288)), "powers of two"),
            ("odd granule", with_field(&h, "granule", n(6144)), "powers of two"),
            ("granule below MIN_BLOCK", with_field(&h, "granule", n(2048)), "must lie in"),
            ("granule above block size", with_field(&h, "granule", n(8192)), "must lie in"),
            ("zero max_locations", with_field(&h, "max_locations", n(0)), "must be positive"),
            ("too many blocks", with_rows(&h, vec![row(0, 5), row(6, 4)]), "max_locations"),
            ("empty run", with_rows(&h, vec![row(3, 0)]), "length 0"),
            ("repeated key", with_rows(&h, vec![row(0, 2), row(1, 1)]), "does not follow"),
            ("descending runs", with_rows(&h, vec![row(4, 1), row(0, 1)]), "does not follow"),
            ("start + len overflow", with_rows(&h, vec![row(u64::MAX, 2)]), "overflows"),
            ("key past u64 bytes", with_rows(&h, vec![row(u64::MAX / 4096 + 1, 1)]), "overflows"),
            ("short row", with_rows(&h, vec![short_row]), "10 cells"),
            ("old [key, stats] pair", with_rows(&h, vec![old_pair]), "10 cells"),
        ];
        for (why, v, expect) in cases {
            match BlockHistogram::from_value(&v) {
                Err(e) => assert!(e.0.contains(expect), "{why}: {e}"),
                Ok(_) => panic!("{why}: accepted"),
            }
        }
        // The unedited value decodes, so each rejection above is the edit's.
        assert!(BlockHistogram::from_value(&with_rows(&h, vec![row(0, 5), row(6, 3)])).is_ok());

        // A block the sampler skips cannot come from recording.
        let sampler = SpatialSampler::with_rate(4, 1, 3);
        let skipped = (0..).find(|&k| !sampler.tracks(k)).unwrap();
        let sampled = BlockHistogram::new(4096, 8, sampler);
        let err = BlockHistogram::from_value(&with_rows(&sampled, vec![row(skipped, 1)]));
        assert!(err.is_err_and(|e| e.0.contains("not sampled")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// decode(encode(h)) == h, and re-encoding is byte-identical, over
        /// random read/write mixes with location-bound and explicit
        /// coarsening, with and without sampling gaps between keys.
        #[test]
        fn wire_form_round_trips(
            ops in proptest::collection::vec(
                (proptest::any::<bool>(), 0u64..96, 1u64..24 * 4096, proptest::any::<bool>()),
                0..32,
            ),
            max_locations in 4u32..96,
            modulus in 1u64..5,
            extra_coarsen in 0u32..3,
        ) {
            let sampler = match modulus {
                1 => SpatialSampler::keep_all(9),
                m => SpatialSampler::with_rate(m, 1, 9),
            };
            let mut h = BlockHistogram::new(4096, max_locations, sampler);
            for (t, &(write, block, len, repeat)) in ops.iter().enumerate() {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                // Offsets straddle block boundaries half the time.
                h.record(kind, block * 2048, len, t as u64 / 3, repeat);
            }
            for _ in 0..extra_coarsen {
                h.coarsen();
            }
            let json = serde_json::to_string(&h).unwrap();
            let back: BlockHistogram = serde_json::from_str(&json).unwrap();
            proptest::prop_assert_eq!(&back, &h);
            proptest::prop_assert_eq!(serde_json::to_string(&back).unwrap(), json);
        }
    }

    #[test]
    fn last_op_tracks_most_recent_writer() {
        let mut h = hist(4096, 16);
        h.record(AccessKind::Write, 0, 10, 5, false);
        h.record(AccessKind::Read, 0, 10, 6, false);
        assert!(!h.iter_sorted()[0].1.last_was_write);
    }
}
