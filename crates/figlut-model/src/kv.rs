//! Paged KV storage: a refcounted [`BlockPool`], per-session block tables,
//! copy-on-write prefix sharing, and preempt-to-host swap images.
//!
//! Every resident [`KvCache`] is a vLLM-style block table into a pool; there
//! is no other layout. A cache from
//! [`Transformer::new_cache`](crate::transformer::Transformer::new_cache)
//! draws from a private, unbounded pool whose one block holds the whole
//! context (`max_seq` positions), so its rows form one run. A serving pool
//! uses smaller blocks, so that sessions can share prefixes and be
//! preempted. The block size never touches the *numerics*:
//!
//! * **Blocks.** A [`BlockPool`] owns fixed-size blocks (`block_size`
//!   positions × all layers × K and V rows), refcounted and recycled
//!   through a free list. Allocation order is deterministic (LIFO free
//!   list), so every run is bit-reproducible.
//! * **Block tables.** A [`KvCache`] maps logical positions to blocks.
//!   Attention in [`crate::transformer::Transformer::forward_batch`] reads
//!   one layer's rows in place through a crate-internal `LayerView`: one
//!   `rows × d_model` K and V slice per block, positions ascending. The
//!   stored `f64` values and the read order — and therefore every
//!   downstream bit — are the same for every block size.
//! * **Prefix sharing (copy-on-write, compute skipped).** A
//!   [`PrefixRegistry`] maps prompt prefixes (keyed by an FNV-1a hash,
//!   verified by exact token comparison so collisions are harmless) to the
//!   blocks holding their K/V rows. A new session *adopts* the longest
//!   matching prefix: its table references the shared blocks, and the
//!   cache counts the adopted rows as consumed — all but the prompt's last
//!   row, which always runs because it samples the first token. Sound
//!   because K/V rows are a deterministic function of the token prefix:
//!   the adopter would have computed bit-identical rows. When the whole
//!   prompt is shared, that last row's write lands below the adopted
//!   length and is a no-op (debug builds assert the bits match). The
//!   first write *past* the shared prefix into a still-shared block
//!   triggers copy-on-write. An adopter's prefill therefore runs only its
//!   private rows, so sharing cuts compute, ticks and priced energy as well
//!   as resident bytes.
//! * **Swap images.** [`KvCache::swap_out`] copies a session's rows to a
//!   host-side [`SwappedKv`] image and frees its blocks;
//!   [`KvCache::restore`] re-allocates and copies back. Contents round-trip
//!   bit-exactly, which is what makes scheduler preemption invisible to
//!   the token stream.
//! * **Checksums (per pool).** In a pool built
//!   [`with_checksums`](BlockPool::with_checksums), every block write
//!   re-stamps an FNV-1a checksum of the block's K/V bits and
//!   [`KvCache::verify_checksums`] detects silent corruption (injected
//!   through [`KvCache::corrupt_row`] by the serving layer's fault plans).
//!   Off by default; the flag is read under the pool lock each site
//!   already holds.

use std::sync::{Arc, Mutex, MutexGuard};

/// FNV-1a over raw `f64` bit patterns — the per-block checksum kernel.
fn fnv1a_f64(h: &mut u64, data: &[f64]) {
    for &x in data {
        for byte in x.to_bits().to_le_bytes() {
            *h ^= u64::from(byte);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One pool block: refcount plus K and V storage for `block_size`
/// positions across every layer (`layers × block_size × d_model` each).
#[derive(Debug)]
struct Block {
    refs: usize,
    keys: Vec<f64>,
    values: Vec<f64>,
    /// FNV-1a over the block's K/V bits, maintained only in a pool
    /// [`BlockPool::with_checksums`] — stale (and never read) otherwise.
    sum: u64,
}

#[derive(Debug)]
struct PoolInner {
    block_size: usize,
    layers: usize,
    d_model: usize,
    /// Maximum live (allocated, unfreed) blocks; `None` = unbounded.
    capacity: Option<usize>,
    /// Maintain and verify per-block checksums.
    checksums: bool,
    blocks: Vec<Block>,
    /// Freed slab indices, reused LIFO (deterministic).
    free: Vec<usize>,
    live: usize,
    peak_live: usize,
}

impl PoolInner {
    fn alloc(&mut self) -> usize {
        if let Some(cap) = self.capacity {
            assert!(
                self.live < cap,
                "block pool exhausted ({cap} blocks) — the scheduler must preempt before stepping"
            );
        }
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        match self.free.pop() {
            Some(id) => {
                debug_assert_eq!(self.blocks[id].refs, 0);
                self.blocks[id].refs = 1;
                id
            }
            None => {
                let elems = self.layers * self.block_size * self.d_model;
                self.blocks.push(Block {
                    refs: 1,
                    keys: vec![0.0; elems],
                    values: vec![0.0; elems],
                    sum: 0,
                });
                self.blocks.len() - 1
            }
        }
    }

    /// Recompute block `id`'s checksum over its current contents.
    fn restamp(&mut self, id: usize) {
        self.blocks[id].sum = self.current_sum(id);
    }

    /// Recompute block `id`'s checksum without storing it.
    fn current_sum(&self, id: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let b = &self.blocks[id];
        fnv1a_f64(&mut h, &b.keys);
        fnv1a_f64(&mut h, &b.values);
        h
    }

    fn ref_inc(&mut self, id: usize) {
        assert!(self.blocks[id].refs > 0, "ref_inc on a freed block");
        self.blocks[id].refs += 1;
    }

    fn ref_dec(&mut self, id: usize) {
        let b = &mut self.blocks[id];
        assert!(b.refs > 0, "double free of KV block {id}");
        b.refs -= 1;
        if b.refs == 0 {
            self.live -= 1;
            self.free.push(id);
        }
    }

    /// Flat offset of `(layer, position-in-block)` row starts.
    fn row_off(&self, li: usize, off: usize) -> usize {
        (li * self.block_size + off) * self.d_model
    }
}

/// A shared, refcounted pool of fixed-size KV blocks.
///
/// Cloning the handle is cheap (it shares the pool). All operations are
/// deterministic: the free list is LIFO, so identical operation sequences
/// produce identical block placements — and block placement never affects
/// values anyway, since reads go by logical position.
#[derive(Clone, Debug)]
pub struct BlockPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl BlockPool {
    /// A pool of blocks holding `block_size` positions for a model with
    /// `layers` layers of width `d_model`, optionally capped at `capacity`
    /// live blocks.
    ///
    /// # Panics
    ///
    /// Panics on a zero `block_size`, `layers`, `d_model`, or capacity.
    pub fn new(block_size: usize, layers: usize, d_model: usize, capacity: Option<usize>) -> Self {
        assert!(block_size >= 1, "block_size must be at least 1");
        assert!(layers >= 1 && d_model >= 1, "degenerate model shape");
        if let Some(cap) = capacity {
            assert!(cap >= 1, "pool capacity must be at least 1");
        }
        Self {
            inner: Arc::new(Mutex::new(PoolInner {
                block_size,
                layers,
                d_model,
                capacity,
                checksums: false,
                blocks: Vec::new(),
                free: Vec::new(),
                live: 0,
                peak_live: 0,
            })),
        }
    }

    /// A pool shaped for `cfg` (its layer count and hidden width).
    pub fn for_model(
        cfg: &crate::transformer::ModelConfig,
        block_size: usize,
        capacity: Option<usize>,
    ) -> Self {
        Self::new(block_size, cfg.layers, cfg.d_model, capacity)
    }

    /// Turn the per-block checksum pass on or off for this pool (every
    /// handle sharing it). Call before the first block write: blocks
    /// written while the pass was off carry no valid stamp.
    #[must_use]
    pub fn with_checksums(self, enabled: bool) -> Self {
        self.lock().checksums = enabled;
        self
    }

    /// `true` when both handles share one pool.
    fn same(&self, other: &BlockPool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        // Recover from poisoning: a panic mid-operation (e.g. the capacity
        // assert) must not cascade into aborts when caches drop during
        // unwinding. Pool bookkeeping is updated before any panic point.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Positions per block.
    pub fn block_size(&self) -> usize {
        self.lock().block_size
    }

    /// Decoder layers the pool stores rows for.
    pub fn layers(&self) -> usize {
        self.lock().layers
    }

    /// Hidden width of a cached row.
    pub fn d_model(&self) -> usize {
        self.lock().d_model
    }

    /// Live (allocated, unfreed) blocks right now.
    pub fn live_blocks(&self) -> usize {
        self.lock().live
    }

    /// High-water mark of live blocks over the pool's lifetime.
    pub fn peak_live_blocks(&self) -> usize {
        self.lock().peak_live
    }

    /// The live-block cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.lock().capacity
    }

    /// Live blocks that can still be allocated (`usize::MAX` when
    /// unbounded).
    pub fn available_blocks(&self) -> usize {
        let p = self.lock();
        p.capacity.map_or(usize::MAX, |c| c - p.live)
    }

    /// Host bytes of one block's K+V storage (`2 × layers × block_size ×
    /// d_model` f64 values).
    pub fn bytes_per_block(&self) -> usize {
        let p = self.lock();
        2 * p.layers * p.block_size * p.d_model * std::mem::size_of::<f64>()
    }
}

/// A paged KV cache: a block table into a [`BlockPool`].
///
/// `lens[li]` counts the rows layer `li` has written (layers advance in
/// order within one forward step, so lengths differ by at most one row
/// mid-step and are equal between steps). `shared_len` marks the adopted
/// prefix. Adoption starts `lens` at most one row below it (a wholly shared
/// prompt's last row), and a write below it is a no-op against the
/// already-shared data.
#[derive(Debug)]
pub struct PagedKv {
    pool: BlockPool,
    table: Vec<usize>,
    lens: Vec<usize>,
    shared_len: usize,
}

impl PagedKv {
    fn block_size(&self) -> usize {
        // Cached nowhere: one lock per query keeps the struct minimal and
        // these paths are far from hot.
        self.pool.block_size()
    }

    fn len(&self) -> usize {
        self.lens.first().copied().unwrap_or(0)
    }

    /// Copy-on-write: give this table a private copy of block `b`,
    /// carrying over every row a layer has validly written into it.
    fn cow(&mut self, b: usize) {
        let mut p = self.pool.lock();
        let old = self.table[b];
        if p.blocks[old].refs == 1 {
            return;
        }
        figlut_trace::counters::bump_kv_cow_copies(1);
        let new = p.alloc();
        let bs = p.block_size;
        let d = p.d_model;
        for (li, &len) in self.lens.iter().enumerate() {
            // Rows below `shared_len` are valid in *every* layer (the
            // prefix owner wrote them all), even while this session's own
            // per-layer cursors still lag behind mid-step.
            let rows = len.max(self.shared_len).saturating_sub(b * bs).min(bs);
            if rows == 0 {
                continue;
            }
            let lo = p.row_off(li, 0);
            let hi = lo + rows * d;
            let (keys, values) = {
                let src = &p.blocks[old];
                (src.keys[lo..hi].to_vec(), src.values[lo..hi].to_vec())
            };
            let dst = &mut p.blocks[new];
            dst.keys[lo..hi].copy_from_slice(&keys);
            dst.values[lo..hi].copy_from_slice(&values);
        }
        if p.checksums {
            p.restamp(new);
        }
        p.ref_dec(old);
        self.table[b] = new;
    }

    fn push_row(&mut self, li: usize, k: &[f64], v: &[f64]) {
        let pos = self.lens[li];
        if pos < self.shared_len {
            // The last row of a wholly adopted prompt: already stored
            // (bit-identical by determinism — the adopter computes the same
            // K/V from the same token prefix). Debug builds verify it.
            #[cfg(debug_assertions)]
            {
                let p = self.pool.lock();
                let (b, off) = (pos / p.block_size, pos % p.block_size);
                let lo = p.row_off(li, off);
                let blk = &p.blocks[self.table[b]];
                debug_assert_eq!(
                    &blk.keys[lo..lo + p.d_model],
                    k,
                    "shared-prefix K row diverged at layer {li} pos {pos}"
                );
                debug_assert_eq!(
                    &blk.values[lo..lo + p.d_model],
                    v,
                    "shared-prefix V row diverged at layer {li} pos {pos}"
                );
            }
            self.lens[li] += 1;
            return;
        }
        let bs = self.block_size();
        let (b, off) = (pos / bs, pos % bs);
        if b == self.table.len() {
            let id = self.pool.lock().alloc();
            self.table.push(id);
        } else {
            self.cow(b);
        }
        let mut p = self.pool.lock();
        let lo = p.row_off(li, off);
        let d = p.d_model;
        let blk = &mut p.blocks[self.table[b]];
        blk.keys[lo..lo + d].copy_from_slice(k);
        blk.values[lo..lo + d].copy_from_slice(v);
        if p.checksums {
            p.restamp(self.table[b]);
        }
        drop(p);
        self.lens[li] += 1;
    }

    /// Layer `li`'s rows in place, with the pool locked.
    fn layer_view(&self, li: usize) -> LayerView<'_> {
        LayerView {
            pool: self.pool.lock(),
            table: &self.table,
            li,
        }
    }

    fn release(&mut self) {
        let mut p = self.pool.lock();
        for &id in &self.table {
            p.ref_dec(id);
        }
        drop(p);
        self.table.clear();
    }
}

impl Clone for PagedKv {
    fn clone(&self) -> Self {
        let mut p = self.pool.lock();
        for &id in &self.table {
            p.ref_inc(id);
        }
        drop(p);
        Self {
            pool: self.pool.clone(),
            table: self.table.clone(),
            lens: self.lens.clone(),
            shared_len: self.shared_len,
        }
    }
}

impl Drop for PagedKv {
    fn drop(&mut self) {
        self.release();
    }
}

/// Every layer's rows of `table` as flat `[layer][position][d_model]` K
/// and V images, layer `li` holding `lens[li]` positions, copied run by
/// run.
fn image_of(pool: &BlockPool, table: &[usize], lens: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let size = lens.iter().sum::<usize>() * pool.d_model();
    let (mut keys, mut values) = (Vec::with_capacity(size), Vec::with_capacity(size));
    for (li, &len) in lens.iter().enumerate() {
        let view = LayerView {
            pool: pool.lock(),
            table,
            li,
        };
        for (k, v) in view.runs(len) {
            keys.extend_from_slice(k);
            values.extend_from_slice(v);
        }
    }
    (keys, values)
}

/// A preempted session's KV contents, copied to host memory. Restoring
/// copies the same bits back into freshly allocated blocks, so a
/// preempt/restore round trip is invisible to the session's numerics.
#[derive(Clone, Debug)]
pub struct SwappedKv {
    pool: BlockPool,
    len: usize,
    /// `[layer][position][d_model]`, flattened.
    keys: Vec<f64>,
    values: Vec<f64>,
}

impl SwappedKv {
    /// Blocks a copy back into the pool allocates.
    fn blocks(&self) -> usize {
        self.len.div_ceil(self.pool.block_size())
    }

    /// Copy the image into freshly allocated blocks of its pool, one
    /// (layer, block) run per copy.
    fn to_paged(&self) -> PagedKv {
        let len = self.len;
        let mut paged = PagedKv {
            pool: self.pool.clone(),
            table: Vec::new(),
            lens: vec![len; self.pool.layers()],
            shared_len: 0,
        };
        let mut pool = paged.pool.lock();
        let (bs, d, layers) = (pool.block_size, pool.d_model, pool.layers);
        for start in (0..len).step_by(bs) {
            let id = pool.alloc();
            paged.table.push(id);
            let n = (len - start).min(bs) * d;
            for li in 0..layers {
                let (src, lo) = ((li * len + start) * d, pool.row_off(li, 0));
                let blk = &mut pool.blocks[id];
                blk.keys[lo..lo + n].copy_from_slice(&self.keys[src..src + n]);
                blk.values[lo..lo + n].copy_from_slice(&self.values[src..src + n]);
            }
            if pool.checksums {
                pool.restamp(id);
            }
        }
        drop(pool);
        paged
    }

    /// Re-target the image at `pool`.
    ///
    /// # Panics
    ///
    /// Panics when `pool`'s shape (block size, layers, width) differs from
    /// the image's original pool.
    fn rebind(&mut self, pool: &BlockPool) {
        assert!(
            self.pool.block_size() == pool.block_size()
                && self.pool.layers() == pool.layers()
                && self.pool.d_model() == pool.d_model(),
            "rebind_pool across differently shaped pools"
        );
        self.pool = pool.clone();
    }
}

/// One side (K or V) of a materialized cache: `[layer][position][d_model]`.
pub type KvSnapshot = Vec<Vec<Vec<f64>>>;

/// Split a flat `[layer][position][d]` image into per-layer rows, layer
/// `li` holding `lens[li]` positions.
fn split_image(flat: &[f64], lens: &[usize], d: usize) -> KvSnapshot {
    let mut rest = flat;
    lens.iter()
        .map(|&len| {
            let (layer, tail) = rest.split_at(len * d);
            rest = tail;
            layer.chunks(d).map(<[f64]>::to_vec).collect()
        })
        .collect()
}

/// Per-layer cached key/value rows for incremental decoding.
///
/// A resident cache is a block table into a [`BlockPool`]: a serving pool
/// many sessions share, or the private one-block pool of
/// [`Transformer::new_cache`](crate::transformer::Transformer::new_cache).
/// A preempted session's cache is a host-side swap image instead. Both
/// expose logical positions, and which block holds a row never changes
/// its bits.
#[derive(Clone, Debug)]
pub enum KvCache {
    /// A block table into a [`BlockPool`].
    Paged(PagedKv),
    /// Swapped out to host: contents preserved, no blocks held. Stepping a
    /// session in this state is a scheduler bug and panics.
    Swapped(SwappedKv),
}

/// One layer's K/V rows, read in place: the view holds the pool's lock,
/// and [`LayerView::runs`] yields one `rows × d_model` K and V slice per
/// block of the table, positions ascending. A one-block cache is one run.
/// The slices are the stored rows themselves, so every reader sees the
/// same bits in the same order whatever the block size.
pub(crate) struct LayerView<'a> {
    pool: MutexGuard<'a, PoolInner>,
    table: &'a [usize],
    li: usize,
}

impl LayerView<'_> {
    /// The `(keys, values)` runs of positions `0..n`, one per block.
    pub(crate) fn runs(&self, n: usize) -> impl Iterator<Item = (&[f64], &[f64])> + '_ {
        let (bs, d) = (self.pool.block_size, self.pool.d_model);
        let lo = self.pool.row_off(self.li, 0);
        let starts = (0..n).step_by(bs);
        self.table.iter().zip(starts).map(move |(&id, start)| {
            let hi = lo + (n - start).min(bs) * d;
            let b = &self.pool.blocks[id];
            (&b.keys[lo..hi], &b.values[lo..hi])
        })
    }
}

impl KvCache {
    /// An empty cache drawing blocks from `pool`.
    pub fn paged(pool: &BlockPool) -> Self {
        let layers = pool.layers();
        KvCache::Paged(PagedKv {
            pool: pool.clone(),
            table: Vec::new(),
            lens: vec![0; layers],
            shared_len: 0,
        })
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        match self {
            KvCache::Paged(p) => p.len(),
            KvCache::Swapped(s) => s.len,
        }
    }

    /// `true` if nothing has been decoded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` for a preempted (host-resident) cache.
    pub fn is_swapped(&self) -> bool {
        matches!(self, KvCache::Swapped(_))
    }

    /// Pool blocks that appending `rows` more positions will allocate
    /// (fresh tail blocks plus a copy-on-write of a still-shared block the
    /// first private write lands in). A swapped cache cannot append (see
    /// [`KvCache::restore_blocks`]).
    ///
    /// The estimate is exact at call time and can only over-count later
    /// (a shared block's refcount may drop before the write, skipping the
    /// copy) — safe for capacity planning, never under-reserving.
    pub fn blocks_needed(&self, rows: usize) -> usize {
        let KvCache::Paged(p) = self else { return 0 };
        let start = p.len().max(p.shared_len);
        let end = p.len() + rows;
        if start >= end {
            return 0;
        }
        let bs = p.block_size();
        let pool = p.pool.lock();
        (start / bs..=(end - 1) / bs)
            .filter(|&b| b >= p.table.len() || pool.blocks[p.table[b]].refs > 1)
            .count()
    }

    /// Blocks a swapped cache needs to [`restore`](KvCache::restore)
    /// (0 for resident caches).
    pub fn restore_blocks(&self) -> usize {
        match self {
            KvCache::Swapped(s) => s.blocks(),
            KvCache::Paged(_) => 0,
        }
    }

    /// Preempt: copy every cached row to a host-side image and free the
    /// blocks. Returns the number of positions copied (the swap traffic,
    /// in KV rows).
    ///
    /// # Panics
    ///
    /// Panics on an already-swapped cache, or mid-step (when layers
    /// disagree on length).
    pub fn swap_out(&mut self) -> usize {
        let KvCache::Paged(p) = self else {
            panic!("swap_out on a swapped-out cache");
        };
        let len = p.len();
        assert!(
            p.lens.iter().all(|&l| l == len),
            "swap_out mid-step: layer lengths disagree"
        );
        let (keys, values) = image_of(&p.pool, &p.table, &p.lens);
        let image = SwappedKv {
            pool: p.pool.clone(),
            len,
            keys,
            values,
        };
        p.release();
        *self = KvCache::Swapped(image);
        figlut_trace::counters::bump_kv_swap_out_rows(len as u64);
        len
    }

    /// Re-admit a preempted cache: allocate fresh blocks and copy the host
    /// image back, bit-exactly. Any prefix sharing the session had before
    /// preemption is not re-established (its blocks are private now).
    /// Returns the number of positions copied.
    ///
    /// # Panics
    ///
    /// Panics on a cache that is not swapped out.
    pub fn restore(&mut self) -> usize {
        let KvCache::Swapped(s) = self else {
            panic!("restore on a cache that is not swapped out");
        };
        let len = s.len;
        *self = KvCache::Paged(s.to_paged());
        figlut_trace::counters::bump_kv_swap_in_rows(len as u64);
        len
    }

    /// Append layer `li`'s K/V row at that layer's current position.
    pub(crate) fn push_row(&mut self, li: usize, k: &[f64], v: &[f64]) {
        match self {
            KvCache::Paged(p) => p.push_row(li, k, v),
            KvCache::Swapped(_) => {
                panic!("KV write to a swapped-out cache — restore before stepping")
            }
        }
    }

    /// Attention's in-place view of layer `li`; it holds the pool's lock
    /// until dropped.
    pub(crate) fn layer_view(&self, li: usize) -> LayerView<'_> {
        match self {
            KvCache::Paged(p) => p.layer_view(li),
            KvCache::Swapped(_) => {
                panic!("KV read from a swapped-out cache — restore before stepping")
            }
        }
    }

    /// Verify every resident block's stored checksum against its current
    /// contents: `Err(table_index)` names the first corrupted block.
    ///
    /// Vacuously `Ok` unless the pool was built
    /// [`with_checksums`](BlockPool::with_checksums), and for swapped
    /// caches (host images are never silently mutated in this model). A
    /// detected mismatch bumps the `kv_checksum_faults` trace counter.
    pub fn verify_checksums(&self) -> Result<(), usize> {
        let KvCache::Paged(p) = self else {
            return Ok(());
        };
        let pool = p.pool.lock();
        if !pool.checksums {
            return Ok(());
        }
        for (b, &id) in p.table.iter().enumerate() {
            if pool.current_sum(id) != pool.blocks[id].sum {
                figlut_trace::counters::bump_kv_checksum_faults(1);
                return Err(b);
            }
        }
        Ok(())
    }

    /// Fault-injection support: silently flip one stored bit (the mantissa
    /// LSB of one cached `f64`, chosen deterministically from `salt`)
    /// *without* re-stamping the block's checksum — modelling a device-side
    /// upset that only [`KvCache::verify_checksums`] can catch. Returns
    /// `false` (and injects nothing) on swapped or empty caches.
    ///
    /// Callers must only corrupt caches whose blocks are private (e.g. a
    /// freshly restored session); corrupting a shared block would alias the
    /// fault into innocent sessions.
    pub fn corrupt_row(&mut self, salt: u64) -> bool {
        let KvCache::Paged(p) = self else {
            return false;
        };
        let len = p.len();
        if len == 0 {
            return false;
        }
        let mut pool = p.pool.lock();
        let (bs, d, layers) = (pool.block_size, pool.d_model, pool.layers);
        let pos = salt as usize % len;
        let li = (salt >> 16) as usize % layers;
        let j = (salt >> 32) as usize % d;
        let lo = pool.row_off(li, pos % bs);
        let blk = &mut pool.blocks[p.table[pos / bs]];
        let bits = blk.keys[lo + j].to_bits();
        blk.keys[lo + j] = f64::from_bits(bits ^ 1);
        true
    }

    /// Re-target a swapped-out cache at `pool`, so a checkpointed host
    /// image can be restored into a fresh pool after the pool that wrote
    /// it died with a crashed run.
    ///
    /// # Panics
    ///
    /// Panics on a resident cache or when `pool`'s shape (block size,
    /// layers, width) differs from the image's original pool.
    pub fn rebind_pool(&mut self, pool: &BlockPool) {
        let KvCache::Swapped(s) = self else {
            panic!("rebind_pool on a cache that is not swapped out");
        };
        s.rebind(pool);
    }

    /// Materialize the full contents as `([layer][pos][d] keys, values)` —
    /// the same for every block size and for a swap image, for tests and
    /// differential checks.
    pub fn snapshot(&self) -> (KvSnapshot, KvSnapshot) {
        match self {
            KvCache::Paged(p) => {
                let (keys, values) = image_of(&p.pool, &p.table, &p.lens);
                let d = p.pool.d_model();
                (
                    split_image(&keys, &p.lens, d),
                    split_image(&values, &p.lens, d),
                )
            }
            KvCache::Swapped(s) => {
                let (lens, d) = (vec![s.len; s.pool.layers()], s.pool.d_model());
                (
                    split_image(&s.keys, &lens, d),
                    split_image(&s.values, &lens, d),
                )
            }
        }
    }
}

/// FNV-1a over token ids — a stable, dependency-free prefix key. Entries
/// are verified by exact token comparison, so a collision can never alias
/// two different prefixes.
fn fnv1a(tokens: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &t in tokens {
        for byte in (t as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[derive(Debug)]
struct PrefixEntry {
    hash: u64,
    tokens: Vec<usize>,
    blocks: Vec<usize>,
}

/// A registered prefix copied to host memory by
/// [`PrefixRegistry::images`]: its tokens and a swap image of their
/// whole-block K/V rows.
#[derive(Clone, Debug)]
pub struct PrefixImage {
    tokens: Vec<usize>,
    kv: SwappedKv,
}

/// Registered prompt prefixes and the blocks that hold their K/V rows.
///
/// The registry holds its own references on registered blocks, so a prefix
/// outlives the session that computed it and later sessions can adopt it.
/// Registration keeps only *whole* blocks (`⌊len/block_size⌋·block_size`
/// tokens), so a registered block is never written again and adopters'
/// first private append lands in a fresh block, not a copy-on-write.
/// Under pool pressure the scheduler evicts entries oldest-first.
#[derive(Debug)]
pub struct PrefixRegistry {
    pool: BlockPool,
    entries: Vec<PrefixEntry>,
}

impl PrefixRegistry {
    /// An empty registry over `pool`.
    pub fn new(pool: &BlockPool) -> Self {
        Self {
            pool: pool.clone(),
            entries: Vec::new(),
        }
    }

    /// Registered prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register the whole-block prefix of `tokens` as stored in `cache`
    /// (a resident cache of this registry's pool that has consumed at
    /// least that many positions). No-ops on caches of any other pool (a
    /// [`Transformer::new_cache`](crate::transformer::Transformer::new_cache)
    /// cache among them), swapped caches, prefixes shorter than one block,
    /// and exact duplicates.
    pub fn register(&mut self, tokens: &[usize], cache: &KvCache) {
        let p = match cache {
            KvCache::Paged(p) if p.pool.same(&self.pool) => p,
            _ => return,
        };
        let bs = p.block_size();
        let keep = tokens.len() / bs * bs;
        if keep == 0 || p.len() < keep {
            return;
        }
        let tokens = &tokens[..keep];
        let hash = fnv1a(tokens);
        if self
            .entries
            .iter()
            .any(|e| e.hash == hash && e.tokens == tokens)
        {
            return;
        }
        let blocks = p.table[..keep / bs].to_vec();
        let mut pool = self.pool.lock();
        for &id in &blocks {
            pool.ref_inc(id);
        }
        drop(pool);
        self.entries.push(PrefixEntry {
            hash,
            tokens: tokens.to_vec(),
            blocks,
        });
    }

    /// The longest registered prefix of `tokens`: `(entry, matched
    /// positions)`, ties broken toward the oldest entry. `None` when no
    /// entry shares even one leading token.
    fn lookup(&self, tokens: &[usize]) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            let m = e
                .tokens
                .iter()
                .zip(tokens)
                .take_while(|(a, b)| a == b)
                .count();
            if m >= 1 && best.is_none_or(|(_, bm)| m > bm) {
                best = Some((i, m));
            }
        }
        best
    }

    /// The length [`PrefixRegistry::adopt_into`] would return for `prompt`
    /// now, without adopting anything: the longest registered prefix's
    /// matched positions, 0 when nothing matches.
    pub fn adoptable(&self, prompt: &[usize]) -> usize {
        self.lookup(prompt).map_or(0, |(_, m)| m)
    }

    /// Adopt the longest registered prefix of `prompt` into a fresh paged
    /// `cache`: the table references the shared blocks, and the cache has
    /// consumed `min(m, prompt.len() − 1)` positions, where `m` is the
    /// returned adopted length (0 when nothing matched). Feed the prompt
    /// from there. The last prompt row always runs, because it samples the
    /// first token; when the whole prompt is shared, its write is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `cache` is not an empty resident cache of this registry's
    /// pool.
    pub fn adopt_into(&self, prompt: &[usize], cache: &mut KvCache) -> usize {
        let KvCache::Paged(p) = cache else {
            panic!("prefix adoption into a swapped-out cache");
        };
        assert!(
            p.pool.same(&self.pool),
            "prefix adoption into a cache of another pool"
        );
        assert!(
            p.table.is_empty() && p.len() == 0,
            "prefix adoption into a non-empty cache"
        );
        let Some((idx, m)) = self.lookup(prompt) else {
            return 0;
        };
        let bs = p.block_size();
        let blocks = &self.entries[idx].blocks[..m.div_ceil(bs)];
        let mut pool = self.pool.lock();
        for &id in blocks {
            pool.ref_inc(id);
        }
        drop(pool);
        p.table = blocks.to_vec();
        p.shared_len = m;
        p.lens.fill(m.min(prompt.len() - 1));
        m
    }

    /// Every entry copied to host, in registration order — what a
    /// checkpoint carries so that a resumed run keeps adopting the
    /// prefixes its crashed run had registered.
    pub fn images(&self) -> Vec<PrefixImage> {
        let layers = self.pool.layers();
        self.entries
            .iter()
            .map(|e| {
                let len = e.tokens.len();
                let (keys, values) = image_of(&self.pool, &e.blocks, &vec![len; layers]);
                PrefixImage {
                    tokens: e.tokens.clone(),
                    kv: SwappedKv {
                        pool: self.pool.clone(),
                        len,
                        keys,
                        values,
                    },
                }
            })
            .collect()
    }

    /// Re-register host [`images`](PrefixRegistry::images) into this
    /// registry's pool, oldest first. An image the pool cannot hold right
    /// now is dropped.
    ///
    /// # Panics
    ///
    /// Panics when an image's pool shape (block size, layers, width)
    /// differs from this registry's pool.
    pub fn reload(&mut self, images: Vec<PrefixImage>) {
        for PrefixImage { tokens, mut kv } in images {
            kv.rebind(&self.pool);
            if self.pool.available_blocks() >= kv.blocks() {
                self.register(&tokens, &KvCache::Paged(kv.to_paged()));
            }
        }
    }

    /// Drop the oldest entry, releasing its block references (blocks no
    /// session still shares return to the free list). Returns `false`
    /// when the registry was already empty.
    pub fn evict_oldest(&mut self) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        let e = self.entries.remove(0);
        let mut pool = self.pool.lock();
        for &id in &e.blocks {
            pool.ref_dec(id);
        }
        true
    }

    /// Release every entry.
    pub fn clear(&mut self) {
        while self.evict_oldest() {}
    }
}

impl Drop for PrefixRegistry {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(bs: usize) -> BlockPool {
        BlockPool::new(bs, 2, 4, None)
    }

    fn krow(li: usize, pos: usize) -> Vec<f64> {
        (0..4).map(|j| (li * 1000 + pos * 10 + j) as f64).collect()
    }

    fn vrow(li: usize, pos: usize) -> Vec<f64> {
        krow(li, pos).iter().map(|x| -x).collect()
    }

    /// Push `n` positions (both layers) into `c`.
    fn fill(c: &mut KvCache, from: usize, n: usize) {
        for li in 0..2 {
            for pos in from..from + n {
                c.push_row(li, &krow(li, pos), &vrow(li, pos));
            }
        }
    }

    #[test]
    fn paged_rows_read_back_identically_across_block_sizes() {
        let rows = |row: fn(usize, usize) -> Vec<f64>| -> KvSnapshot {
            (0..2)
                .map(|li| (0..11).map(|pos| row(li, pos)).collect())
                .collect()
        };
        let reference = (rows(krow), rows(vrow));
        for bs in [1usize, 2, 3, 7, 11, 16] {
            let p = pool(bs);
            let mut c = KvCache::paged(&p);
            fill(&mut c, 0, 11);
            assert_eq!(c.len(), 11);
            assert_eq!(c.snapshot(), reference, "bs={bs}");
            let blocks = 11usize.div_ceil(bs);
            assert!(
                matches!(&c, KvCache::Paged(paged) if paged.table.len() == blocks),
                "bs={bs}"
            );
        }
    }

    #[test]
    fn clone_shares_blocks_and_cow_diverges_privately() {
        let p = pool(4);
        let mut a = KvCache::paged(&p);
        fill(&mut a, 0, 6); // blocks: [0..4), [4..6)
        let base = p.live_blocks();
        let mut b = a.clone();
        assert_eq!(p.live_blocks(), base, "clone must not allocate");
        // Appending through the clone copies the shared tail block first.
        fill(&mut b, 6, 1);
        assert_eq!(p.live_blocks(), base + 1, "COW of the shared tail block");
        let (ak, _) = a.snapshot();
        let (bk, _) = b.snapshot();
        assert_eq!(ak[0].len(), 6);
        assert_eq!(bk[0].len(), 7);
        assert_eq!(ak[0], bk[0][..6], "shared prefix contents preserved");
        // Divergent appends stay private.
        fill(&mut a, 6, 1);
        let (ak2, _) = a.snapshot();
        assert_eq!(ak2[0][6], krow(0, 6));
        drop(a);
        drop(b);
        assert_eq!(p.live_blocks(), 0, "all blocks returned");
    }

    #[test]
    fn swap_roundtrip_is_bit_exact_and_frees_blocks() {
        // An empty cache is one more input: its image keeps both layers.
        for n in [8, 0] {
            let p = pool(3);
            let mut c = KvCache::paged(&p);
            fill(&mut c, 0, n);
            let snap = c.snapshot();
            let rows = c.swap_out();
            assert_eq!(rows, n);
            assert!(c.is_swapped());
            assert_eq!(p.live_blocks(), 0, "swap-out frees every block");
            assert_eq!(c.len(), n, "logical length survives the swap");
            assert_eq!(c.snapshot(), snap, "the image holds the same rows");
            assert_eq!(c.restore_blocks(), n.div_ceil(3));
            let back = c.restore();
            assert_eq!(back, n);
            assert!(!c.is_swapped());
            assert_eq!(c.snapshot(), snap, "restore must be bit-exact");
            // The restored session keeps decoding normally.
            fill(&mut c, n, 1);
            assert_eq!(c.len(), n + 1);
        }
    }

    #[test]
    fn capacity_is_enforced_and_peak_tracked() {
        let p = BlockPool::new(2, 2, 4, Some(3));
        let mut c = KvCache::paged(&p);
        fill(&mut c, 0, 6); // exactly 3 blocks
        assert_eq!(p.available_blocks(), 0);
        assert_eq!(p.peak_live_blocks(), 3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut d = KvCache::paged(&p);
            d.push_row(0, &krow(0, 0), &vrow(0, 0));
        }));
        assert!(result.is_err(), "allocation beyond capacity must panic");
    }

    #[test]
    fn registry_shares_whole_block_prefixes_and_conserves_refs() {
        let p = pool(4);
        let mut reg = PrefixRegistry::new(&p);
        let prompt: Vec<usize> = (0..10).collect();
        let mut a = KvCache::paged(&p);
        fill(&mut a, 0, 10);
        reg.register(&prompt, &a);
        assert_eq!(reg.len(), 1);
        // Re-registering the same prefix is a no-op.
        reg.register(&prompt, &a);
        assert_eq!(reg.len(), 1);
        // An adopter sharing 10 prompt tokens adopts the 8 whole-block
        // positions as consumed and computes only rows 8..10.
        let mut b = KvCache::paged(&p);
        let adopted = reg.adopt_into(&prompt, &mut b);
        assert_eq!(adopted, 8);
        assert_eq!(b.len(), 8, "the adopted rows count as consumed");
        assert_eq!(b.blocks_needed(2), 1);
        let before = p.live_blocks();
        fill(&mut b, 8, 2);
        assert_eq!(
            p.live_blocks(),
            before + 1,
            "only the private tail allocates"
        );
        assert_eq!(a.snapshot(), b.snapshot(), "adopted contents identical");
        // A prompt that is wholly shared keeps its last row to run: the
        // cache stops one short, and that row's write is a no-op.
        let mut c = KvCache::paged(&p);
        assert_eq!(reg.adopt_into(&prompt[..8], &mut c), 8);
        assert_eq!(c.len(), 7);
        assert_eq!(c.blocks_needed(1), 0, "the last row is already stored");
        let before = p.live_blocks();
        fill(&mut c, 7, 1);
        assert_eq!(p.live_blocks(), before, "a no-op write allocates nothing");
        let (ak, av) = a.snapshot();
        let prefix =
            |s: KvSnapshot| -> KvSnapshot { s.into_iter().map(|l| l[..8].to_vec()).collect() };
        assert_eq!(c.snapshot(), (prefix(ak), prefix(av)));
        // Dropping sessions leaves only the registry's references.
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(p.live_blocks(), 2);
        reg.clear();
        assert_eq!(p.live_blocks(), 0, "registry eviction frees the prefix");
    }

    #[test]
    fn registry_images_reload_into_a_fresh_pool() {
        let p = pool(4);
        let mut reg = PrefixRegistry::new(&p);
        let prompt: Vec<usize> = (0..10).collect();
        let mut a = KvCache::paged(&p);
        fill(&mut a, 0, 10);
        reg.register(&prompt, &a); // 8 rows, 2 blocks
        reg.register(&prompt[..5], &a); // 4 rows, 1 block
        let images = reg.images();
        let fresh = pool(4);
        let mut back = PrefixRegistry::new(&fresh);
        back.reload(images.clone());
        assert_eq!(back.len(), 2);
        assert_eq!(fresh.live_blocks(), 3, "each image is copied in");
        let mut b = KvCache::paged(&fresh);
        assert_eq!(back.adopt_into(&prompt, &mut b), 8);
        fill(&mut b, 8, 2);
        assert_eq!(b.snapshot(), a.snapshot(), "reloaded rows are bit-exact");
        // A pool with no room for an image drops it, oldest kept first.
        let tight = BlockPool::new(4, 2, 4, Some(2));
        let mut small = PrefixRegistry::new(&tight);
        small.reload(images);
        assert_eq!(small.len(), 1);
        assert_eq!(tight.live_blocks(), 2);
        drop(b);
        back.clear();
        assert_eq!(fresh.live_blocks(), 0);
    }

    #[test]
    fn adoption_prefers_the_longest_match() {
        let p = pool(2);
        let mut reg = PrefixRegistry::new(&p);
        let short: Vec<usize> = vec![1, 2];
        let long: Vec<usize> = vec![1, 2, 3, 4, 5, 6];
        for prompt in [&short, &long] {
            let mut c = KvCache::paged(&p);
            fill(&mut c, 0, prompt.len());
            reg.register(prompt, &c);
        }
        let mut c = KvCache::paged(&p);
        assert_eq!(reg.adopt_into(&[1, 2, 3, 4, 9], &mut c), 4);
        // A diverging prompt still shares its common head.
        let mut d = KvCache::paged(&p);
        assert_eq!(reg.adopt_into(&[1, 2, 9], &mut d), 2);
        // No shared head, no adoption.
        let mut e = KvCache::paged(&p);
        assert_eq!(reg.adopt_into(&[7, 7], &mut e), 0);
    }

    #[test]
    fn blocks_needed_is_exact_for_fresh_shared_and_adopted_tables() {
        let p = pool(4);
        let mut a = KvCache::paged(&p);
        assert_eq!(a.blocks_needed(9), 3);
        fill(&mut a, 0, 9);
        assert_eq!(a.blocks_needed(3), 0, "room left in the tail block");
        assert_eq!(a.blocks_needed(4), 1);
        let b = a.clone();
        // The tail block is shared now: the next append must COW it.
        assert_eq!(a.blocks_needed(1), 1, "COW counts as an allocation");
        drop(b);
        assert_eq!(a.blocks_needed(1), 0, "sole owner again");
    }

    #[test]
    fn cow_mid_step_preserves_shared_rows_for_lagging_layers() {
        // The model writes layer 0's rows before layer 1 touches anything,
        // so the copy-on-write a partial-block adoption triggers fires
        // while layer 1's cursor still lags — the shared rows must survive
        // for every layer regardless.
        let p = pool(3);
        let mut owner = KvCache::paged(&p);
        fill(&mut owner, 0, 4);
        let mut reg = PrefixRegistry::new(&p);
        reg.register(&[7, 8, 9, 1], &owner); // whole-block prefix: 3 rows
        let mut adopter = KvCache::paged(&p);
        assert_eq!(reg.adopt_into(&[7, 5], &mut adopter), 1);
        assert_eq!(adopter.len(), 1, "prefill starts past the adopted row");
        // Layer 0 first, like a prefill pass: the private write at pos 1
        // forces the COW while layer 1 has not written its pos 1 yet.
        adopter.push_row(0, &krow(0, 9), &vrow(0, 9));
        adopter.push_row(1, &krow(1, 9), &vrow(1, 9));
        let (k, v) = adopter.snapshot();
        assert_eq!(k[1][0], krow(1, 0));
        assert_eq!(v[1][0], vrow(1, 0));
        assert_eq!(k[0][1], krow(0, 9));
        // A wholly shared prompt fed on past its end in one chunk: layer 0
        // no-ops its last prompt row and then forces the COW, while layer
        // 1's cursor is still *below* the adopted length. Its no-op then
        // reads the copied block (the debug assert checks the bits).
        let mut whole = KvCache::paged(&p);
        assert_eq!(reg.adopt_into(&[7, 8], &mut whole), 2);
        assert_eq!(whole.len(), 1);
        for li in 0..2 {
            whole.push_row(li, &krow(li, 1), &vrow(li, 1));
            whole.push_row(li, &krow(li, 9), &vrow(li, 9));
        }
        let (k, _) = whole.snapshot();
        assert_eq!(k[1][..2], [krow(1, 0), krow(1, 1)]);
        assert_eq!(k[1][2], krow(1, 9));
    }

    #[test]
    fn pool_mutex_poison_recovers_and_refcounts_conserve() {
        let p = BlockPool::new(2, 2, 4, Some(2));
        let mut keep = KvCache::paged(&p);
        fill(&mut keep, 0, 4); // pool full: 2 blocks live
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut d = KvCache::paged(&p);
            // The capacity assert fires while the pool mutex is held, so
            // the unwind leaves it poisoned.
            d.push_row(0, &krow(0, 0), &vrow(0, 0));
        }));
        assert!(poisoned.is_err(), "over-capacity alloc must panic");
        // Every subsequent operation recovers the poisoned lock.
        assert_eq!(p.live_blocks(), 2, "accounting intact after the panic");
        drop(keep);
        assert_eq!(p.live_blocks(), 0, "frees succeed and refcounts conserve");
        let mut c = KvCache::paged(&p);
        fill(&mut c, 0, 4);
        assert_eq!(p.live_blocks(), 2, "allocs succeed after poisoning");
        drop(c);
        assert_eq!(p.live_blocks(), 0);
    }

    #[test]
    fn checksums_detect_injected_corruption_when_enabled() {
        // Disabled (the default): verify is vacuous even on corrupted data.
        let mut c = KvCache::paged(&pool(3));
        fill(&mut c, 0, 7);
        assert!(c.corrupt_row(99));
        assert_eq!(c.verify_checksums(), Ok(()), "disabled pass never fires");
        // A second pool in the same process, with the pass on.
        let p = pool(3).with_checksums(true);
        let mut c = KvCache::paged(&p);
        fill(&mut c, 0, 7);
        assert_eq!(c.verify_checksums(), Ok(()), "clean writes stamp validly");
        // A swap round trip re-stamps the restored blocks.
        let _ = c.swap_out();
        let _ = c.restore();
        assert_eq!(c.verify_checksums(), Ok(()));
        assert!(c.corrupt_row(42));
        assert!(
            c.verify_checksums().is_err(),
            "silent bit flip must be detected"
        );
    }

    #[test]
    fn swap_images_rebind_and_restore_into_a_fresh_pool() {
        let p = pool(3);
        let mut c = KvCache::paged(&p);
        fill(&mut c, 0, 8);
        let snap = c.snapshot();
        let _ = c.swap_out();
        let fresh = pool(3);
        c.rebind_pool(&fresh);
        let _ = c.restore();
        assert_eq!(p.live_blocks(), 0, "original pool untouched");
        assert_eq!(fresh.live_blocks(), 3, "blocks drawn from the new pool");
        assert_eq!(c.snapshot(), snap, "contents survive the rebind");
    }

    #[test]
    #[should_panic(expected = "differently shaped pools")]
    fn rebind_rejects_mismatched_pool_shapes() {
        let p = pool(3);
        let mut c = KvCache::paged(&p);
        fill(&mut c, 0, 4);
        let _ = c.swap_out();
        c.rebind_pool(&pool(2));
    }

    #[test]
    #[should_panic(expected = "cache of another pool")]
    fn adoption_into_another_pools_cache_panics() {
        let reg = PrefixRegistry::new(&pool(2));
        let mut c = KvCache::paged(&pool(2));
        let _ = reg.adopt_into(&[1, 2], &mut c);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn pool_double_free_panics() {
        let p = pool(2);
        let id = p.lock().alloc();
        p.lock().ref_dec(id);
        p.lock().ref_dec(id);
    }

    #[test]
    #[should_panic(expected = "swapped-out cache")]
    fn writing_a_swapped_cache_panics() {
        let p = pool(2);
        let mut c = KvCache::paged(&p);
        fill(&mut c, 0, 2);
        let _ = c.swap_out();
        c.push_row(0, &krow(0, 2), &vrow(0, 2));
    }
}
