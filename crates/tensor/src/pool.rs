//! Capacity-keyed buffer arena under the autograd tape.
//!
//! Every tensor a [`crate::Tape`] creates — forward values, leaf copies
//! and gradients — is drawn from the tape's [`BufferPool`] and handed back
//! when the tape ends ([`crate::Tape::reset`] / [`crate::Tape::take_pool`]).
//! WIDEN's shapes are ragged and rarely repeat (freshly sampled serving
//! batches differ by a few rows, pruned epochs shrink), so buffers are
//! keyed by **capacity**, not shape: a request for `n` elements reuses the
//! smallest parked buffer holding at least `n` and at most
//! `MAX_WASTE × n` elements, and a request nothing fits allocates
//! `n + n / HEADROOM_DIVISOR` so the next, slightly larger one does fit.
//!
//! Residency follows the tapes. When a tape ends — [`crate::Tape::truncate`]
//! hands its buffers back, as `reset` and `take_pool` do — the pool frees
//! every buffer parked before that tape began, one the tape neither took
//! nor handed back. A pool moved from tape to tape
//! ([`crate::Tape::install_pool`]) therefore holds what its last tape held,
//! however many distinct shapes it has seen: a pruned epoch's smaller set
//! replaces the larger one before it, and a tape whose shapes repeat
//! allocates nothing. Within a tape, a request that outgrew its buffer (a
//! parked one holds between `n / MAX_WASTE` and `n` elements) frees that
//! buffer as it allocates the larger one, so a batch a little bigger than
//! any before does not hold two sets at once.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::tensor::Tensor;

thread_local! {
    /// Per-thread packing scratch for the optimized GEMM backend (see
    /// [`with_pack_scratch`]). One buffer per thread, grown to the high
    ///-water mark and reused for the life of the thread.
    static PACK_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a thread-local `len`-element scratch slice.
///
/// This is the kernel backends' side of the buffer-reuse story: tape
/// tensors cycle through the capacity-keyed [`BufferPool`], while the
/// packed-GEMM B panels — which live only for the duration of one kernel
/// call and have a per-thread lifetime, not a per-tape one — reuse this
/// thread-local scratch.
///
/// The slice is **not** zeroed between calls; callers must overwrite every
/// element they read. Nested calls on one thread would double-borrow and
/// panic — kernels never recurse into themselves, so this is a programming
/// error, not a runtime condition.
pub(crate) fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// A parked buffer of capacity `c` serves requests of `n` elements with
/// `n ≤ c ≤ MAX_WASTE × n`. Wide enough that a serving batch of 8 rows
/// runs in the buffers a batch of 32 left behind and a walk matrix pruned
/// to a quarter keeps its buffer (memory already touched, either way);
/// narrow enough that a small request does not take the buffer a large one
/// is about to need and force a second large allocation. At 2 the refill
/// batches of `serve_hot_rw` (8 to 32 rows as they coalesce) each kept a
/// set of their own: peak RSS 57–59 MiB in four runs of ten, 46–51 in the
/// others; at 4 all ten stay under 49.
const MAX_WASTE: usize = 4;

/// A fresh buffer for `n` elements is allocated with `n / HEADROOM_DIVISOR`
/// spare capacity (never written, so never resident, until a larger request
/// reuses the buffer): two serving batches that differ by a few rows share
/// buffers from the second batch on.
const HEADROOM_DIVISOR: usize = 16;

const F32_BYTES: u64 = std::mem::size_of::<f32>() as u64;

/// Monotonic counters describing pool behaviour (snapshot semantics: take
/// two snapshots and subtract for a per-region delta), plus current
/// residency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served by a parked buffer.
    pub hits: u64,
    /// Takes that had to heap-allocate.
    pub misses: u64,
    /// Buffers accepted back into the pool.
    pub recycled: u64,
    /// Buffers freed instead of kept: returned to a disabled pool,
    /// outgrown by a request, or left untouched by a whole tape.
    pub dropped: u64,
    /// Bytes served from parked buffers (4 × elements over all hits).
    pub bytes_reused: u64,
    /// Buffers currently parked.
    pub resident_buffers: u64,
    /// Bytes (of capacity) currently parked.
    pub resident_bytes: u64,
}

/// A capacity-keyed recycler of `f32` buffers for tape tensors.
///
/// Enabled by default on every [`crate::Tape`]; a disabled pool (see
/// [`BufferPool::disabled`]) degrades to plain allocation — used by the
/// differential tests that pin pooled results to the alloc-per-op path.
#[derive(Debug)]
pub struct BufferPool {
    enabled: bool,
    /// Parked buffers in best-fit order: `(capacity, park stamp)`.
    by_size: BTreeMap<(usize, u64), Vec<f32>>,
    next_stamp: u64,
    /// The first stamp of the running tape: a buffer parked under an older
    /// one has not been touched by it.
    tape_start: u64,
    hits: u64,
    misses: u64,
    recycled: u64,
    dropped: u64,
    bytes_reused: u64,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// An empty, enabled pool.
    pub fn new() -> Self {
        Self {
            enabled: true,
            by_size: BTreeMap::new(),
            next_stamp: 0,
            tape_start: 0,
            hits: 0,
            misses: 0,
            recycled: 0,
            dropped: 0,
            bytes_reused: 0,
        }
    }

    /// A pool that never retains buffers: every take allocates, every
    /// recycle drops. Behaviourally identical to pre-pool code.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Parked-buffer hits so far (cheap accessor for per-op profiling deltas).
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Allocating takes so far (cheap accessor for per-op profiling deltas).
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// A `rows × cols` tensor with **unspecified contents** (whatever the
    /// recycled buffer last held): for callers that overwrite every element
    /// and so need no memset.
    pub fn take(&mut self, rows: usize, cols: usize) -> Tensor {
        let n = rows * cols;
        let mut buf = self.take_buffer(n);
        // Cuts a longer buffer down; zero-extends a shorter one into its
        // spare capacity. What was there below `n` stays as it is.
        buf.resize(n, 0.0);
        Tensor::from_vec(rows, cols, buf)
    }

    /// A zero-filled `rows × cols` tensor: for accumulating kernels
    /// (`*_acc` GEMMs, gradient slots, segment sums).
    pub fn take_zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        let mut t = self.take(rows, cols);
        t.as_mut_slice().fill(0.0);
        t
    }

    /// The smallest parked buffer whose capacity fits `n` within the slack,
    /// or a fresh zeroed allocation with headroom.
    fn take_buffer(&mut self, n: usize) -> Vec<f32> {
        let window = (n, 0)..=(n * MAX_WASTE, u64::MAX);
        let fit = self.by_size.range(window).next().map(|(&key, _)| key);
        match fit {
            Some(key) => {
                self.hits += 1;
                self.bytes_reused += n as u64 * F32_BYTES;
                self.by_size.remove(&key).expect("parked under this key")
            }
            None => {
                self.misses += 1;
                // A parked buffer just too small for `n` is, most likely,
                // the one this request's op used on the last tape and has
                // outgrown: replace it instead of holding both until the
                // tape ends.
                let outgrown = (n.div_ceil(MAX_WASTE), 0)..(n, 0);
                if let Some((&key, _)) = self.by_size.range(outgrown).next_back() {
                    self.by_size.remove(&key);
                    self.dropped += 1;
                }
                // `vec![0.0; _]` is a calloc: the spare capacity costs
                // address space, not memory, until something writes it.
                let mut buf = vec![0.0; n + n / HEADROOM_DIVISOR];
                buf.truncate(n);
                buf
            }
        }
    }

    /// Returns a tensor's buffer to the pool (dropping it when the pool is
    /// disabled). Buffers this pool never handed out are welcome; like any
    /// other, they are freed at the end of the first tape that leaves them
    /// untouched.
    pub fn recycle(&mut self, t: Tensor) {
        let buf = t.into_vec();
        if !self.enabled || buf.capacity() == 0 {
            self.dropped += 1;
            return;
        }
        self.by_size.insert((buf.capacity(), self.next_stamp), buf);
        self.next_stamp += 1;
        self.recycled += 1;
    }

    /// Ends the running tape: frees every buffer parked before it began —
    /// one it neither took nor handed back — and starts the next.
    pub(crate) fn end_tape(&mut self) {
        let (parked, start) = (self.by_size.len(), self.tape_start);
        self.by_size.retain(|&(_, stamp), _| stamp >= start);
        self.dropped += (parked - self.by_size.len()) as u64;
        self.tape_start = self.next_stamp;
    }

    /// Overwrites every parked buffer, spare capacity included, with
    /// `value`. Differential tests poison a warm pool with NaN to prove no
    /// op reads what a recycled buffer last held.
    pub fn fill_parked(&mut self, value: f32) {
        for buf in self.by_size.values_mut() {
            buf.clear();
            buf.resize(buf.capacity(), value);
        }
    }

    /// Current counters plus residency.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            recycled: self.recycled,
            dropped: self.dropped,
            bytes_reused: self.bytes_reused,
            resident_buffers: self.by_size.len() as u64,
            resident_bytes: self.by_size.keys().map(|&(c, _)| c as u64).sum::<u64>() * F32_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tape: takes every shape, hands everything back, and ends.
    fn cycle(pool: &mut BufferPool, shapes: &[(usize, usize)]) {
        let live: Vec<Tensor> = shapes.iter().map(|&(r, c)| pool.take(r, c)).collect();
        for t in live {
            pool.recycle(t);
        }
        pool.end_tape();
    }

    #[test]
    fn take_recycle_take_reuses_the_buffer() {
        let mut pool = BufferPool::new();
        let a = pool.take_zeroed(3, 4);
        assert_eq!(pool.stats().misses, 1);
        pool.recycle(a);
        let b = pool.take_zeroed(3, 4);
        assert_eq!(b.shape(), (3, 4));
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.bytes_reused, 48);
    }

    #[test]
    fn capacity_not_shape_is_the_key() {
        let mut pool = BufferPool::new();
        let a = pool.take(6, 4);
        pool.recycle(a);
        // Same element count, other shape; then a smaller request inside
        // the slack: both reuse the one parked buffer.
        let b = pool.take(3, 8);
        assert_eq!(b.shape(), (3, 8));
        pool.recycle(b);
        let c = pool.take(4, 5);
        assert_eq!(c.shape(), (4, 5));
        assert_eq!(pool.stats().hits, 2);
        pool.recycle(c);
        // Far smaller than the parked capacity: allocates instead of
        // wasting the big buffer.
        let d = pool.take(1, 2);
        assert_eq!(d.shape(), (1, 2));
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn recycled_dirty_buffer_comes_back_zeroed_on_request() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(2, 3);
        a.as_mut_slice().fill(7.5);
        pool.recycle(a);
        pool.fill_parked(f32::NAN);
        let t = pool.take_zeroed(2, 3);
        assert!(t.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn ragged_second_pass_never_allocates() {
        // A serving batch's shapes, then the "same" batch with every row
        // count 3 % up, then 3 % down: nothing but the first pass misses.
        let rows = [6720usize, 6529, 4100, 4003, 612, 600, 32, 32, 1];
        let shapes = |scale: f64| -> Vec<(usize, usize)> {
            rows.iter()
                .map(|&r| (((r as f64 * scale).round() as usize).max(1), 128))
                .collect()
        };
        let mut pool = BufferPool::new();
        cycle(&mut pool, &shapes(1.0));
        let cold = pool.stats().misses;
        assert_eq!(cold, rows.len() as u64);
        cycle(&mut pool, &shapes(1.03));
        cycle(&mut pool, &shapes(0.97));
        assert_eq!(pool.stats().misses, cold, "ragged passes must run warm");
    }

    #[test]
    fn shrinking_epochs_stay_within_the_first_epochs_bytes() {
        let mut pool = BufferPool::new();
        let mut first_epoch_bytes = 0;
        let mut rows = 12_000usize;
        for epoch in 0..30 {
            let shapes = [(rows, 64), (rows, 64), (rows / 10, 64), (64, 64), (1, 1)];
            cycle(&mut pool, &shapes);
            let s = pool.stats();
            if epoch == 0 {
                first_epoch_bytes = s.resident_bytes;
            }
            assert!(
                s.resident_bytes <= first_epoch_bytes,
                "epoch {epoch}: {} parked > {first_epoch_bytes}",
                s.resident_bytes
            );
            rows = rows * 19 / 20;
        }
        let s = pool.stats();
        assert!(s.dropped > 0, "outgrown buffers must have been evicted");
        assert!(s.hits > 4 * s.misses, "most epochs must run warm: {s:?}");
    }

    #[test]
    fn an_outgrown_buffer_is_replaced_not_kept_beside_its_successor() {
        let mut pool = BufferPool::new();
        cycle(&mut pool, &[(1000, 128); 4]);
        // 10 % more rows than the headroom absorbs: every take allocates,
        // and frees the buffer it outgrew while doing so.
        let live: Vec<Tensor> = (0..4).map(|_| pool.take(1100, 128)).collect();
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 8));
        assert_eq!(s.resident_bytes, 0, "old and new set held at once");
        drop(live);
    }

    #[test]
    fn a_foreign_buffer_is_freed_at_the_end_of_the_first_tape_that_leaves_it_untouched() {
        let mut pool = BufferPool::new();
        // A tape hands back ten buffers it never took (caller-built leaves).
        for _ in 0..10 {
            pool.recycle(Tensor::zeros(64, 64));
        }
        pool.end_tape();
        assert_eq!(pool.stats().resident_buffers, 10);
        // The next tape takes one of them and keeps it; the other nine go
        // when it ends, and the one it kept goes with the tape after that.
        cycle(&mut pool, &[(64, 64)]);
        let s = pool.stats();
        assert_eq!((s.hits, s.resident_buffers), (1, 1));
        assert_eq!(s.resident_bytes, 64 * 64 * F32_BYTES);
        cycle(&mut pool, &[(4, 4)]);
        let s = pool.stats();
        assert_eq!((s.misses, s.resident_buffers), (1, 1));
        assert_eq!(s.resident_bytes, 17 * F32_BYTES);
    }

    #[test]
    fn a_tape_keeps_only_what_it_held() {
        let mut pool = BufferPool::new();
        cycle(&mut pool, &[(1000, 128), (1000, 128), (500, 128), (1, 1)]);
        // Every request falls below a quarter of the large buffers, so the
        // small tape allocates its own set and the large one goes.
        let small = [(100, 128), (50, 128), (20, 128)];
        cycle(&mut pool, &small);
        let s = pool.stats();
        let held: usize = small
            .iter()
            .map(|&(r, c)| r * c + r * c / HEADROOM_DIVISOR)
            .sum();
        assert_eq!(s.resident_buffers, small.len() as u64);
        assert_eq!(s.resident_bytes, held as u64 * F32_BYTES);
    }

    #[test]
    fn disabled_pool_allocates_and_drops() {
        let mut pool = BufferPool::disabled();
        pool.recycle(Tensor::zeros(2, 2));
        let t = pool.take_zeroed(2, 2);
        pool.recycle(t);
        let _ = pool.take(2, 2);
        let s = pool.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 2);
        assert_eq!(s.dropped, 2);
        assert_eq!(s.resident_buffers, 0);
    }
}
