//! Opt-in per-op profiler for the autograd tape.
//!
//! When enabled via [`crate::Tape::enable_profiling`], every forward op
//! records its kind, input/output shapes, elapsed nanoseconds, and an
//! estimated FLOP count; [`crate::Tape::backward`] additionally times each
//! backward step. Aggregation is a fixed array indexed by
//! [`Op::kind_index`] — recording is two `Instant` reads plus a handful of
//! integer adds per op, so profiling a full epoch perturbs what it
//! measures as little as a wall-clock profiler can. When profiling is off
//! the tape skips even the clock reads (one null check per op).
//!
//! The per-tape aggregate surfaces as a [`ProfileReport`]: per-kind totals
//! with a fwd/bwd split, mergeable across tapes (the trainer merges one
//! report per chunk into one per epoch) and renderable as a top-k table.

use crate::op::{Op, OP_KIND_COUNT};
use crate::tensor::Tensor;

/// FLOP estimate for one forward op, from input shapes.
///
/// Estimates follow the usual convention (multiply-add = 2 FLOPs) and are
/// deliberately coarse for bookkeeping ops — `vstack` "costs" its output
/// size. They exist to rank ops and sanity-check arithmetic intensity, not
/// to benchmark hardware.
pub(crate) fn estimate_flops(op: &Op, values: &[Tensor], out: &Tensor) -> u64 {
    let n = |t: &Tensor| t.len() as u64;
    match op {
        Op::Leaf => 0,
        // (m×k)·(k×n): 2mkn.
        Op::MatMul(a, b) => {
            let (m, k) = values[a.index()].shape();
            let n = values[b.index()].cols();
            2 * (m as u64) * (k as u64) * (n as u64)
        }
        // (m×k)·(n×k)ᵀ: 2mkn.
        Op::MatMulNt(a, b) => {
            let (m, k) = values[a.index()].shape();
            let n = values[b.index()].rows();
            2 * (m as u64) * (k as u64) * (n as u64)
        }
        Op::Add(..)
        | Op::Sub(..)
        | Op::Mul(..)
        | Op::AddRowBroadcast(..)
        | Op::Scale(..)
        | Op::Relu(..)
        | Op::LeakyRelu(..)
        | Op::MaxPool2(..)
        | Op::MulScalarVar(..)
        | Op::PackRows(..) => n(out),
        // exp + max + sum + div sweeps.
        Op::SoftmaxRows(..) | Op::MaskedSoftmaxRows(..) => 5 * n(out),
        Op::Tanh(..) => 4 * n(out),
        // Copies: count moved elements once.
        Op::VStack(..) | Op::HStack(..) | Op::SelectRows(..) | Op::Transpose(..) => n(out),
        Op::Sum(a) | Op::MeanRows(a) => n(&values[a.index()]),
        Op::L2NormalizeRows(a) => 3 * n(&values[a.index()]),
        Op::SoftmaxCrossEntropy(a, _) => 5 * n(&values[a.index()]),
        Op::Spmm(csr, b) => 2 * (csr.nnz() as u64) * (values[b.index()].cols() as u64),
        // Per (query, key) pair: a `d`-wide dot product, the scaling and
        // the softmax's exp + max + sum + div sweeps; a mixing adds one
        // multiply-add per (position, later position) pair of a span.
        Op::SegmentAttention(_, _, k, _, spans, mix, _) => {
            let d = values[k.index()].cols() as u64;
            let pairs = |l: u64| (2 * d + 6) * l + mix.map_or(0, |_| l * (l + 1));
            spans.iter().map(|&(_, l)| pairs(l as u64)).sum()
        }
        Op::SegmentWeightedSum(_, v, _, spans) => {
            let d = values[v.index()].cols() as u64;
            2 * d * spans.iter().map(|&(_, l)| l as u64).sum::<u64>()
        }
        Op::SegmentMeanRows(a, spans) => {
            let d = values[a.index()].cols() as u64;
            d * spans.iter().map(|&(_, l)| l as u64).sum::<u64>()
        }
    }
}

/// Per-kind accumulator slot. Shapes keep the most recent occurrence —
/// enough to label the table row without per-op allocation.
#[derive(Clone, Copy, Default)]
struct OpAgg {
    count: u64,
    fwd_nanos: u64,
    bwd_nanos: u64,
    flops: u64,
    lhs_rows: u64,
    bwd_pool_hits: u64,
    bwd_allocs: u64,
    bwd_subnormal: u64,
    last_in: [(u32, u32); 2],
    n_in: u8,
    last_out: (u32, u32),
    largest_out: (u32, u32),
}

/// The tape-attached collector. One instance per [`crate::Tape`]; obtained
/// reports merge across tapes.
#[derive(Clone)]
pub(crate) struct TapeProfiler {
    aggs: [OpAgg; OP_KIND_COUNT],
}

impl Default for TapeProfiler {
    fn default() -> Self {
        Self {
            aggs: [OpAgg::default(); OP_KIND_COUNT],
        }
    }
}

impl TapeProfiler {
    pub(crate) fn record_forward(&mut self, op: &Op, values: &[Tensor], out: &Tensor, nanos: u64) {
        let agg = &mut self.aggs[op.kind_index()];
        agg.count += 1;
        agg.fwd_nanos += nanos;
        agg.flops += estimate_flops(op, values, out);
        agg.last_out = (out.rows() as u32, out.cols() as u32);
        if out.len() > agg.largest_out.0 as usize * agg.largest_out.1 as usize {
            agg.largest_out = agg.last_out;
        }
        agg.n_in = 0;
        for (slot, var) in op.inputs().iter().take(2).enumerate() {
            let v = &values[var.index()];
            if slot == 0 {
                agg.lhs_rows += v.rows() as u64;
            }
            agg.last_in[slot] = (v.rows() as u32, v.cols() as u32);
            agg.n_in = (slot + 1) as u8;
        }
    }

    /// One backward step of `op`; `subnormal` counts the subnormal
    /// elements of the output gradient it read.
    pub(crate) fn record_backward(
        &mut self,
        op: &Op,
        nanos: u64,
        pool_hits: u64,
        allocs: u64,
        subnormal: u64,
    ) {
        let agg = &mut self.aggs[op.kind_index()];
        agg.bwd_nanos += nanos;
        agg.bwd_pool_hits += pool_hits;
        agg.bwd_allocs += allocs;
        agg.bwd_subnormal += subnormal;
    }

    pub(crate) fn report(&self, backend: &'static str) -> ProfileReport {
        let mut ops = Vec::new();
        let (mut fwd_total, mut bwd_total) = (0u64, 0u64);
        for (kind, agg) in self.aggs.iter().enumerate() {
            fwd_total += agg.fwd_nanos;
            bwd_total += agg.bwd_nanos;
            // Leaves run no forward op; their row shows only to report
            // subnormal parameter gradients.
            if agg.count == 0 && agg.bwd_subnormal == 0 {
                continue;
            }
            let mut shape = String::new();
            for i in 0..agg.n_in as usize {
                if i > 0 {
                    shape.push('·');
                }
                shape.push_str(&format!("{}×{}", agg.last_in[i].0, agg.last_in[i].1));
            }
            if agg.n_in > 0 {
                shape.push('→');
            }
            shape.push_str(&format!("{}×{}", agg.last_out.0, agg.last_out.1));
            ops.push(OpProfile {
                name: kind_name(kind),
                backend,
                count: agg.count,
                fwd_nanos: agg.fwd_nanos,
                bwd_nanos: agg.bwd_nanos,
                flops: agg.flops,
                lhs_rows: agg.lhs_rows,
                bwd_pool_hits: agg.bwd_pool_hits,
                bwd_allocs: agg.bwd_allocs,
                bwd_subnormal: agg.bwd_subnormal,
                largest_out: (agg.largest_out.0 as usize, agg.largest_out.1 as usize),
                last_shape: shape,
            });
        }
        ProfileReport {
            ops,
            fwd_nanos_total: fwd_total,
            bwd_nanos_total: bwd_total,
        }
    }
}

/// `kind_index` → display name, without materialising an op.
fn kind_name(kind: usize) -> &'static str {
    const NAMES: [&str; OP_KIND_COUNT] = [
        "leaf",
        "matmul",
        "matmul_nt",
        "add",
        "sub",
        "mul",
        "add_row_broadcast",
        "scale",
        "relu",
        "leaky_relu",
        "tanh",
        "softmax_rows",
        "masked_softmax_rows",
        "vstack",
        "hstack",
        "select_rows",
        "sum",
        "mean_rows",
        "l2_normalize_rows",
        "softmax_cross_entropy",
        "maxpool2",
        "spmm",
        "transpose",
        "mul_scalar_var",
        "segment_attention",
        "segment_weighted_sum",
        "segment_mean_rows",
        "segment_attention_through",
        "pack_rows",
    ];
    NAMES[kind]
}

/// Aggregated statistics of one op kind across a profiled region.
#[derive(Clone, Debug, PartialEq)]
pub struct OpProfile {
    /// Op kind name (matches [`Op::name`]).
    pub name: &'static str,
    /// Kernel backend the producing tape dispatched through
    /// ([`crate::BackendKind::name`]) — lets merged fig4/profile tables
    /// attribute forward time to the backend that actually ran it.
    pub backend: &'static str,
    /// Number of forward executions.
    pub count: u64,
    /// Total forward self-time, nanoseconds.
    pub fwd_nanos: u64,
    /// Total backward self-time, nanoseconds.
    pub bwd_nanos: u64,
    /// Estimated forward FLOPs (2 per multiply-add).
    pub flops: u64,
    /// Rows of the first operand, summed over forward executions — for the
    /// GEMM kinds, how many rows were projected (a row budget can be
    /// asserted from it without a clock).
    pub lhs_rows: u64,
    /// Backward gradient buffers served from the tape's pool free lists.
    pub bwd_pool_hits: u64,
    /// Backward gradient buffers that had to heap-allocate.
    pub bwd_allocs: u64,
    /// Subnormal elements in the output gradients this kind's backward
    /// steps read — where the microcode assists of a converged fit land
    /// (a gradient's consumer, not its producer; `leaf` counts the
    /// parameter gradients).
    pub bwd_subnormal: u64,
    /// `(rows, cols)` of the largest forward output — what a test asserts a
    /// value's *absence* from (no `F × d` matrix), without a clock.
    pub largest_out: (usize, usize),
    /// Shape of the most recent occurrence, e.g. `64×128·128×64→64×64`.
    pub last_shape: String,
}

impl OpProfile {
    /// Forward + backward self-time, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.fwd_nanos + self.bwd_nanos
    }
}

/// A profiled region's per-op breakdown with fwd/bwd totals.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    /// One entry per op kind that executed at least once.
    pub ops: Vec<OpProfile>,
    /// Sum of forward self-times, nanoseconds.
    pub fwd_nanos_total: u64,
    /// Sum of backward self-times, nanoseconds.
    pub bwd_nanos_total: u64,
}

impl ProfileReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total estimated FLOPs across all ops.
    pub fn total_flops(&self) -> u64 {
        self.ops.iter().map(|o| o.flops).sum()
    }

    /// Folds another report into this one (kinds matched by name **and**
    /// backend — rows from tapes on different kernel backends stay
    /// separate; shapes keep the other report's most recent occurrence).
    pub fn merge(&mut self, other: &ProfileReport) {
        self.fwd_nanos_total += other.fwd_nanos_total;
        self.bwd_nanos_total += other.bwd_nanos_total;
        for o in &other.ops {
            if let Some(mine) = self
                .ops
                .iter_mut()
                .find(|m| m.name == o.name && m.backend == o.backend)
            {
                mine.count += o.count;
                mine.fwd_nanos += o.fwd_nanos;
                mine.bwd_nanos += o.bwd_nanos;
                mine.flops += o.flops;
                mine.lhs_rows += o.lhs_rows;
                mine.bwd_pool_hits += o.bwd_pool_hits;
                mine.bwd_allocs += o.bwd_allocs;
                mine.bwd_subnormal += o.bwd_subnormal;
                if o.largest_out.0 * o.largest_out.1 > mine.largest_out.0 * mine.largest_out.1 {
                    mine.largest_out = o.largest_out;
                }
                mine.last_shape.clone_from(&o.last_shape);
            } else {
                self.ops.push(o.clone());
            }
        }
    }

    /// The `k` op kinds with the largest fwd+bwd self-time, descending.
    pub fn top_k(&self, k: usize) -> Vec<&OpProfile> {
        let mut sorted: Vec<&OpProfile> = self.ops.iter().collect();
        sorted.sort_by(|a, b| {
            b.total_nanos()
                .cmp(&a.total_nanos())
                .then_with(|| a.name.cmp(b.name))
        });
        sorted.truncate(k);
        sorted
    }

    /// Renders the top-`k` ops as an aligned text table (fig4 output,
    /// slow-epoch logs).
    pub fn render_table(&self, k: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:<10} {:>8} {:>12} {:>12} {:>10} {:>14} {:>10} {:>10} {:>12}  {}\n",
            "op",
            "backend",
            "count",
            "fwd_ms",
            "bwd_ms",
            "share",
            "gflops_est",
            "pool_hits",
            "bwd_alloc",
            "bwd_subnorm",
            "last_shape"
        ));
        let grand = (self.fwd_nanos_total + self.bwd_nanos_total).max(1) as f64;
        for o in self.top_k(k) {
            out.push_str(&format!(
                "{:<24} {:<10} {:>8} {:>12.3} {:>12.3} {:>9.1}% {:>14.3} {:>10} {:>10} {:>12}  {}\n",
                o.name,
                o.backend,
                o.count,
                o.fwd_nanos as f64 / 1e6,
                o.bwd_nanos as f64 / 1e6,
                o.total_nanos() as f64 / grand * 100.0,
                o.flops as f64 / 1e9,
                o.bwd_pool_hits,
                o.bwd_allocs,
                o.bwd_subnormal,
                o.last_shape
            ));
        }
        out.push_str(&format!(
            "total: fwd {:.3}ms  bwd {:.3}ms  est {:.3} GFLOP\n",
            self.fwd_nanos_total as f64 / 1e6,
            self.bwd_nanos_total as f64 / 1e6,
            self.total_flops() as f64 / 1e9
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &'static str, fwd: u64, bwd: u64) -> OpProfile {
        OpProfile {
            name,
            backend: "reference",
            count: 1,
            fwd_nanos: fwd,
            bwd_nanos: bwd,
            flops: 100,
            lhs_rows: 2,
            bwd_pool_hits: 3,
            bwd_allocs: 1,
            bwd_subnormal: 4,
            largest_out: (2, 2),
            last_shape: "2×2→2×2".into(),
        }
    }

    #[test]
    fn kind_names_agree_with_op_names_for_every_variant() {
        use crate::sparse::CsrMatrix;
        use std::sync::Arc;
        let mut tape = crate::Tape::new();
        let v = tape.leaf(Tensor::zeros(1, 1));
        let rows: Arc<[usize]> = Arc::from(vec![0]);
        let spans: Arc<[(usize, usize)]> = Arc::from(vec![(0, 1)]);
        let ops = [
            Op::Leaf,
            Op::MatMul(v, v),
            Op::MatMulNt(v, v),
            Op::Add(v, v),
            Op::Sub(v, v),
            Op::Mul(v, v),
            Op::AddRowBroadcast(v, v),
            Op::Scale(v, 1.0),
            Op::Relu(v),
            Op::LeakyRelu(v, 0.1),
            Op::Tanh(v),
            Op::SoftmaxRows(v),
            Op::MaskedSoftmaxRows(v, Arc::new(Tensor::zeros(1, 1))),
            Op::VStack(vec![v]),
            Op::HStack(vec![v]),
            Op::SelectRows(v, rows.clone()),
            Op::Sum(v),
            Op::MeanRows(v),
            Op::L2NormalizeRows(v),
            Op::SoftmaxCrossEntropy(v, rows.clone()),
            Op::MaxPool2(v, v),
            Op::Spmm(Arc::new(CsrMatrix::from_coo(1, 1, &[])), v),
            Op::Transpose(v),
            Op::MulScalarVar(v, v),
            Op::SegmentAttention(v, rows.clone(), v, rows.clone(), spans.clone(), None, 1.0),
            Op::SegmentWeightedSum(v, v, rows.clone(), spans.clone()),
            Op::SegmentMeanRows(v, spans.clone()),
            Op::SegmentAttention(v, rows.clone(), v, rows.clone(), spans, Some(v), 1.0),
            Op::PackRows(v, rows.clone(), v, rows, None),
        ];
        // One instance per kind, in `kind_index` order: a kind added to
        // `Op` without a row here leaves the table short.
        assert_eq!(ops.len(), OP_KIND_COUNT);
        for (kind, op) in ops.iter().enumerate() {
            assert_eq!(op.kind_index(), kind, "{}", op.name());
            assert_eq!(kind_name(kind), op.name());
        }
    }

    #[test]
    fn merge_sums_pool_counters() {
        let mut a = ProfileReport {
            ops: vec![sample("matmul", 1, 1)],
            fwd_nanos_total: 1,
            bwd_nanos_total: 1,
        };
        a.merge(&a.clone());
        let mm = &a.ops[0];
        assert_eq!(mm.bwd_pool_hits, 6);
        assert_eq!(mm.bwd_allocs, 2);
        assert_eq!(mm.bwd_subnormal, 8);
    }

    #[test]
    fn merge_sums_matching_kinds() {
        let mut a = ProfileReport {
            ops: vec![sample("matmul", 10, 20)],
            fwd_nanos_total: 10,
            bwd_nanos_total: 20,
        };
        let mut b = ProfileReport {
            ops: vec![sample("matmul", 5, 5), sample("relu", 1, 1)],
            fwd_nanos_total: 6,
            bwd_nanos_total: 6,
        };
        b.ops[0].largest_out = (3, 1);
        a.merge(&b);
        assert_eq!(a.fwd_nanos_total, 16);
        assert_eq!(a.bwd_nanos_total, 26);
        assert_eq!(a.ops.len(), 2);
        let mm = a.ops.iter().find(|o| o.name == "matmul").unwrap();
        assert_eq!(mm.count, 2);
        assert_eq!(mm.lhs_rows, 4);
        // 2×2 holds more than 3×1: the larger output survives a merge.
        assert_eq!(mm.largest_out, (2, 2));
        assert_eq!(mm.fwd_nanos, 15);
        assert_eq!(mm.bwd_nanos, 25);
    }

    #[test]
    fn merge_keeps_backends_as_separate_rows() {
        let mut a = ProfileReport {
            ops: vec![sample("matmul", 10, 20)],
            fwd_nanos_total: 10,
            bwd_nanos_total: 20,
        };
        let mut opt = sample("matmul", 5, 5);
        opt.backend = "optimized";
        let b = ProfileReport {
            ops: vec![opt],
            fwd_nanos_total: 5,
            bwd_nanos_total: 5,
        };
        a.merge(&b);
        assert_eq!(
            a.ops.len(),
            2,
            "same op on different backends must not merge"
        );
        let reference = a.ops.iter().find(|o| o.backend == "reference").unwrap();
        assert_eq!(reference.fwd_nanos, 10);
        let optimized = a.ops.iter().find(|o| o.backend == "optimized").unwrap();
        assert_eq!(optimized.fwd_nanos, 5);
        let table = a.render_table(4);
        assert!(table.contains("backend"));
        assert!(table.contains("optimized"));
    }

    #[test]
    fn top_k_orders_by_total_self_time() {
        let r = ProfileReport {
            ops: vec![
                sample("small", 1, 1),
                sample("big", 100, 100),
                sample("mid", 50, 0),
            ],
            fwd_nanos_total: 151,
            bwd_nanos_total: 101,
        };
        let top: Vec<&str> = r.top_k(2).iter().map(|o| o.name).collect();
        assert_eq!(top, vec!["big", "mid"]);
        let table = r.render_table(3);
        assert!(table.contains("big"));
        assert!(table.contains("last_shape"));
    }
}
