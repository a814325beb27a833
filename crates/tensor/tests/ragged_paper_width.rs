//! The ragged ops at paper width, pinned bit for bit to their per-key
//! composition: every score a `Reference.dot`, every accumulation a scalar
//! `axpy` loop, in the order the ops have always used.
//!
//! `backend_parity.rs` checks the same arithmetic on one 3-key span; here the
//! chunk is paper-shaped (`d = 128`, Eq. 4's causal suffix spans over walks
//! of 21 positions, pruned spans of 1–6 positions with repeated rows), so
//! every block size and remainder of the span kernels runs, and the aliased
//! `q ≡ k` / `w ≡ v` paths are covered too.

use std::sync::Arc;
use widen_tensor::{KernelBackend, Reference, Tape, Tensor, Var};

const D: usize = 128;
const WALK: usize = 21;
const WALKS: usize = 6;
const PRUNED: usize = 12;
const UNIQUE: usize = 40;
const SCALE: f32 = 0.088_388_35; // 1/√128

/// Deterministic values in `[-1, 1)`, never an exact zero.
fn fill(rows: usize, cols: usize, salt: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| {
            let h = ((i as u64) ^ (salt << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let x = h as f32 / (1u64 << 23) as f32 - 1.0;
            if x == 0.0 {
                0.5
            } else {
                x
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Positions of a chunk and its spans: `WALKS` walks of `WALK` positions
/// (the Eq. 4 suffix span of each position, longest first), then `PRUNED`
/// spans of 1–6 positions whose rows repeat in pairs.
struct Chunk {
    rows: Vec<usize>,
    suffix_spans: Vec<(usize, usize)>,
    walk_spans: Vec<(usize, usize)>,
    pruned_spans: Vec<(usize, usize)>,
}

impl Chunk {
    fn new() -> Self {
        let walked = WALKS * WALK;
        let mut rows: Vec<usize> = (0..walked).map(|p| (p * 13 + p * p / 3) % UNIQUE).collect();
        let mut pruned_spans = Vec::new();
        for s in 0..PRUNED {
            let (start, len) = (rows.len(), 1 + s % 6);
            rows.extend((0..len).map(|j| (s * 7 + j / 2 * 11) % UNIQUE));
            pruned_spans.push((start, len));
        }
        let suffix_spans = (0..walked).map(|p| (p, WALK - p % WALK)).collect();
        let walk_spans = (0..WALKS).map(|w| (w * WALK, WALK)).collect();
        Self {
            rows,
            suffix_spans,
            walk_spans,
            pruned_spans,
        }
    }

    /// Eq. 4's suffix spans, then the pruned spans.
    fn causal(&self) -> Vec<(usize, usize)> {
        [&self.suffix_spans[..], &self.pruned_spans].concat()
    }

    /// One span per walk, then the pruned spans.
    fn per_walk(&self) -> Vec<(usize, usize)> {
        [&self.walk_spans[..], &self.pruned_spans].concat()
    }
}

fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += alpha * x;
    }
}

fn assert_bits(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} (row {}): got {g:e}, want {w:e}",
            i / got.cols()
        );
    }
}

/// `loss = Σ out ⊙ g` on `tape`, so `out`'s adjoint is exactly `g`.
fn backward_against(tape: &mut Tape, out: Var, g: &Tensor) {
    let gv = tape.leaf(g.clone());
    let picked = tape.mul(out, gv);
    let loss = tape.sum(picked);
    tape.backward(loss);
}

fn padded_width(spans: &[(usize, usize)]) -> usize {
    spans.iter().map(|s| s.1).max().unwrap_or(0).max(1)
}

/// Forward value, `dq`, `dk` and `dmix` of `segment_attention(_through)`,
/// one key at a time. With `aliased`, `q` is `k` and both adjoints land in
/// `dq`, interleaved per key.
#[allow(clippy::too_many_arguments)]
fn attention_by_keys(
    q: &Tensor,
    q_rows: &[usize],
    k: &Tensor,
    k_rows: &[usize],
    spans: &[(usize, usize)],
    mix: Option<&Tensor>,
    g: &Tensor,
    aliased: bool,
) -> [Tensor; 4] {
    let mut out = Tensor::zeros(spans.len(), padded_width(spans));
    let mut dq = Tensor::zeros(q.rows(), q.cols());
    let mut dk = Tensor::zeros(k.rows(), k.cols());
    let mut dmix = mix.map_or(Tensor::zeros(1, 1), |m| Tensor::zeros(m.rows(), m.cols()));
    for (i, &(start, len)) in spans.iter().enumerate() {
        let (qi, keys) = (q_rows[i], &k_rows[start..start + len]);
        let q_row = q.row(qi).to_vec();
        let s: Vec<f32> = keys
            .iter()
            .map(|&kj| Reference.dot(&q_row, k.row(kj)))
            .collect();
        let t: Vec<f32> = match mix {
            Some(m) => (0..len)
                .map(|j| Reference.dot(&m.row(start + j)[..len - j], &s[j..]))
                .collect(),
            None => s.clone(),
        };
        let scaled: Vec<f32> = t.iter().map(|&x| x * SCALE).collect();
        let a = Tensor::row_vector(&scaled).softmax_rows().row(0).to_vec();
        out.row_mut(i)[..len].copy_from_slice(&a);

        let gi = &g.row(i)[..len];
        let inner: f32 = a.iter().zip(gi).map(|(&ai, &gj)| ai * gj).sum();
        let dt: Vec<f32> = (0..len).map(|j| SCALE * (a[j] * (gi[j] - inner))).collect();
        let ds = match mix {
            Some(m) => {
                let mut ds = vec![0.0f32; len];
                for (j, &t) in dt.iter().enumerate().filter(|(_, &t)| t != 0.0) {
                    axpy(t, &s[j..], &mut dmix.row_mut(start + j)[..len - j]);
                    axpy(t, &m.row(start + j)[..len - j], &mut ds[j..]);
                }
                ds
            }
            None => dt,
        };
        for (&t, &kj) in ds.iter().zip(keys).filter(|(&t, _)| t != 0.0) {
            axpy(t, k.row(kj), dq.row_mut(qi));
            axpy(
                t,
                &q_row,
                if aliased { &mut dq } else { &mut dk }.row_mut(kj),
            );
        }
    }
    [out, dq, dk, dmix]
}

#[test]
fn segment_attention_at_paper_width_is_its_per_key_composition() {
    let chunk = Chunk::new();
    let spans = chunk.causal();
    let k = fill(UNIQUE, D, 1);
    let q = fill(30, D, 2);
    let g = fill(spans.len(), padded_width(&spans), 3);

    // Separate query and key variables: dq by gather, dk by scatter.
    let q_rows: Vec<usize> = (0..spans.len()).map(|i| i * 7 % q.rows()).collect();
    let [want, dq, dk, _] =
        attention_by_keys(&q, &q_rows, &k, &chunk.rows, &spans, None, &g, false);
    let mut tape = Tape::new();
    let (qv, kv) = (tape.leaf(q.clone()), tape.leaf(k.clone()));
    let out = tape.segment_attention(
        qv,
        Arc::from(q_rows),
        kv,
        Arc::from(&chunk.rows[..]),
        Arc::from(&spans[..]),
        SCALE,
    );
    backward_against(&mut tape, out, &g);
    assert_bits("attention", tape.value(out), &want);
    assert_bits("attention dq", tape.grad(qv).unwrap(), &dq);
    assert_bits("attention dk", tape.grad(kv).unwrap(), &dk);

    // Eq. 4 proper: one variable, each position's own row as its query.
    let own: Vec<usize> = spans.iter().map(|&(start, _)| chunk.rows[start]).collect();
    let [want, dx, ..] = attention_by_keys(&k, &own, &k, &chunk.rows, &spans, None, &g, true);
    let mut tape = Tape::new();
    let xv = tape.leaf(k.clone());
    let idx: Arc<[usize]> = Arc::from(&chunk.rows[..]);
    let out = tape.segment_attention(xv, Arc::from(own), xv, idx, Arc::from(&spans[..]), SCALE);
    backward_against(&mut tape, out, &g);
    assert_bits("aliased attention", tape.value(out), &want);
    assert_bits("aliased attention dx", tape.grad(xv).unwrap(), &dx);
}

#[test]
fn segment_attention_through_at_paper_width_is_its_per_key_composition() {
    let chunk = Chunk::new();
    let spans = chunk.per_walk();
    let k = fill(UNIQUE, D, 4);
    let q = fill(9, D, 5);
    let mix = fill(chunk.rows.len(), WALK, 6);
    let g = fill(spans.len(), padded_width(&spans), 7);
    let q_rows: Vec<usize> = (0..spans.len()).map(|i| i * 5 % q.rows()).collect();
    for aliased in [false, true] {
        let q = if aliased { &k } else { &q };
        let q_rows: Vec<usize> = if aliased {
            spans.iter().map(|&(start, _)| chunk.rows[start]).collect()
        } else {
            q_rows.clone()
        };
        let [want, dq, dk, dmix] =
            attention_by_keys(q, &q_rows, &k, &chunk.rows, &spans, Some(&mix), &g, aliased);
        let mut tape = Tape::new();
        let kv = tape.leaf(k.clone());
        let qv = if aliased { kv } else { tape.leaf(q.clone()) };
        let mv = tape.leaf(mix.clone());
        let out = tape.segment_attention_through(
            qv,
            Arc::from(q_rows),
            kv,
            Arc::from(&chunk.rows[..]),
            Arc::from(&spans[..]),
            mv,
            SCALE,
        );
        backward_against(&mut tape, out, &g);
        let what = if aliased {
            "aliased through"
        } else {
            "through"
        };
        assert_bits(what, tape.value(out), &want);
        assert_bits(&format!("{what} dq"), tape.grad(qv).unwrap(), &dq);
        if !aliased {
            assert_bits(&format!("{what} dk"), tape.grad(kv).unwrap(), &dk);
        }
        assert_bits(&format!("{what} dmix"), tape.grad(mv).unwrap(), &dmix);
    }
}

#[test]
fn segment_weighted_sum_at_paper_width_is_its_per_key_composition() {
    let chunk = Chunk::new();
    let spans = chunk.causal();
    let width = padded_width(&spans);
    for aliased in [false, true] {
        // Aliased, the weights are the first columns of the value rows.
        let mut w = fill(spans.len(), if aliased { D } else { width }, 8);
        for i in 0..w.rows() {
            for j in 0..width {
                // Zero weights of both signs, which the sums skip.
                match (i + j) % 11 {
                    0 => w.set(i, j, 0.0),
                    5 => w.set(i, j, -0.0),
                    _ => {}
                }
            }
        }
        let v = if aliased {
            w.clone()
        } else {
            fill(UNIQUE, D, 9)
        };
        let g = fill(spans.len(), D, 10);

        let mut want = Tensor::zeros(spans.len(), D);
        let mut dw = Tensor::zeros(w.rows(), w.cols());
        let mut dv = Tensor::zeros(v.rows(), v.cols());
        for (i, &(start, len)) in spans.iter().enumerate() {
            for (j, &vj) in chunk.rows[start..start + len].iter().enumerate() {
                let a = w.get(i, j);
                if a != 0.0 {
                    axpy(a, v.row(vj), want.row_mut(i));
                }
                let dot = Reference.dot(g.row(i), v.row(vj));
                dw.row_mut(i)[j] += dot;
                if a != 0.0 {
                    axpy(
                        a,
                        g.row(i),
                        if aliased { &mut dw } else { &mut dv }.row_mut(vj),
                    );
                }
            }
        }

        let mut tape = Tape::new();
        let wv = tape.leaf(w.clone());
        let vv = if aliased { wv } else { tape.leaf(v.clone()) };
        let idx: Arc<[usize]> = Arc::from(&chunk.rows[..]);
        let out = tape.segment_weighted_sum(wv, vv, idx, Arc::from(&spans[..]));
        backward_against(&mut tape, out, &g);
        let what = if aliased {
            "aliased weighted sum"
        } else {
            "weighted sum"
        };
        assert_bits(what, tape.value(out), &want);
        assert_bits(&format!("{what} dw"), tape.grad(wv).unwrap(), &dw);
        if !aliased {
            assert_bits(&format!("{what} dv"), tape.grad(vv).unwrap(), &dv);
        }
    }
}

#[test]
fn segment_mean_rows_at_paper_width_is_its_per_row_composition() {
    let chunk = Chunk::new();
    let spans = chunk.causal();
    let x = fill(chunk.rows.len(), D, 11);
    let g = fill(spans.len(), D, 12);
    let mut want = Tensor::zeros(spans.len(), D);
    let mut dx = Tensor::zeros(x.rows(), D);
    for (i, &(start, len)) in spans.iter().enumerate() {
        let inv = 1.0 / len as f32;
        for r in start..start + len {
            axpy(1.0, x.row(r), want.row_mut(i));
            axpy(inv, g.row(i), dx.row_mut(r));
        }
        for o in want.row_mut(i) {
            *o *= inv;
        }
    }
    let mut tape = Tape::new();
    let xv = tape.leaf(x);
    let out = tape.segment_mean_rows(xv, Arc::from(&spans[..]));
    backward_against(&mut tape, out, &g);
    assert_bits("segment mean", tape.value(out), &want);
    assert_bits("segment mean dx", tape.grad(xv).unwrap(), &dx);
}
