//! Kernel-backend parity properties: `Optimized` against the `Reference`
//! scalar oracle on hostile floats.
//!
//! The parity contract (see `kernels::optimized` and DESIGN.md). Every GEMM
//! of both backends rounds once per term — one fused multiply-add — so an
//! overflowed product stays ±∞ on both sides instead of cancelling to NaN
//! on one:
//!
//! * `tn` (`Aᵀ·B`) is **bitwise** identical across backends on every
//!   non-NaN element — ±0.0, subnormal and huge inputs and nonzero `out`
//!   included — because the optimized tile takes the reference's fused
//!   terms in the reference's order with the reference's `+0.0` skip. Where one backend produces NaN the other does too, but
//!   NaN *payloads* are not compared anywhere in this file: x86 returns the
//!   first NaN operand and a compiler may commute a vector add, so they
//!   already differed between the two builds of one kernel.
//! * `nn` (`A·B`) is allowed exactly two deviations: the optimized path
//!   does not skip `+0.0` multipliers (its sums are a superset of the
//!   reference terms), and accumulating into a nonzero `out` rounds once
//!   at the end instead of per term. On finite inputs with a fresh output
//!   that leaves a tolerance-bounded (in practice zero up to the sign of
//!   zero) difference; NaNs the reference produces must still propagate.
//! * `nt` (`A·Bᵀ`) on `Optimized` *is* its `nn` on the transposed operand,
//!   bit for bit, so it stands under `nn`'s terms against `Reference` —
//!   and, as the serving forward runs it, each output row must be
//!   independent of how many rows share its call.
//! * every SIMD body of `nn`, `nt` and `tn` is bitwise the portable body
//!   (the `gemm_body_contract` unit tests in `kernels::optimized`, which
//!   can call each body the host supports).
//! * on both backends a row of `nn` or `nt` is bitwise the same whatever
//!   else shares the call — across the packing threshold and at a deep
//!   chunk's node count, NaN and ±∞ included. A frozen inference state's
//!   pair table computes each pair's rows in whichever chunk first reads
//!   them, and every served row rests on this
//!   (`gemm_rows_do_not_depend_on_the_other_rows_of_the_call`).
//! * the ragged attention ops are one implementation for both backends,
//!   on `kernels::{dot_rows, axpy_gather, axpy_scatter}`; whichever SIMD
//!   body the CPU selects, they must reproduce the scalar `dot` / `axpy`
//!   (`ragged_paper_width.rs` pins them at paper width).
//! * GEMMs on concurrent threads — the shard and serve threads — each
//!   give the bits the same call gives alone: every thread packs into its
//!   own scratch (`gemms_on_concurrent_threads_match_the_calling_thread`).

use proptest::prelude::*;
use std::sync::Arc;
use widen_tensor::{BackendKind, KernelBackend, Optimized, Reference, Tape, Tensor};

/// Adversarial finite floats: exact zeros of both signs, subnormals, huge
/// and tiny magnitudes, plus ordinary values.
fn hostile_float() -> impl Strategy<Value = f32> {
    (0usize..14, -3.0f32..3.0).prop_map(|(pick, ordinary)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => f32::MIN_POSITIVE / 2.0,  // subnormal
        3 => -f32::MIN_POSITIVE / 4.0, // subnormal
        4 => f32::MIN_POSITIVE,
        5 => 1.0e30,
        6 => -1.0e30,
        7 => 1.0e-30,
        8 => 1.0,
        9 => -1.0,
        _ => ordinary,
    })
}

/// [`hostile_float`] plus NaN — for the bitwise contracts (a NaN on one
/// side must be a NaN on the other) and the NaN-propagation property of
/// `nn`.
fn hostile_float_with_nan() -> impl Strategy<Value = f32> {
    (0usize..16, hostile_float()).prop_map(|(pick, base)| if pick == 0 { f32::NAN } else { base })
}

fn tensor_of(
    rows: usize,
    cols: usize,
    elem: impl Strategy<Value = f32>,
) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(elem, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// A GEMM operand of `len` elements drawn from `pool` in an order fixed by
/// `seed`, with +∞, −∞ and NaN planted once each.
fn operand(pool: &[f32], seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let mut data: Vec<f32> = (0..len).map(|_| pool[next() % pool.len()]).collect();
    for special in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        data[next() % len] = special;
    }
    data
}

/// "Bit-equal, or both NaN", element by element.
fn same_bits(got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("lengths {} vs {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if g.to_bits() != w.to_bits() && !(g.is_nan() && w.is_nan()) {
            return Err(format!("element {i}: got {g:e}, want {w:e}"));
        }
    }
    Ok(())
}

/// `nn`'s terms for `optimized` against `reference`, where both computed
/// `a · b`: NaN and ±∞ must agree, finite values to [`nn_tolerance`].
fn within_nn_terms(
    a: &Tensor,
    b: &Tensor,
    reference: &Tensor,
    optimized: &Tensor,
) -> Result<(), String> {
    for i in 0..reference.rows() {
        for j in 0..reference.cols() {
            let (r, o) = (reference.get(i, j), optimized.get(i, j));
            let ok = if r.is_nan() || o.is_nan() {
                r.is_nan() && o.is_nan()
            } else if r.is_infinite() || o.is_infinite() {
                r == o
            } else {
                (r - o).abs() <= nn_tolerance(a, b, i, j)
            };
            if !ok {
                return Err(format!("({i},{j}): reference {r:e}, optimized {o:e}"));
            }
        }
    }
    Ok(())
}

/// Lengths on both sides of every branch of the wide helpers: empty, all
/// tail, one lane chunk ± 1, chunks + tail, and the SIMD threshold (64).
const WIDE_LENS: [usize; 9] = [0, 1, 15, 16, 17, 37, 63, 64, 128];

/// The first `cols` entries of each `stride`-long chunk of `data`.
fn rows_of(data: &[f32], stride: usize, rows: usize, cols: usize) -> Tensor {
    let flat = data
        .chunks(stride)
        .take(rows)
        .flat_map(|row| &row[..cols])
        .copied()
        .collect();
    Tensor::from_vec(rows, cols, flat)
}

/// Per-element tolerance for the `nn` comparison: a small relative slack
/// against the magnitude sum of the contributing products (the largest
/// possible intermediate), plus an absolute floor for subnormal results.
fn nn_tolerance(a: &Tensor, b: &Tensor, i: usize, j: usize) -> f32 {
    let k = a.cols();
    let mut scale = 0.0f32;
    for p in 0..k {
        scale += (a.get(i, p) * b.get(p, j)).abs();
    }
    1e-5 * scale + 1e-30
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nt_is_tolerance_bounded_and_is_nn_on_the_transpose(
        // k = 37: two lane chunks and a tail, so `Reference`'s lane-split
        // order and the tile's sequential order really differ.
        a in tensor_of(9, 37, hostile_float_with_nan()),
        b in tensor_of(11, 37, hostile_float_with_nan()),
    ) {
        let bt = b.transpose();
        let reference = a.matmul_nt_with(&b, BackendKind::Reference);
        let optimized = a.matmul_nt_with(&b, BackendKind::Optimized);
        if let Err(why) = within_nn_terms(&a, &bt, &reference, &optimized) {
            prop_assert!(false, "{why}");
        }
        let via_nn = a.matmul_with(&bt, BackendKind::Optimized);
        if let Err(why) = same_bits(optimized.as_slice(), via_nn.as_slice()) {
            prop_assert!(false, "nt vs nn on the transpose: {why}");
        }
    }

    #[test]
    fn nt_output_rows_do_not_depend_on_the_row_count(
        a in tensor_of(40, 37, hostile_float_with_nan()),
        b in tensor_of(21, 37, hostile_float_with_nan()),
    ) {
        // Serving batches put any number of query rows into one call (the
        // Eq. 5 fold); 8 is the optimized backend's packing threshold.
        for backend in BackendKind::all() {
            for m in [1usize, 3, 7, 8, 9, 40] {
                let together = rows_of(a.as_slice(), 37, m, 37).matmul_nt_with(&b, backend);
                for i in 0..m {
                    let alone = Tensor::row_vector(a.row(i)).matmul_nt_with(&b, backend);
                    if let Err(why) = same_bits(together.row(i), alone.row(0)) {
                        prop_assert!(false, "{backend:?}, row {i} of {m}: {why}");
                    }
                }
            }
        }
    }

    #[test]
    fn tn_is_bitwise_identical_across_backends(
        // k = 37 rows; the output shapes below are cut from these.
        a in tensor_of(37, 37, hostile_float_with_nan()),
        b in tensor_of(37, 48, hostile_float_with_nan()),
        seed in tensor_of(37, 48, hostile_float_with_nan()),
    ) {
        // Whole tiles (32×48), a 5-row edge band with 3 ragged columns
        // (21×35), less than one tile (7×16), more rows than columns
        // (37×19) and no vector lane at all (4×5) — each accumulated into
        // a nonzero hostile `out`.
        for (m, n) in [(32usize, 48usize), (21, 35), (7, 16), (37, 19), (4, 5)] {
            let (a, b) = (rows_of(a.as_slice(), 37, 37, m), rows_of(b.as_slice(), 48, 37, n));
            let mut reference = rows_of(seed.as_slice(), 48, m, n);
            let mut optimized = reference.clone();
            a.matmul_tn_acc_with(&b, &mut reference, BackendKind::Reference);
            a.matmul_tn_acc_with(&b, &mut optimized, BackendKind::Optimized);
            if let Err(why) = same_bits(optimized.as_slice(), reference.as_slice()) {
                prop_assert!(false, "{m}×{n}: {why}");
            }
        }
    }

    #[test]
    fn ragged_forward_ops_reproduce_the_scalar_dot_and_axpy(
        q in prop::collection::vec(hostile_float_with_nan(), 128),
        rows in prop::collection::vec(hostile_float_with_nan(), 3 * 128),
        w in prop::collection::vec(hostile_float_with_nan(), 3),
        mix in tensor_of(3, 3, hostile_float_with_nan()),
    ) {
        for len in WIDE_LENS {
            let q = rows_of(&q, 128, 1, len);
            let rows = rows_of(&rows, 128, 3, len);
            // Rows are addressed by index; a score is a `Reference.dot`,
            // scaled, under the unpadded softmax kernel.
            let k_rows = [2usize, 0, 1];
            let attn = q.segment_attention(&[0], &rows, &k_rows, &[(0, 3)], 0.5);
            let scaled: Vec<f32> = k_rows
                .iter()
                .map(|&j| Reference.dot(q.row(0), rows.row(j)) * 0.5)
                .collect();
            let want = Tensor::row_vector(&scaled).softmax_rows();
            if let Err(why) = same_bits(attn.row(0), want.row(0)) {
                prop_assert!(false, "attention, len {len}: {why}");
            }
            // Through a mixing, position `j`'s score is the `Reference.dot`
            // of its weights with the raw scores from `j` on, then scaled.
            let through = q.segment_attention_through(&[0], &rows, &k_rows, &[(0, 3)], &mix, 0.5);
            let raw: Vec<f32> =
                k_rows.iter().map(|&j| Reference.dot(q.row(0), rows.row(j))).collect();
            let mixed: Vec<f32> =
                (0..3).map(|j| Reference.dot(&mix.row(j)[..3 - j], &raw[j..]) * 0.5).collect();
            let want = Tensor::row_vector(&mixed).softmax_rows();
            if let Err(why) = same_bits(through.row(0), want.row(0)) {
                prop_assert!(false, "attention through a mixing, len {len}: {why}");
            }
            // The weighted sum is one mul and one add per element, zero
            // weights skipped.
            let mixed = Tensor::row_vector(&w).segment_weighted_sum(&rows, &k_rows, &[(0, 3)]);
            let mut axpys = vec![0.0f32; len];
            for (&j, &alpha) in k_rows.iter().zip(&w).filter(|(_, &alpha)| alpha != 0.0) {
                for (y, &x) in axpys.iter_mut().zip(rows.row(j)) {
                    *y += alpha * x;
                }
            }
            if let Err(why) = same_bits(mixed.row(0), &axpys) {
                prop_assert!(false, "weighted sum, len {len}: {why}");
            }
        }
    }

    #[test]
    fn ragged_adjoints_reproduce_the_scalar_dot_and_axpy(
        // Finite and tame: a tape refuses non-finite forward values.
        g in prop::collection::vec(-3.0f32..3.0, 128),
        rows in prop::collection::vec(-3.0f32..3.0, 3 * 128),
        w in prop::collection::vec(-3.0f32..3.0, 3),
    ) {
        let spans: Arc<[(usize, usize)]> = vec![(0usize, 3usize)].into();
        let v_rows: Arc<[usize]> = vec![2usize, 0, 1].into();
        for len in WIDE_LENS {
            let g = rows_of(&g, 128, 1, len);
            let rows = rows_of(&rows, 128, 3, len);
            // loss = ⟨g, Σ_j w_j · rows[v_rows[j]]⟩, so the weighted sum's
            // upstream gradient is `g`: dw_j = dot(g, rows[v_rows[j]]),
            // drows[v_rows[j]] = w_j · g.
            let mut tape = Tape::new();
            let gv = tape.leaf(g.clone());
            let rv = tape.leaf(rows.clone());
            let wv = tape.leaf(Tensor::row_vector(&w));
            let mixed = tape.segment_weighted_sum(wv, rv, v_rows.clone(), spans.clone());
            let picked = tape.mul(mixed, gv);
            let loss = tape.sum(picked);
            tape.backward(loss);
            let dots: Vec<f32> =
                v_rows.iter().map(|&j| Reference.dot(g.row(0), rows.row(j))).collect();
            let dw = tape.grad(wv).expect("weights have a gradient");
            if let Err(why) = same_bits(dw.row(0), &dots) {
                prop_assert!(false, "dw, len {len}: {why}");
            }
            let drows = tape.grad(rv).expect("values have a gradient");
            for (&j, &alpha) in v_rows.iter().zip(&w) {
                let scaled: Vec<f32> = g.row(0).iter().map(|&x| 0.0 + alpha * x).collect();
                if let Err(why) = same_bits(drows.row(j), &scaled) {
                    prop_assert!(false, "dv row {j}, len {len}: {why}");
                }
            }
        }
    }

    #[test]
    fn attention_through_adjoints_reproduce_the_scalar_dot_and_axpy(
        q in prop::collection::vec(-1.0f32..1.0, 128),
        rows in prop::collection::vec(-1.0f32..1.0, 3 * 128),
        mix in tensor_of(3, 3, -1.0f32..1.0),
        g in prop::collection::vec(-3.0f32..3.0, 3),
    ) {
        // loss = ⟨g, a⟩ with a = softmax(0.5 · A s), s_j = ⟨q, k_j⟩ over one
        // span of three distinct rows: dt_j = 0.5 · a_j (g_j − ⟨a, g⟩),
        // dA[j][c] = dt_j · s_{j+c}, ds_j′ = Σ_{j ≤ j′} dt_j · A[j][j′ − j] in
        // ascending `j`, dq = Σ ds_j k_j — on either backend, bit for bit.
        let spans: Arc<[(usize, usize)]> = vec![(0usize, 3usize)].into();
        let k_rows: Arc<[usize]> = vec![2usize, 0, 1].into();
        for len in WIDE_LENS {
            let q = rows_of(&q, 128, 1, len);
            let rows = rows_of(&rows, 128, 3, len);
            for backend in BackendKind::all() {
                let mut tape = Tape::with_backend(backend);
                let (qv, kv) = (tape.leaf(q.clone()), tape.leaf(rows.clone()));
                let (mv, gv) = (tape.leaf(mix.clone()), tape.leaf(Tensor::row_vector(&g)));
                let q_rows: Arc<[usize]> = vec![0usize].into();
                let attn = tape.segment_attention_through(
                    qv, q_rows, kv, k_rows.clone(), spans.clone(), mv, 0.5,
                );
                let picked = tape.mul(attn, gv);
                let loss = tape.sum(picked);
                tape.backward(loss);

                let a = tape.value(attn).row(0).to_vec();
                let s: Vec<f32> =
                    k_rows.iter().map(|&j| Reference.dot(q.row(0), rows.row(j))).collect();
                let inner: f32 = a.iter().zip(&g).map(|(&ai, &gi)| ai * gi).sum();
                let dt: Vec<f32> = (0..3).map(|j| 0.5 * (a[j] * (g[j] - inner))).collect();
                let mut ds = [0.0f32; 3];
                let dmix = tape.grad(mv).expect("the mixing has a gradient");
                for j in 0..3 {
                    let want: Vec<f32> =
                        (0..3).map(|c| if j + c < 3 { 0.0 + dt[j] * s[j + c] } else { 0.0 }).collect();
                    if let Err(why) = same_bits(dmix.row(j), &want) {
                        prop_assert!(false, "{backend:?} dmix row {j}, len {len}: {why}");
                    }
                    for c in 0..3 - j {
                        ds[j + c] += dt[j] * mix.get(j, c);
                    }
                }
                let mut dq = vec![0.0f32; len];
                for (&t, &j) in ds.iter().zip(k_rows.iter()).filter(|(&t, _)| t != 0.0) {
                    for (y, &x) in dq.iter_mut().zip(rows.row(j)) {
                        *y += t * x;
                    }
                }
                if let Err(why) = same_bits(tape.grad(qv).expect("q has a gradient").row(0), &dq) {
                    prop_assert!(false, "{backend:?} dq, len {len}: {why}");
                }
                let dk = tape.grad(kv).expect("k has a gradient");
                for (&t, &j) in ds.iter().zip(k_rows.iter()) {
                    let want: Vec<f32> = q.row(0).iter().map(|&x| if t != 0.0 { 0.0 + t * x } else { 0.0 }).collect();
                    if let Err(why) = same_bits(dk.row(j), &want) {
                        prop_assert!(false, "{backend:?} dk row {j}, len {len}: {why}");
                    }
                }
            }
        }
    }

    #[test]
    fn dot_is_bitwise_identical_across_backends(
        a in prop::collection::vec(hostile_float_with_nan(), 37),
        b in prop::collection::vec(hostile_float_with_nan(), 37),
    ) {
        // 37 elements: two full 16-lane chunks plus a ragged tail.
        let r = Reference.dot(&a, &b);
        let o = Optimized.dot(&a, &b);
        prop_assert_eq!(r.to_bits(), o.to_bits());
    }

    #[test]
    fn nn_is_tolerance_bounded_on_finite_inputs(
        // 9 rows: a whole packed band of 8 (the optimized backend's packing
        // threshold) and a 1-row edge band; 17 columns: a partial panel.
        a in tensor_of(9, 5, hostile_float()),
        b in tensor_of(5, 17, hostile_float()),
    ) {
        // Finite inputs can still overflow to ±inf and then cancel to NaN;
        // both backends must agree when so.
        let reference = a.matmul_with(&b, BackendKind::Reference);
        let optimized = a.matmul_with(&b, BackendKind::Optimized);
        if let Err(why) = within_nn_terms(&a, &b, &reference, &optimized) {
            prop_assert!(false, "{why}");
        }
    }

    #[test]
    fn nn_paper_shape_k128_is_tolerance_bounded(
        a in tensor_of(12, 128, hostile_float()),
        b in tensor_of(128, 16, hostile_float()),
    ) {
        // d = 128, the paper config's width: a long fused chain must obey
        // the same bound as a short one.
        let reference = a.matmul_with(&b, BackendKind::Reference);
        let optimized = a.matmul_with(&b, BackendKind::Optimized);
        if let Err(why) = within_nn_terms(&a, &b, &reference, &optimized) {
            prop_assert!(false, "{why}");
        }
    }

    #[test]
    fn nn_propagates_every_reference_nan(
        a in tensor_of(9, 6, hostile_float_with_nan()),
        b in tensor_of(6, 7, hostile_float_with_nan()),
    ) {
        // The optimized kernel's sums include a superset of the reference
        // terms (it drops the +0.0 skip), so wherever the reference sees a
        // NaN the optimized result must be NaN too. The converse is
        // deliberately NOT required: +0.0 · NaN terms the reference skips
        // may surface as NaN only on the optimized path.
        let reference = a.matmul_with(&b, BackendKind::Reference);
        let optimized = a.matmul_with(&b, BackendKind::Optimized);
        for i in 0..reference.rows() {
            for j in 0..reference.cols() {
                if reference.get(i, j).is_nan() {
                    prop_assert!(optimized.get(i, j).is_nan(),
                        "reference NaN at ({i},{j}) vanished on the optimized path");
                }
            }
        }
    }

    #[test]
    fn nn_acc_into_nonzero_out_is_tolerance_bounded(
        a in tensor_of(10, 4, hostile_float()),
        b in tensor_of(4, 9, hostile_float()),
        seed in tensor_of(10, 9, hostile_float()),
    ) {
        // Accumulating into a nonzero buffer is where the backends'
        // rounding genuinely differs: reference rounds per term, optimized
        // rounds once when folding its register tile in.
        let mut reference = seed.clone();
        a.matmul_acc_with(&b, &mut reference, BackendKind::Reference);
        let mut optimized = seed.clone();
        a.matmul_acc_with(&b, &mut optimized, BackendKind::Optimized);
        for i in 0..reference.rows() {
            for j in 0..reference.cols() {
                let r = reference.get(i, j);
                let o = optimized.get(i, j);
                if r.is_nan() || o.is_nan() {
                    prop_assert!(r.is_nan() && o.is_nan());
                } else if r.is_infinite() || o.is_infinite() {
                    prop_assert_eq!(r, o);
                } else {
                    let tol = nn_tolerance(&a, &b, i, j)
                        + seed.get(i, j).abs() * 1e-5;
                    prop_assert!((r - o).abs() <= tol,
                        "({i},{j}): reference {r}, optimized {o}, tol {tol}");
                }
            }
        }
    }
}

proptest! {
    // Each case runs both products on both backends at 15 shapes and 11
    // row counts.
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn gemm_rows_do_not_depend_on_the_other_rows_of_the_call(
        pool in prop::collection::vec(hostile_float(), 64),
        seed in any::<u64>(),
    ) {
        // Row `i` of an `m`-row call against row `i` alone, for `m` across
        // the optimized packing threshold (8), an `MR` band tail (33) and
        // a deep chunk's node count (853); for the last, a sample of rows
        // in the first, a middle and the last band. `B`'s planted ±∞ and
        // NaN reach every output row.
        const M: usize = 853;
        let checked = |m: usize| {
            (0..m).filter(move |&i| m <= 33 || i < 9 || (420..426).contains(&i) || i + 5 >= m)
        };
        for k in [96usize, 128, 256] {
            let a = Tensor::from_vec(M, k, operand(&pool, seed ^ k as u64, M * k));
            for n in [3usize, 8, 16, 128, 130] {
                let b = Tensor::from_vec(k, n, operand(&pool, seed ^ (k * n) as u64, k * n));
                let bt = b.transpose();
                for backend in BackendKind::all() {
                    for m in (1..=9).chain([33, M]) {
                        let rows = rows_of(a.as_slice(), k, m, k);
                        let nn = rows.matmul_with(&b, backend);
                        let nt = rows.matmul_nt_with(&bt, backend);
                        for i in checked(m) {
                            let row = Tensor::row_vector(a.row(i));
                            for (op, all, alone) in [
                                ("nn", &nn, row.matmul_with(&b, backend)),
                                ("nt", &nt, row.matmul_nt_with(&bt, backend)),
                            ] {
                                if let Err(why) = same_bits(all.row(i), alone.row(0)) {
                                    let at = format!("{backend:?} {op}, k={k} n={n}, row {i} of {m}");
                                    prop_assert!(false, "{at}: {why}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Four threads run `Optimized` nn, nt and tn side by side, each at its own
/// inner dimension, so their thread-local pack scratch is sized differently
/// and grows while the others pack; every result must be bitwise the same
/// call made on the test thread. A fit and a server's batcher in one
/// process run GEMMs exactly so.
#[test]
fn gemms_on_concurrent_threads_match_the_calling_thread() {
    const ROUNDS: usize = 8;
    let pool: Vec<f32> = (0..64)
        .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.03)
        .collect();
    let products = |k: usize| {
        let (m, n) = (40, 24);
        let a = Tensor::from_vec(m, k, operand(&pool, k as u64, m * k));
        let b = Tensor::from_vec(k, n, operand(&pool, 3 * k as u64, k * n));
        let at = Tensor::from_vec(k, m, operand(&pool, 5 * k as u64, k * m));
        [
            a.matmul_with(&b, BackendKind::Optimized),
            a.matmul_nt_with(&b.transpose(), BackendKind::Optimized),
            at.matmul_tn_with(&b, BackendKind::Optimized),
        ]
    };
    let ks = [16usize, 37, 128, 200];
    let alone: Vec<_> = ks.iter().map(|&k| products(k)).collect();
    let start = std::sync::Barrier::new(ks.len());
    std::thread::scope(|scope| {
        for (&k, want) in ks.iter().zip(&alone) {
            let (start, products) = (&start, &products);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    for (op, (got, want)) in
                        ["nn", "nt", "tn"].iter().zip(products(k).iter().zip(want))
                    {
                        if let Err(why) = same_bits(got.as_slice(), want.as_slice()) {
                            panic!("{op}, k = {k}, round {round}: {why}");
                        }
                    }
                }
            });
        }
    });
}
