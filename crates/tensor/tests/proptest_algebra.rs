//! Property-based tests of the tensor algebra and autograd invariants.

use proptest::prelude::*;
use widen_tensor::{load_params, save_params, BackendKind, CsrMatrix, ParamStore, Tape, Tensor};

fn small_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// Adversarial finite floats for kernel equivalence tests: exact zeros of
/// both signs, subnormals, huge and tiny magnitudes, plus ordinary values.
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

fn hostile_tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(hostile_float(), rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_distributes_over_addition(
        a in small_tensor(3, 4),
        b in small_tensor(4, 2),
        c in small_tensor(4, 2),
    ) {
        // A(B + C) = AB + AC
        let bc = b.zip_map(&c, |x, y| x + y);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_scaled(1.0, &a.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn matmul_transpose_identity(
        a in small_tensor(3, 5),
        b in small_tensor(5, 2),
    ) {
        // (AB)ᵀ = BᵀAᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    #[test]
    fn matmul_tn_is_bitwise_transpose_matmul_over_hostile_floats(
        a in hostile_tensor(6, 4),
        b in hostile_tensor(6, 5),
    ) {
        // The dedicated Aᵀ·B kernel (with its +0.0-only sparsity
        // short-circuit) must agree bit-for-bit with the explicit
        // transpose product — including -0.0, subnormal and huge inputs.
        let direct = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        let direct_bits: Vec<u32> = direct.as_slice().iter().map(|x| x.to_bits()).collect();
        let explicit_bits: Vec<u32> = explicit.as_slice().iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(direct_bits, explicit_bits);
    }

    #[test]
    fn acc_kernels_match_alloc_kernels_over_hostile_floats(
        a in hostile_tensor(3, 4),
        b in hostile_tensor(4, 2),
    ) {
        let mut acc = Tensor::zeros(3, 2);
        a.matmul_acc_with(&b, &mut acc, BackendKind::default());
        let plain = a.matmul(&b);
        prop_assert_eq!(acc.as_slice(), plain.as_slice());

        let bt = b.transpose();
        let mut acc_nt = Tensor::zeros(3, 2);
        a.matmul_nt_acc_with(&bt, &mut acc_nt, BackendKind::default());
        let plain_nt = a.matmul_nt(&bt);
        prop_assert_eq!(acc_nt.as_slice(), plain_nt.as_slice());

        let mut acc_tn = Tensor::zeros(3, 2);
        let at = a.transpose();
        at.matmul_tn_acc_with(&b, &mut acc_tn, BackendKind::default());
        let plain_tn = at.matmul_tn(&b);
        prop_assert_eq!(acc_tn.as_slice(), plain_tn.as_slice());
    }

    #[test]
    fn softmax_is_shift_invariant(row in prop::collection::vec(-5.0f32..5.0, 1..12)) {
        let t = Tensor::row_vector(&row);
        let shifted = t.map(|x| x + 2.5);
        let a = t.softmax_rows();
        let b = shifted.softmax_rows();
        prop_assert!(a.max_abs_diff(&b) < 1e-5);
        let sum: f32 = a.row(0).iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn l2_normalized_rows_have_unit_norm(t in small_tensor(4, 6)) {
        let n = t.l2_normalize_rows();
        for r in 0..4 {
            let orig_norm: f32 = t.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            let norm: f32 = n.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            if orig_norm > 1e-3 {
                prop_assert!((norm - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn spmm_agrees_with_dense_matmul(
        triplets in prop::collection::vec((0usize..5, 0usize..5, -2.0f32..2.0), 0..15),
        x in small_tensor(5, 3),
    ) {
        let csr = CsrMatrix::from_coo(5, 5, &triplets);
        let sparse = csr.spmm(&x);
        let dense = csr.to_dense().matmul(&x);
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-4);
    }

    #[test]
    fn spspmm_agrees_with_dense(
        ta in prop::collection::vec((0usize..4, 0usize..4, -2.0f32..2.0), 0..10),
        tb in prop::collection::vec((0usize..4, 0usize..4, -2.0f32..2.0), 0..10),
    ) {
        let a = CsrMatrix::from_coo(4, 4, &ta);
        let b = CsrMatrix::from_coo(4, 4, &tb);
        let sparse = a.spspmm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        prop_assert!(sparse.max_abs_diff(&dense) < 1e-4);
    }

    #[test]
    fn autograd_sum_of_mul_matches_manual(
        a in small_tensor(2, 3),
        b in small_tensor(2, 3),
    ) {
        // d/dA Σ (A ⊙ B) = B.
        let mut tape = Tape::new();
        let va = tape.leaf(a.clone());
        let vb = tape.leaf(b.clone());
        let m = tape.mul(va, vb);
        let loss = tape.sum(m);
        tape.backward(loss);
        let ga = tape.grad(va).unwrap();
        prop_assert!(ga.max_abs_diff(&b) < 1e-5);
    }

    #[test]
    fn checkpoint_round_trip_is_lossless(
        w1 in small_tensor(2, 4),
        w2 in small_tensor(3, 1),
    ) {
        let mut store = ParamStore::new();
        store.register("w1", w1.clone());
        store.register("w2", w2.clone());
        let loaded = load_params(&save_params(&store)).unwrap();
        prop_assert_eq!(loaded.get(loaded.id("w1").unwrap()).as_slice(), w1.as_slice());
        prop_assert_eq!(loaded.get(loaded.id("w2").unwrap()).as_slice(), w2.as_slice());
    }

    #[test]
    fn gcn_normalization_bounds_spectrum(
        triplets in prop::collection::vec((0usize..6, 0usize..6, 1.0f32..1.0001), 1..15),
    ) {
        // Symmetrise first.
        let mut sym = Vec::new();
        for &(r, c, v) in &triplets {
            if r != c {
                sym.push((r, c, v));
                sym.push((c, r, v));
            }
        }
        prop_assume!(!sym.is_empty());
        let adj = CsrMatrix::from_coo(6, 6, &sym).gcn_normalized();
        // Rows of D^{-1/2}(A+I)D^{-1/2} sum to at most ~1 + ε when the
        // graph is regular-ish; in general all entries are in (0, 1].
        for r in 0..6 {
            for (_, v) in adj.row_entries(r) {
                prop_assert!(v > 0.0 && v <= 1.0 + 1e-5);
            }
        }
    }
}
