//! # widen-tensor
//!
//! A small, dependency-light numerical substrate purpose-built for the WIDEN
//! reproduction: dense row-major 2-D tensors, a reverse-mode autograd tape
//! covering exactly the operator vocabulary the paper needs (mat-mul, masked
//! softmax attention, element-wise ⊙ message packaging, ReLU feed-forward,
//! row L2 normalisation, softmax cross-entropy), sparse CSR kernels for the
//! full-graph baselines (GCN / FastGCN / GTN / HAN), and SGD / Adam
//! optimizers with the paper's L2 regularisation.
//!
//! The design goal is *auditable correctness* rather than peak FLOPs: every
//! differentiable op has a finite-difference gradient check in the test
//! suite, shapes are explicit (no silent broadcasting beyond the single
//! row-broadcast the paper's Eq. 7 bias needs), and all randomness is
//! injected through caller-provided seeded RNGs.
//!
//! ## Quick example
//!
//! ```
//! use widen_tensor::{Tape, Tensor};
//!
//! let mut tape = Tape::new();
//! let a = tape.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let b = tape.leaf(Tensor::eye(2));
//! let c = tape.matmul(a, b);
//! let loss = tape.sum(c);
//! tape.backward(loss);
//! assert_eq!(tape.grad(a).unwrap().as_slice(), &[1.0, 1.0, 1.0, 1.0]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod init;
pub mod kernels;
mod op;
mod optim;
mod params;
mod pool;
mod profile;
mod serialize;
mod sparse;
mod tape;
mod tensor;

pub mod gradcheck;

pub use init::{he_normal, normal, xavier_uniform, zeros_init};
pub use kernels::{BackendKind, KernelBackend, Optimized, Reference};
pub use op::{Op, OP_KIND_COUNT};
pub use optim::{Adam, AdamConfig, Optimizer, Sgd};
pub use params::{ParamId, ParamStore};
pub use pool::{BufferPool, PoolStats};
pub use profile::{OpProfile, ProfileReport};
pub use serialize::{digest64, load_params, save_params, CheckpointError};
pub use sparse::CsrMatrix;
pub use tape::{Tape, Var};
pub use tensor::Tensor;
