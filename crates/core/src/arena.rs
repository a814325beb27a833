//! The thread's one tape-buffer arena (DESIGN.md, "Who carries the pool").
//!
//! Every tape this crate records — a training step's, an inference
//! chunk's — draws its buffers from the pool of the thread it runs on. A
//! fit takes the pool when it starts and hands it back when it returns; a
//! frozen inference state ([`crate::InferState`]) holds it while it lives.
//! Consecutive fits and inference calls on one thread therefore reuse one
//! set of buffers, where each would otherwise allocate (and fragment the
//! heap with) a set of its own.

use std::cell::RefCell;

use widen_tensor::BufferPool;

thread_local! {
    static ARENA: RefCell<BufferPool> = RefCell::new(BufferPool::new());
}

/// Takes the thread's pool; an empty one stands in until it comes back.
pub(crate) fn take() -> BufferPool {
    ARENA.take()
}

/// Hands `pool` back to the thread, replacing what stands in for it. A
/// no-op while the thread is being torn down.
pub(crate) fn give_back(pool: BufferPool) {
    let _ = ARENA.try_with(|arena| arena.replace(pool));
}

/// Runs `f` on the pool the thread holds (tests: poison it, read it).
#[cfg(test)]
pub(crate) fn with<R>(f: impl FnOnce(&mut BufferPool) -> R) -> R {
    ARENA.with_borrow_mut(f)
}
