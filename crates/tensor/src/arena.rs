//! Thread-local scratch arena: reusable buffers for the kernel hot path.
//!
//! Steady-state K-FAC iterations run the same kernels on the same shapes
//! every step, so every transient buffer — GEMM packing panels, conv
//! patch-block operands, Jacobi eigensolver workspace, per-layer factor
//! temporaries — can be recycled instead of reallocated. This module is
//! the allocator those paths share: a per-thread free list of `Vec<f32>` /
//! `Vec<f64>` buffers keyed by capacity.
//!
//! The contract is ownership round-tripping, not borrowing: [`take_f32`]
//! hands out an owned `Vec` (so it can back a [`Matrix`] and flow through
//! existing APIs), and the hot path returns it with [`recycle_f32`] once
//! the iteration is done with it. After one warm-up iteration every
//! `take` is served from the free list and the kernel path performs zero
//! heap allocations — the property the `zero_alloc` integration test
//! pins with a counting allocator.
//!
//! Buffers are *not* cleared on recycle and their contents after `take`
//! are unspecified (stale data from the previous use; the tail beyond the
//! buffer's previous length is zero-filled, so all of it is initialized
//! memory and this stays entirely safe Rust). Kernels treat arena
//! buffers as write-first scratch.

use crate::Matrix;
use std::cell::RefCell;

/// Free-list caps: past this many pooled buffers (or bytes) per thread,
/// recycled buffers are simply dropped. Generous enough for every layer
/// of a ResNet-32 step; a backstop, not a tuning knob.
const MAX_POOLED_BUFFERS: usize = 256;
const MAX_POOLED_BYTES: usize = 256 << 20;

struct PoolInner {
    f32s: Vec<Vec<f32>>,
    f64s: Vec<Vec<f64>>,
    u16s: Vec<Vec<u16>>,
    bytes: usize,
}

impl PoolInner {
    const fn new() -> Self {
        PoolInner {
            f32s: Vec::new(),
            f64s: Vec::new(),
            u16s: Vec::new(),
            bytes: 0,
        }
    }

    fn pooled_buffers(&self) -> usize {
        self.f32s.len() + self.f64s.len() + self.u16s.len()
    }
}

thread_local! {
    static ARENA: RefCell<PoolInner> = const { RefCell::new(PoolInner::new()) };
}

/// Best-fit pop: the smallest pooled buffer whose capacity covers `len`.
/// Returns `None` when nothing fits (caller allocates fresh).
fn pop_fit<T>(pool: &mut Vec<Vec<T>>, len: usize) -> Option<Vec<T>> {
    let mut best: Option<(usize, usize)> = None; // (index, capacity)
    for (i, buf) in pool.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len && best.is_none_or(|(_, bc)| cap < bc) {
            best = Some((i, cap));
        }
    }
    best.map(|(i, _)| pool.swap_remove(i))
}

/// Take an owned `len`-element `f32` scratch buffer. Contents are
/// unspecified (but initialized); treat as write-first scratch.
pub fn take_f32(len: usize) -> Vec<f32> {
    ARENA.with(|a| {
        let mut inner = a.borrow_mut();
        match pop_fit(&mut inner.f32s, len) {
            Some(mut buf) => {
                inner.bytes -= buf.capacity() * std::mem::size_of::<f32>();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    })
}

/// Return an `f32` buffer to this thread's free list.
pub fn recycle_f32(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    ARENA.with(|a| {
        let mut inner = a.borrow_mut();
        let bytes = buf.capacity() * std::mem::size_of::<f32>();
        if inner.pooled_buffers() >= MAX_POOLED_BUFFERS || inner.bytes + bytes > MAX_POOLED_BYTES {
            return; // drop it
        }
        inner.bytes += bytes;
        inner.f32s.push(buf);
    });
}

/// Take an owned `len`-element `u16` scratch buffer (bf16/f16 word
/// storage for half-precision capture buffers, GEMM packs, and wire
/// payloads). Contents unspecified; treat as write-first scratch.
pub fn take_u16(len: usize) -> Vec<u16> {
    ARENA.with(|a| {
        let mut inner = a.borrow_mut();
        match pop_fit(&mut inner.u16s, len) {
            Some(mut buf) => {
                inner.bytes -= buf.capacity() * std::mem::size_of::<u16>();
                buf.resize(len, 0);
                buf
            }
            None => vec![0; len],
        }
    })
}

/// Return a `u16` buffer to this thread's free list.
pub fn recycle_u16(buf: Vec<u16>) {
    if buf.capacity() == 0 {
        return;
    }
    ARENA.with(|a| {
        let mut inner = a.borrow_mut();
        let bytes = buf.capacity() * std::mem::size_of::<u16>();
        if inner.pooled_buffers() >= MAX_POOLED_BUFFERS || inner.bytes + bytes > MAX_POOLED_BYTES {
            return;
        }
        inner.bytes += bytes;
        inner.u16s.push(buf);
    });
}

/// Take an owned `len`-element `f64` scratch buffer (eigensolver
/// workspace). Contents unspecified; treat as write-first scratch.
pub fn take_f64(len: usize) -> Vec<f64> {
    ARENA.with(|a| {
        let mut inner = a.borrow_mut();
        match pop_fit(&mut inner.f64s, len) {
            Some(mut buf) => {
                inner.bytes -= buf.capacity() * std::mem::size_of::<f64>();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    })
}

/// Return an `f64` buffer to this thread's free list.
pub fn recycle_f64(buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    ARENA.with(|a| {
        let mut inner = a.borrow_mut();
        let bytes = buf.capacity() * std::mem::size_of::<f64>();
        if inner.pooled_buffers() >= MAX_POOLED_BUFFERS || inner.bytes + bytes > MAX_POOLED_BYTES {
            return;
        }
        inner.bytes += bytes;
        inner.f64s.push(buf);
    });
}

/// Take a `rows × cols` scratch matrix from the arena. Contents are
/// unspecified; every kernel that receives one writes first.
pub fn take_matrix(rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, take_f32(rows * cols))
}

/// Return a matrix's storage to this thread's free list.
pub fn recycle_matrix(m: Matrix) {
    recycle_f32(m.into_vec());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_storage() {
        let buf = take_f32(1024);
        let ptr = buf.as_ptr();
        recycle_f32(buf);
        let again = take_f32(1024);
        assert_eq!(again.as_ptr(), ptr, "same capacity must be reused");
        assert_eq!(again.len(), 1024);
        recycle_f32(again);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        // Drain this thread's pool into a known state.
        recycle_f32(Vec::with_capacity(4096));
        recycle_f32(Vec::with_capacity(128));
        let buf = take_f32(100);
        assert!(buf.capacity() < 4096, "picked the 128-cap buffer");
        recycle_f32(buf);
    }

    #[test]
    fn shrinking_take_truncates() {
        let mut buf = take_f32(64);
        buf.iter_mut().for_each(|v| *v = 7.0);
        recycle_f32(buf);
        let small = take_f32(8);
        assert_eq!(small.len(), 8);
        recycle_f32(small);
    }

    #[test]
    fn growth_within_capacity_zeroes_only_tail() {
        let mut buf = take_f32(16);
        buf.iter_mut().for_each(|v| *v = 3.0);
        buf.reserve(64 - buf.len());
        recycle_f32(buf);
        let grown = take_f32(64);
        assert_eq!(grown.len(), 64);
        // Head may be stale (3.0), tail must be initialized (0.0 fill).
        assert!(grown[16..].iter().all(|&v| v == 0.0));
        recycle_f32(grown);
    }

    #[test]
    fn u16_round_trip_reuses_storage() {
        let buf = take_u16(512);
        let ptr = buf.as_ptr();
        recycle_u16(buf);
        let again = take_u16(512);
        assert_eq!(again.as_ptr(), ptr, "same capacity must be reused");
        assert_eq!(again.len(), 512);
        recycle_u16(again);
    }

    #[test]
    fn matrix_round_trip() {
        let m = take_matrix(8, 8);
        assert_eq!(m.shape(), (8, 8));
        recycle_matrix(m);
        let f64buf = take_f64(256);
        assert_eq!(f64buf.len(), 256);
        recycle_f64(f64buf);
    }
}
