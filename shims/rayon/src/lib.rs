//! Offline stand-in for `rayon`, backed by a persistent worker pool.
//!
//! The build container has no access to crates.io, so the workspace
//! patches `rayon` to this crate (see the root `Cargo.toml`). It provides
//! exactly what the workspace calls: one chunked fan-out over a mutable
//! slice, `slice.par_chunks_mut(n).enumerate().for_each(|(i, chunk)| …)`
//! (the GEMM's row blocks), plus [`current_num_threads`] and the test hook
//! [`set_pool_threads`]. As in rayon, every chunk is visited exactly once,
//! the closure only needs `Sync`, and a panic inside it propagates to the
//! caller.
//!
//! One lazily-started global pool of parked workers lives for the life of
//! the process, so a call pays a queue push and a wake, not a thread
//! spawn. Workers and the calling thread claim chunk indices one at a time
//! from an atomic cursor; the caller always participates, so a call makes
//! progress even when every worker is busy and nested calls cannot
//! deadlock. The caller returns only once every chunk has completed, which
//! is what makes the borrowed slice and closure sound.
//!
//! The pool size defaults to the machine's available parallelism and can
//! be pinned with `KFAC_POOL_THREADS` (read once, at first use; `1` forces
//! the inline sequential path, which CI exercises). Kernel results are
//! bitwise independent of the pool size, and the determinism suite
//! checks that across [`set_pool_threads`] sizes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A queued unit of pool work: "help execute this batch". The closure is
/// `'static` because it only captures an `Arc` to the batch descriptor.
type HelpJob = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<HelpJob>,
    /// Number of worker threads the pool should present. Workers beyond
    /// this target (after a shrink via [`set_pool_threads`]) exit.
    target: usize,
    /// Number of worker threads currently spawned.
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_ready: Condvar,
}

impl Pool {
    fn push_jobs(&self, jobs: impl Iterator<Item = HelpJob>) {
        let mut st = self.state.lock().expect("pool mutex");
        st.queue.extend(jobs);
        self.spawn_up_to_target(&mut st);
        drop(st);
        self.work_ready.notify_all();
    }

    /// Ensure `target - 1` helper threads exist (the calling thread is
    /// always the N-th worker of its own batch).
    fn spawn_up_to_target(&self, st: &mut PoolState) {
        let want = st.target.saturating_sub(1);
        while st.spawned < want {
            st.spawned += 1;
            std::thread::Builder::new()
                .name(format!("kfac-pool-{}", st.spawned))
                .spawn(worker_loop)
                .expect("spawn pool worker");
        }
    }
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            target: default_threads(),
            spawned: 0,
        }),
        work_ready: Condvar::new(),
    })
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("KFAC_POOL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn worker_loop() {
    let pool = pool();
    loop {
        let job = {
            let mut st = pool.state.lock().expect("pool mutex");
            loop {
                // Exit quietly if the pool shrank below our rank.
                if st.spawned > st.target.saturating_sub(1) {
                    st.spawned -= 1;
                    return;
                }
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                st = pool.work_ready.wait(st).expect("pool condvar");
            }
        };
        job();
    }
}

/// Number of worker threads a parallel call will use (rayon reports its
/// pool size here). Defaults to the machine's available parallelism,
/// overridable with `KFAC_POOL_THREADS`.
pub fn current_num_threads() -> usize {
    pool().state.lock().expect("pool mutex").target
}

/// Resize the pool (test hook; not part of rayon's API). Kernel results
/// are bitwise independent of the pool size — the determinism property
/// tests drive this across 1/2/4/8 threads.
pub fn set_pool_threads(n: usize) {
    let p = pool();
    let mut st = p.state.lock().expect("pool mutex");
    st.target = n.max(1);
    p.spawn_up_to_target(&mut st);
    drop(st);
    // Wake parked workers so supernumerary ones can exit.
    p.work_ready.notify_all();
}

/// Panic payload captured from a worker closure, re-raised on the caller.
type ChunkPanic = Box<dyn std::any::Any + Send>;

/// Everything a worker needs to help with one parallel call. The slice
/// and the closure live on the caller's stack behind `run`, whose
/// lifetime is erased: `run` is only ever called for a *claimed* chunk,
/// and the caller cannot return before every chunk is completed.
struct Batch {
    /// Next chunk index to claim.
    cursor: AtomicUsize,
    chunks: usize,
    /// Runs the caller's closure on chunk `c`; `c` must be claimed.
    run: *const (dyn Fn(usize) + Sync),
    /// Chunks completed so far and the first panic among them.
    progress: Mutex<(usize, Option<ChunkPanic>)>,
    done_cv: Condvar,
}

// SAFETY: `run` points at a `Sync` closure that the caller keeps alive
// until every claimed chunk is counted, and is never called otherwise;
// the cursor is atomic, and `progress` and `done_cv` are `Send + Sync`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    /// Claim and run chunks until the batch is exhausted. Returns after
    /// the cursor runs out (other claimed chunks may still be running).
    fn help(&self) {
        loop {
            let c = self.cursor.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            // SAFETY: the caller keeps `run` alive until `c` is counted.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.run)(c) }));
            let mut p = self.progress.lock().expect("batch mutex");
            if let Err(payload) = result {
                p.1.get_or_insert(payload);
            }
            p.0 += 1;
            if p.0 == self.chunks {
                drop(p);
                self.done_cv.notify_all();
            }
        }
    }

    /// Block until every chunk has completed; return the first panic.
    fn wait(&self) -> Option<ChunkPanic> {
        let mut p = self.progress.lock().expect("batch mutex");
        while p.0 < self.chunks {
            p = self.done_cv.wait(p).expect("batch condvar");
        }
        p.1.take()
    }
}

/// `par_chunks_mut` over mutable slices: disjoint chunks, so each worker
/// owns its chunk exclusively.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel counterpart of `slice::chunks_mut`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut { slice: self, size }
    }
}

/// The chunks of a mutable slice, awaiting [`ParChunksMut::enumerate`].
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair each chunk with its index, like `Iterator::enumerate`.
    pub fn enumerate(self) -> EnumerateChunksMut<'a, T> {
        EnumerateChunksMut(self)
    }
}

/// Indexed chunks of a mutable slice; [`EnumerateChunksMut::for_each`]
/// runs across the pool.
pub struct EnumerateChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumerateChunksMut<'_, T> {
    /// Apply `f` to every `(index, chunk)` across the pool workers.
    /// Panics in `f` propagate to the caller (after all chunks finish).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        let ParChunksMut { slice, size } = self.0;
        assert!(size != 0, "chunk size must be non-zero");
        let (len, chunks) = (slice.len(), slice.len().div_ceil(size));
        let workers = current_num_threads().min(chunks);
        if workers <= 1 {
            slice.chunks_mut(size).enumerate().for_each(f);
            return;
        }

        // The base address crosses threads as an integer; each claimed
        // chunk index rebuilds its own disjoint `&mut` chunk from it.
        let base = slice.as_mut_ptr() as usize;
        let run = |c: usize| {
            let start = c * size;
            // SAFETY: chunk `c` is claimed once, so this `&mut` is exclusive.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut((base as *mut T).add(start), size.min(len - start))
            };
            f((c, chunk))
        };
        let run: &(dyn Fn(usize) + Sync) = &run;
        let batch = Arc::new(Batch {
            cursor: AtomicUsize::new(0),
            chunks,
            // SAFETY: only the lifetime changes; see `Batch`.
            run: unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync + 'static)>(run) },
            progress: Mutex::new((0, None)),
            done_cv: Condvar::new(),
        });

        // Each help job holds its own Arc: one that starts after this call
        // returned sees the exhausted cursor and never touches `run`.
        pool().push_jobs((1..workers).map(|_| {
            let b = Arc::clone(&batch);
            Box::new(move || b.help()) as HelpJob
        }));

        // The caller is a full participant, so the call completes even if
        // no worker ever picks up a help job (a saturated or shrunk pool).
        batch.help();
        if let Some(payload) = batch.wait() {
            resume_unwind(payload);
        }
    }
}

/// The glob-import surface (`use rayon::prelude::*`), mirroring rayon's.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    /// Add `1 + chunk index` to every element, in chunks of `size`.
    fn mark_chunks(data: &mut [u32], size: usize) {
        data.par_chunks_mut(size)
            .enumerate()
            .for_each(|(i, chunk)| {
                for v in chunk.iter_mut() {
                    *v += 1 + i as u32;
                }
            });
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        set_pool_threads(4);
        let mut data = vec![0u32; 1000];
        mark_chunks(&mut data, 7);
        // Every element written exactly once, with its chunk index.
        for (j, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (j / 7) as u32);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        set_pool_threads(4);
        Vec::<u32>::new()
            .par_chunks_mut(4)
            .enumerate()
            .for_each(|_| panic!("no chunks expected"));
    }

    #[test]
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn panic_propagates_to_caller() {
        set_pool_threads(4);
        let result = std::panic::catch_unwind(|| {
            let mut data = vec![0u32; 64];
            data.par_chunks_mut(1).enumerate().for_each(|(i, _)| {
                if i == 13 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool survives a propagated panic.
        let mut data = vec![0u32; 32];
        mark_chunks(&mut data, 1);
        assert_eq!(data[31], 32);
    }

    #[test]
    fn nested_parallel_calls_complete() {
        set_pool_threads(4);
        let mut out = [0usize; 8];
        out.par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
            let mut prods = vec![0usize; 64];
            prods
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(j, p)| p[0] = i * j);
            slot[0] = prods.iter().sum();
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * (0..64).sum::<usize>());
        }
    }

    /// Sibling tests resize the one global pool concurrently, so this
    /// never asserts the pool size itself: only that the result does not
    /// depend on it.
    #[test]
    fn results_do_not_depend_on_pool_size() {
        let mut expected = vec![0u32; 1000];
        for (i, chunk) in expected.chunks_mut(3).enumerate() {
            chunk.fill(1 + i as u32);
        }
        for threads in [1, 2, 4, 8, 2, 1] {
            set_pool_threads(threads);
            let mut data = vec![0u32; 1000];
            mark_chunks(&mut data, 3);
            assert_eq!(data, expected, "pool of {threads}");
        }
    }

    #[test]
    fn many_small_calls_are_cheap() {
        set_pool_threads(4);
        // Regression guard for the spawn-per-call behaviour this pool
        // replaces: 10k tiny calls should complete quickly.
        for _ in 0..10_000 {
            let mut data = vec![0u32; 8];
            mark_chunks(&mut data, 1);
            assert_eq!(data.iter().sum::<u32>(), 36);
        }
    }
}
