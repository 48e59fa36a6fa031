//! Scoped-thread harness shared by both construction passes.
//!
//! The construction sweeps are embarrassingly parallel over a work list
//! (tail attributes in pass 1, unordered pairs in pass 2) with results that
//! must be merged **in work-list order** so edge ids stay deterministic at
//! every thread count. [`parallel_blocks`] cuts the list into fixed-size
//! blocks and workers claim the next block off an atomic cursor, so a
//! thread that drew cheap blocks keeps pulling instead of idling. Results
//! are reassembled in block order, which concatenates back to the
//! sequential output exactly — determinism holds at every thread count
//! and block size. A uniform workload (pass 1's per-tail sweeps) passes
//! one block per worker; an uneven one (pass 2's pairs) passes
//! [`steal_block_size`]'s finer blocks.

/// Work-stealing granularity: block-based passes cut their work list
/// into `threads * BLOCKS_PER_THREAD` blocks.
///
/// Re-measured over the flat u16 pass-2 kernels (full builds at
/// `threads = 4`, `n ∈ {40, 240}`, median of 5, release; numbers in the
/// block-sizing note in `crate::counting`): 16 beat 8 by ~10–15% at
/// both sizes and 4 trailed further — pair-block costs are uneven
/// enough under the adaptive folds that finer blocks rebalance better,
/// while the atomic-cursor and result-assembly overhead is still
/// invisible at this granularity. Re-measured again after the SIMD
/// vertical kernel landed (same harness, {8, 16, 32} sweep): 16 still
/// led at n = 240 (309.6 ms vs 312.6 at 8 and 325.2 at 32) with the
/// n = 40 builds inside run-to-run noise — the vector tier shrinks
/// per-block cost but doesn't change where the balance point sits.
/// Rerun `parallel::tests::block_sizing_measurement` (`--ignored`,
/// release) before changing this.
pub(crate) const BLOCKS_PER_THREAD: usize = 16;

/// The shared sizing rule for a work-stealing pass over `len` items on
/// `threads` workers: `ceil(len / (threads * BLOCKS_PER_THREAD))`,
/// never zero.
pub(crate) fn steal_block_size(len: usize, threads: usize) -> usize {
    len.div_ceil(threads * BLOCKS_PER_THREAD).max(1)
}

/// Runs workers over fixed-size blocks of `items` (`block` items each,
/// last block possibly shorter) claimed by up to `threads` scoped workers
/// off a shared atomic cursor, returning the per-block results **in block
/// order** — concatenating them reproduces the sequential output exactly,
/// no matter which worker processed which block.
///
/// `make_worker` is called once per worker thread and the returned
/// closure processes every block that thread claims — per-thread scratch
/// (counters, bucket buffers) lives in that closure and is reused across
/// blocks, not reallocated per block.
///
/// With `threads <= 1` or a single block the spawns are skipped and one
/// worker runs the blocks inline in order — no spawn overhead, identical
/// results.
pub(crate) fn parallel_blocks<T, R, W, F>(
    items: &[T],
    threads: usize,
    block: usize,
    make_worker: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: FnMut(&[T]) -> R,
    F: Fn() -> W + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let block = block.max(1);
    let num_blocks = items.len().div_ceil(block);
    let threads = threads.clamp(1, num_blocks);
    if threads == 1 {
        let mut worker = make_worker();
        return items.chunks(block).map(&mut worker).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (cursor, make_worker) = (&cursor, &make_worker);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut worker = make_worker();
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if b >= num_blocks {
                            break;
                        }
                        let lo = b * block;
                        let hi = (lo + block).min(items.len());
                        done.push((b, worker(&items[lo..hi])));
                    }
                    done
                })
            })
            .collect();
        let mut tagged: Vec<(usize, R)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("construction worker panicked"))
            .collect();
        tagged.sort_unstable_by_key(|&(b, _)| b);
        tagged.into_iter().map(|(_, r)| r).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_blocks_arrive_in_block_order() {
        // Empty and one-item lists included: an empty list yields no
        // blocks, and a single block runs inline however many threads
        // are offered.
        for len in [0, 1, 103] {
            let items: Vec<usize> = (0..len).collect();
            for threads in [1, 2, 3, 8, 200] {
                for block in [1, 2, 7, 16, 103, 500] {
                    let blocks = parallel_blocks(&items, threads, block, || {
                        |slice: &[usize]| slice.to_vec()
                    });
                    let what = format!("len = {len}, threads = {threads}, block = {block}");
                    assert_eq!(blocks.len(), len.div_ceil(block), "{what}");
                    let flat: Vec<usize> = blocks.into_iter().flatten().collect();
                    assert_eq!(flat, items, "{what}");
                }
            }
        }
    }

    #[test]
    fn uneven_block_costs_rebalance_without_reordering() {
        // Early blocks are far more expensive; stealing must still return
        // results in block order.
        let items: Vec<u64> = (0..64).collect();
        let blocks = parallel_blocks(&items, 4, 4, || {
            |slice: &[u64]| {
                if slice[0] < 16 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                slice.iter().sum::<u64>()
            }
        });
        let sums: Vec<u64> = items.chunks(4).map(|c| c.iter().sum()).collect();
        assert_eq!(blocks, sums);
    }

    #[test]
    fn per_thread_worker_scratch_is_reused_across_blocks() {
        // Each worker counts the blocks it processed in its own scratch;
        // the per-block results must account for every block exactly once,
        // and (with one thread) the scratch must persist across all blocks.
        let items: Vec<usize> = (0..40).collect();
        let blocks = parallel_blocks(&items, 1, 4, || {
            let mut seen = 0usize;
            move |slice: &[usize]| {
                seen += 1;
                (seen, slice.len())
            }
        });
        let seen: Vec<usize> = blocks.iter().map(|&(s, _)| s).collect();
        assert_eq!(seen, (1..=10).collect::<Vec<_>>());
    }

    /// The block-sizing measurement harness behind `BLOCKS_PER_THREAD`:
    /// run with each candidate value compiled in and compare the
    /// printed medians. Ignored by default (it is a benchmark):
    ///
    /// ```bash
    /// cargo test -p hypermine-core --release -- --ignored --nocapture block_sizing
    /// ```
    #[test]
    #[ignore = "benchmark harness, run manually with --release"]
    fn block_sizing_measurement() {
        use crate::config::ModelConfig;
        use crate::model::AssociationModel;
        use hypermine_data::{Database, Value};

        for &(n, m) in &[(40usize, 400usize), (240, 400)] {
            let cols: Vec<Vec<Value>> = (0..n)
                .map(|a| {
                    (0..m)
                        .map(|o| ((o * (a % 7 + 1) + a / 7) % 5 + 1) as Value)
                        .collect()
                })
                .collect();
            let names = (0..n).map(|a| format!("a{a}")).collect();
            let db = Database::from_columns(names, 5, cols).unwrap();
            let cfg = ModelConfig {
                threads: 4,
                ..ModelConfig::default()
            };
            let mut runs: Vec<f64> = (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    let model = AssociationModel::build(&db, &cfg).unwrap();
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    assert!(model.hypergraph().num_edges() > 0);
                    ms
                })
                .collect();
            runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            println!(
                "blocks/thread {} | n = {n:>3}: median {:.2} ms (min {:.2}, max {:.2})",
                BLOCKS_PER_THREAD, runs[2], runs[0], runs[4]
            );
        }
    }

    #[test]
    fn empty_and_degenerate_block_inputs() {
        assert!(parallel_blocks(&[] as &[usize], 4, 8, || |s: &[usize]| s.len()).is_empty());
        // block = 0 is clamped to 1.
        let blocks = parallel_blocks(&[1usize, 2, 3], 2, 0, || |s: &[usize]| s[0]);
        assert_eq!(blocks, vec![1, 2, 3]);
    }
}
