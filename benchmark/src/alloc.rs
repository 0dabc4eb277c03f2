//! A counting global allocator: the exact, hardware-independent cost
//! signal behind `allocs_per_sim_s` and `peak_heap_mib`.
//!
//! Counters are per thread. The benchmark runs every workload on the main
//! thread, so the main thread's counters are the whole run; a per-thread
//! ledger also keeps the unit tests exact while `cargo test` runs other
//! tests on sibling threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator and counts what passes through.
pub struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling thread's ledger paused: nothing `f` allocates
/// or frees is counted. For the benchmark's own reference kernel, so that
/// the ledger describes the simulator alone. Memory allocated in a paused
/// call must also be freed in one, or `live` goes wrong.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.replace(true);
    let out = f();
    PAUSED.set(was);
    out
}

fn paused() -> bool {
    PAUSED.try_with(Cell::get).unwrap_or(true)
}

/// `try_with`: the allocator is still called while a thread's locals are
/// being torn down, and a missed count there is outside every measurement.
fn grew(bytes: usize) {
    if paused() {
        return;
    }
    let bytes = bytes as u64;
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
    let live = LIVE.try_with(|c| {
        c.set(c.get() + bytes);
        c.get()
    });
    if let Ok(live) = live {
        let _ = PEAK.try_with(|c| c.set(c.get().max(live)));
    }
}

fn shrank(bytes: usize) {
    if paused() {
        return;
    }
    let _ = LIVE.try_with(|c| c.set(c.get().saturating_sub(bytes as u64)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// The calling thread's allocation ledger at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Highest `live` seen so far.
    pub peak: u64,
}

/// Reads the calling thread's ledger.
pub fn snapshot() -> Snapshot {
    Snapshot { calls: CALLS.get(), bytes: BYTES.get(), live: LIVE.get(), peak: PEAK.get() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_pattern_exactly() {
        let before = snapshot();
        let a: Vec<u8> = Vec::with_capacity(1000);
        let mut b: Vec<u64> = Vec::with_capacity(4);
        b.extend([1, 2, 3, 4]);
        b.reserve_exact(4); // one realloc: 32 -> 64 bytes
        let mid = snapshot();
        assert_eq!(mid.calls - before.calls, 3);
        assert_eq!(mid.bytes - before.bytes, 1000 + 32 + 64);
        assert_eq!(mid.live - before.live, 1000 + 64);
        drop(a);
        drop(b);
        let after = snapshot();
        assert_eq!(after.calls, mid.calls, "freeing is not an allocation");
        assert_eq!(after.live, before.live);
        assert!(after.peak >= before.live + 1064);
    }

    #[test]
    fn a_paused_ledger_counts_nothing() {
        let before = snapshot();
        let kept = uncounted(|| {
            let scratch = vec![0u8; 1 << 16];
            drop(scratch);
            vec![1u32; 100]
        });
        assert_eq!(snapshot(), before);
        uncounted(|| drop(kept));
        assert_eq!(snapshot(), before);
        let counted = vec![0u8; 10];
        assert_eq!(snapshot().calls, before.calls + 1, "and counts again afterwards");
        drop(counted);
    }

    #[test]
    fn peak_is_a_high_water_mark() {
        let base = snapshot().live;
        let big = vec![0u8; 1 << 20];
        let high = snapshot().peak;
        assert!(high >= base + (1 << 20));
        drop(big);
        let _small = Box::new([0u8; 16]);
        assert_eq!(snapshot().peak.max(high), snapshot().peak);
        assert!(snapshot().live < high);
    }
}
