//! Host-speed calibration for the benchmark's wall-derived figures.
//!
//! The box this benchmark was defined on runs identical work at speeds up
//! to 1.9× apart, in states that last from a second to minutes (README,
//! "Noise study"): a plain stopwatch over a 20 s section spreads 9–29 %
//! between runs of the same code. So the stopwatch is read against a
//! *reference kernel* — a fixed piece of work owned by the benchmark, shaped
//! like the simulator's inner loop (a binary heap of events, float geometry
//! over node positions, hashed route tables, small heap allocations) so
//! that it slows down by the same factor when the host does. The simulator's
//! heartbeat hook runs it every [`TICKS_PER_SAMPLE`] pulses, i.e. at equal
//! spacing in *work*, so the mean sample of a run, over [`NOMINAL_NS`], is
//! the factor by which that run's wall time was stretched.
//!
//! The kernel is part of the benchmark's definition: changing it, its size
//! or [`NOMINAL_NS`] re-bases `sim_s_per_wall_s` and `setup_s`.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::alloc;
use crate::layers::Lcg;

/// One sample's duration on the defining box when nothing contends for it
/// (samples read 0.94–1.08 of this in the one such spell seen; 1.2–1.7 is
/// the box's common state). A host that runs the kernel in this time
/// reports its wall clock unscaled.
pub const NOMINAL_NS: f64 = 2_000_000.0;

/// Heartbeat pulses (8192 dispatched events each) between samples: about
/// 100 ms of simulator work per 2 ms sample.
pub const TICKS_PER_SAMPLE: u64 = 16;

/// Kernel steps per sample.
const STEPS: usize = 12_000;

/// Untimed samples that fill a new kernel's tables.
const WARMUP_SAMPLES: usize = 4;

const NODES: usize = 100;

struct Node {
    x: f64,
    y: f64,
    /// Hashed with fixed keys: the tables have the same layout in every
    /// process, where `RandomState` would shuffle them.
    routes: HashMap<u16, Vec<u16>, BuildHasherDefault<DefaultHasher>>,
    seen: Vec<(u16, u64)>,
}

/// The reference kernel's state: a toy event loop over [`NODES`] nodes.
pub struct Kernel {
    events: BinaryHeap<Reverse<(u64, u64)>>,
    nodes: Vec<Node>,
    rng: Lcg,
    seq: u64,
}

impl Kernel {
    /// A kernel that owns no memory.
    fn empty() -> Self {
        Kernel { events: BinaryHeap::new(), nodes: Vec::new(), rng: Lcg::new(0), seq: 0 }
    }

    fn new() -> Self {
        let mut rng = Lcg::new(11);
        let nodes = (0..NODES)
            .map(|_| Node {
                x: rng.below(2200) as f64,
                y: rng.below(600) as f64,
                routes: HashMap::default(),
                seen: Vec::new(),
            })
            .collect();
        let events = (0..300u64).map(|i| Reverse((rng.below(2_000_000), i))).collect();
        Kernel { events, nodes, rng, seq: 300 }
    }

    /// [`STEPS`] events: pop, "transmit" to the strongest of twelve random
    /// neighbours, touch that node's route table, schedule the successor.
    fn run(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..STEPS {
            let Reverse((at, id)) = self.events.pop().expect("the heap is refilled every step");
            let me = (id % NODES as u64) as usize;
            let (mx, my) = (self.nodes[me].x, self.nodes[me].y);
            let (mut best, mut best_power) = (me, -1.0f64);
            for _ in 0..12 {
                let other = (me + 1 + self.rng.below(NODES as u64 - 1) as usize) % NODES;
                let (dx, dy) = (self.nodes[other].x - mx, self.nodes[other].y - my);
                let d2 = (dx * dx + dy * dy).max(1.0);
                let power = 0.28 * 2.25 / (d2 * d2);
                if power > best_power {
                    (best, best_power) = (other, power);
                }
            }
            acc += best_power;
            let hops = 2 + self.rng.below(7) as usize;
            let dst = self.rng.below(NODES as u64) as u16;
            let route: Vec<u16> = (0..hops).map(|h| ((me + h * 7) % NODES) as u16).collect();
            let node = &mut self.nodes[best];
            match self.rng.below(4) {
                0 | 1 => drop(node.routes.insert(dst, route)),
                2 => acc += node.routes.get(&dst).map_or(0.0, |r| r.len() as f64),
                _ => drop(node.routes.remove(&dst)),
            }
            node.seen.push((dst, at));
            if node.seen.len() > 64 {
                node.seen.remove(0);
            }
            node.x = (node.x + 1.0) % 2200.0;
            self.seq += 1;
            self.events.push(Reverse((at + 1 + self.rng.below(2_000_000), self.seq)));
        }
        acc
    }
}

/// What the reference kernel has cost so far: a run's share is the
/// difference of two readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Reading {
    pub samples: u64,
    /// Wall time spent in the kernel.
    pub spent: Duration,
}

impl Reading {
    /// The part of `self` that came after `earlier`.
    pub fn since(self, earlier: Reading) -> Reading {
        Reading { samples: self.samples - earlier.samples, spent: self.spent - earlier.spent }
    }

    /// How much slower than [`NOMINAL_NS`] the host ran these samples: 1.0
    /// on the defining box uncontended. `None` without a sample.
    pub fn slowness(self) -> Option<f64> {
        (self.samples > 0).then(|| self.spent.as_nanos() as f64 / self.samples as f64 / NOMINAL_NS)
    }
}

/// Runs the reference kernel on demand and on heartbeat pulses, and keeps
/// the running cost. One per process: the kernel's tables stay warm from
/// run to run, so every sample is the same work on the same state size.
///
/// The kernel's memory is kept off the allocation ledger
/// ([`alloc::uncounted`]): `allocs_per_sim_s` and `peak_heap_mib` describe
/// the simulator alone.
pub struct Probe {
    kernel: Kernel,
    ticks: u64,
    total: Reading,
}

/// The process's probe, shared with the heartbeat sinks of its runs.
pub type SharedProbe = Arc<Mutex<Probe>>;

impl Probe {
    pub fn shared() -> SharedProbe {
        Arc::new(Mutex::new(Probe::new()))
    }

    pub fn new() -> Self {
        let kernel = alloc::uncounted(|| {
            let mut kernel = Kernel::new();
            // Fill the route tables to their steady size before anything counts.
            for _ in 0..WARMUP_SAMPLES {
                kernel.run();
            }
            kernel
        });
        Probe { kernel, ticks: 0, total: Reading::default() }
    }

    /// One heartbeat pulse; every [`TICKS_PER_SAMPLE`]th takes a sample.
    pub fn tick(&mut self) {
        self.ticks += 1;
        if self.ticks.is_multiple_of(TICKS_PER_SAMPLE) {
            self.sample();
        }
    }

    /// Runs the kernel once, timed; returns that sample alone.
    pub fn sample(&mut self) -> Reading {
        let started = Instant::now();
        black_box(alloc::uncounted(|| self.kernel.run()));
        let sample = Reading { samples: 1, spent: started.elapsed() };
        self.total.samples += sample.samples;
        self.total.spent += sample.spent;
        sample
    }

    pub fn reading(&self) -> Reading {
        self.total
    }
}

/// Samples taken on each side of a piece of work by [`around`].
const AROUND_SAMPLES: usize = 4;

/// Runs `work` between two rounds of reference samples; returns its result
/// and the host's slowness around it. For work that takes well under a
/// second, where nothing pulses a heartbeat.
pub fn around<T>(probe: &SharedProbe, work: impl FnOnce() -> T) -> (T, f64) {
    let sample_round = || {
        let mut probe = probe.lock().expect("probe");
        for _ in 0..AROUND_SAMPLES {
            probe.sample();
        }
    };
    let before = probe.lock().expect("probe").reading();
    sample_round();
    let out = work();
    sample_round();
    let reading = probe.lock().expect("probe").reading().since(before);
    (out, reading.slowness().expect("two rounds of samples"))
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Memory that never went onto the ledger must not come off it.
        alloc::uncounted(|| self.kernel = Kernel::empty());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_the_same_work_every_time() {
        // Two kernels walk the same trajectory: equal checksums sample by
        // sample, so a sample's duration varies only with the host.
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        for _ in 0..3 {
            assert_eq!(a.run().to_bits(), b.run().to_bits());
        }
        assert_eq!(a.seq, 300 + 3 * STEPS as u64);
        assert_eq!(a.events.len(), 300);
    }

    #[test]
    fn a_probe_samples_every_sixteenth_tick_and_keeps_the_cost() {
        let ledger = alloc::snapshot();
        let mut p = Probe::new();
        let before = p.reading();
        assert_eq!(before, Reading::default(), "warming the kernel is not a sample");
        assert_eq!(before.slowness(), None);
        for _ in 0..TICKS_PER_SAMPLE * 3 + 5 {
            p.tick();
        }
        p.sample();
        let cost = p.reading().since(before);
        assert_eq!(cost.samples, 4);
        assert!(cost.spent > Duration::ZERO);
        let slowness = cost.slowness().expect("four samples");
        assert!(slowness > 0.05 && slowness < 50.0, "{slowness}");
        assert_eq!(p.reading().since(p.reading()), Reading::default());
        drop(p);
        assert_eq!(alloc::snapshot(), ledger, "the kernel's memory stays off the ledger");
    }
}
