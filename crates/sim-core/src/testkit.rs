//! The case loop behind the workspace's seeded properties and
//! reference-model differentials.
//!
//! A property is a closure over a case index and that case's own
//! [`SimRng`] stream; generators are plain functions drawing from the
//! stream. There is no shrinking and there are no strategy combinators: a
//! failure names the case, and the case replays alone.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{RngFactory, SimRng};

/// Runs `body(case, rng)` for every case index in `cases`, each with the
/// stream `RngFactory::new(case).stream(name, 0)`.
///
/// # Panics
///
/// Re-raises the first failing case's panic, its message prefixed with
/// `name`, the case index and how to re-run that case alone.
pub fn cases(name: &str, cases: Range<u64>, mut body: impl FnMut(u64, &mut SimRng)) {
    for case in cases.clone() {
        let mut rng = RngFactory::new(case).stream(name, 0);
        let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(case, &mut rng))) else {
            continue;
        };
        let why = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        match why {
            Some(why) => panic!(
                "{name}: case {case} of {cases:?} failed; re-run it alone by passing \
                 `{case}..{}` as the range\n{why}",
                case + 1
            ),
            None => resume_unwind(panic),
        }
    }
}

/// Names the step a case is on. Dropped by a panic it prints the step, so a
/// property of the form "never panics" still says where it did.
pub struct Step(pub usize);

impl Drop for Step {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("  at step {}", self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_case_runs_on_its_own_replayable_stream() {
        let mut firsts = Vec::new();
        cases("testkit-streams", 0..5, |case, rng| firsts.push((case, rng.next_u64())));
        assert_eq!(firsts.len(), 5);
        cases("testkit-streams", 3..4, |case, rng| {
            assert_eq!((case, rng.next_u64()), firsts[3], "replay of one case")
        });
        let mut draws: Vec<u64> = firsts.iter().map(|&(_, draw)| draw).collect();
        draws.dedup();
        assert_eq!(draws.len(), 5, "cases share a stream");
    }

    #[test]
    fn a_failing_case_is_named_with_its_replay_recipe() {
        let mut ran = 0;
        let panic = catch_unwind(AssertUnwindSafe(|| {
            cases("testkit-planted", 0..10, |case, _| {
                ran += 1;
                assert_ne!(case, 7, "planted");
            })
        }))
        .expect_err("case 7 panics");
        let message = panic.downcast_ref::<String>().expect("formatted panic");
        assert!(message.contains("testkit-planted: case 7 of 0..10"), "{message}");
        assert!(message.contains("`7..8`") && message.contains("planted"), "{message}");
        assert_eq!(ran, 8, "stops at the first failing case");
    }
}
