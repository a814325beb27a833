//! Wall-clock timing.

use std::time::Instant;

use crate::metrics::Counter;

/// A started wall clock. Thin wrapper over [`Instant`] with the
/// conversions the metric layers need.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Elapsed whole nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Adds the elapsed nanoseconds to a counter (the accumulate-then-read
    /// pattern used for phase timings shared across worker threads).
    pub fn record_nanos(&self, counter: &Counter) {
        counter.add(self.elapsed_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_something() {
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(w.elapsed_secs() >= 0.002);
        assert!(w.elapsed_nanos() >= 2_000_000);
    }

    #[test]
    fn stopwatch_accumulates_into_counter() {
        let c = Counter::new();
        let w = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        w.record_nanos(&c);
        w.record_nanos(&c);
        assert!(c.get() >= 2_000_000);
    }
}
