//! The step log — the "Data Evolution Status" panel of the CODS demo
//! (Section 3). Every evolution, data-level operator or query-level
//! baseline, and every planned script reports its named steps
//! ("distinction", "bitmap filtering", …) here, with timings and work
//! counters.

use std::time::{Duration, Instant};

/// One recorded step.
#[derive(Clone, Debug)]
pub struct Step {
    /// Step name (e.g. `"distinction"`).
    pub name: String,
    /// Wall time since the previous step ended.
    pub elapsed: Duration,
    /// Optional work counter (rows scanned, positions produced, …).
    pub items: Option<u64>,
}

/// The timed step list of one execution. Each step is timed from the end of
/// the previous one (the first from [`StepLog::new`]), so the steps tile
/// `total` exactly.
#[derive(Clone, Debug)]
pub struct StepLog {
    /// Steps in order.
    pub steps: Vec<Step>,
    /// The sum of the steps' times.
    pub total: Duration,
    last: Instant,
}

impl Default for StepLog {
    fn default() -> Self {
        Self::new()
    }
}

impl StepLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        StepLog {
            steps: Vec::new(),
            total: Duration::ZERO,
            last: Instant::now(),
        }
    }

    /// Records a step ending now.
    pub fn mark(&mut self, name: impl Into<String>) {
        self.push(name.into(), None);
    }

    /// Records a step ending now, with a work counter.
    pub fn mark_items(&mut self, name: impl Into<String>, items: u64) {
        self.push(name.into(), Some(items));
    }

    fn push(&mut self, name: String, items: Option<u64>) {
        let now = Instant::now();
        let elapsed = now - self.last;
        self.steps.push(Step {
            name,
            elapsed,
            items,
        });
        self.total += elapsed;
        self.last = now;
    }

    /// Restarts the clock: the time since the last step stays out of the
    /// log.
    pub fn resume(&mut self) {
        self.last = Instant::now();
    }

    /// Looks up a step by name.
    pub fn step(&self, name: &str) -> Option<&Step> {
        self.steps.iter().find(|s| s.name == name)
    }

    /// Renders the log as the demo displays it: one line per step, then the
    /// total.
    pub fn render(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut out = String::new();
        for s in &self.steps {
            let label = match s.items {
                Some(n) => format!("{} ({n} items)", s.name),
                None => s.name.clone(),
            };
            out.push_str(&format!("  {label}: {:.3} ms\n", ms(s.elapsed)));
        }
        out.push_str(&format!("  total: {:.3} ms\n", ms(self.total)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_tile_the_total_in_order() {
        let mut log = StepLog::new();
        log.mark("distinction");
        std::thread::sleep(Duration::from_millis(1));
        log.mark_items("bitmap filtering", 42);
        assert_eq!(log.steps.len(), 2);
        assert_eq!(log.steps[0].name, "distinction");
        assert_eq!(log.steps[1].items, Some(42));
        assert!(log.steps[1].elapsed >= Duration::from_millis(1));
        let logged: Duration = log.steps.iter().map(|s| s.elapsed).sum();
        assert_eq!(logged, log.total);
    }

    #[test]
    fn a_resumed_clock_leaves_the_gap_out() {
        let mut log = StepLog::new();
        log.mark("planning");
        std::thread::sleep(Duration::from_millis(5));
        log.resume();
        log.mark("wave 0");
        assert!(log.steps[1].elapsed < Duration::from_millis(5));
        assert_eq!(log.total, log.steps[0].elapsed + log.steps[1].elapsed);
    }

    #[test]
    fn render_and_lookup() {
        let mut log = StepLog::new();
        log.mark("distinction");
        log.mark_items("bitmap filtering", 7);
        let text = log.render();
        assert!(text.contains("  distinction: "), "{text}");
        assert!(text.contains("  bitmap filtering (7 items): "), "{text}");
        assert!(
            text.ends_with(" ms\n") && text.contains("  total: "),
            "{text}"
        );
        assert!(log.step("distinction").is_some());
        assert!(log.step("b").is_none());
    }
}
