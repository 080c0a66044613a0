//! Bounded-memory windowed metrics.
//!
//! The event-level dataset grows with every transition, which is exactly
//! right for offline analysis but wrong for long-horizon monitoring: a
//! multi-month scenario would hold millions of rows just to answer "what was
//! the finish rate around hour 400?". The [`WindowedAggregator`] keeps a
//! ring of per-window summaries instead — each window covers a fixed span of
//! simulated time and records the transition activity inside it plus the
//! cumulative site/grid counters at the moment it closed, so rates are a
//! subtraction away. Memory is bounded by the ring capacity no matter how
//! long the simulation runs; when the ring is full the *oldest* window is
//! dropped (and counted), never the newest.
//!
//! Windows close lazily: a window is sealed by the first observation at or
//! past its end, carrying the cumulative counters as of that observation.
//! Everything is driven by simulated time, so windowed output is as
//! deterministic as the event dataset itself.

use std::collections::VecDeque;

use cgsim_workload::JobState;

use crate::collector::{GridCounters, SiteCounters};
use crate::csv::render_rows;

/// Summary of one closed time window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window ordinal: the window covers `[index * width_s, (index+1) * width_s)`.
    pub index: u64,
    /// Window start, in simulated seconds.
    pub start_s: f64,
    /// Job state transitions observed inside the window.
    pub transitions: u64,
    /// Dispatch decisions (transitions to `Assigned`) inside the window.
    pub assigned: u64,
    /// Jobs finished inside the window.
    pub finished: u64,
    /// Jobs failed inside the window.
    pub failed: u64,
    /// Cumulative grid counters when the window closed.
    pub grid: GridCounters,
    /// Cumulative per-site counters when the window closed (same order as
    /// the collector's site list).
    pub sites: Vec<SiteCounters>,
}

/// A fixed-capacity ring of windowed summaries.
#[derive(Debug, Clone)]
pub struct WindowedAggregator {
    width_s: f64,
    capacity: usize,
    current: Option<WindowSnapshot>,
    closed: VecDeque<WindowSnapshot>,
    dropped: u64,
}

impl WindowedAggregator {
    /// Creates an aggregator with windows of `width_s` simulated seconds,
    /// retaining at most `capacity` closed windows (both clamped to sane
    /// minima).
    pub fn new(width_s: f64, capacity: usize) -> Self {
        WindowedAggregator {
            width_s: if width_s > 0.0 { width_s } else { 1.0 },
            capacity: capacity.max(1),
            current: None,
            closed: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Feeds one job state transition. `grid` and `sites` are the *cumulative*
    /// counters as of this observation; they seal any window the observation
    /// has moved past.
    pub fn observe(
        &mut self,
        time_s: f64,
        state: JobState,
        grid: &GridCounters,
        sites: &[SiteCounters],
    ) {
        let index = (time_s / self.width_s).floor().max(0.0) as u64;
        match &self.current {
            Some(window) if window.index == index => {}
            _ => self.roll_to(index, grid, sites),
        }
        let window = self.current.as_mut().expect("roll_to leaves a window open");
        window.transitions += 1;
        match state {
            JobState::Assigned => window.assigned += 1,
            JobState::Finished => window.finished += 1,
            JobState::Failed => window.failed += 1,
            _ => {}
        }
    }

    /// Seals the still-open window (if any) with the final cumulative
    /// counters. Call once when the simulation ends.
    pub fn finish(&mut self, grid: &GridCounters, sites: &[SiteCounters]) {
        if let Some(mut window) = self.current.take() {
            window.grid = *grid;
            window.sites = sites.to_vec();
            self.push_closed(window);
        }
    }

    /// Closed windows, oldest first (at most `capacity` of them).
    pub fn windows(&self) -> impl Iterator<Item = &WindowSnapshot> {
        self.closed.iter()
    }

    /// Number of closed windows currently retained.
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// True when no window has closed yet.
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// Windows evicted from the ring to stay within capacity. Non-zero means
    /// the retained windows are the *most recent* ones, not the full history.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Seals every window older than `index` and opens `index`. Windows with
    /// no observations at all are skipped rather than materialised, so sparse
    /// horizons do not fill the ring with empty rows.
    fn roll_to(&mut self, index: u64, grid: &GridCounters, sites: &[SiteCounters]) {
        if let Some(mut window) = self.current.take() {
            window.grid = *grid;
            window.sites = sites.to_vec();
            self.push_closed(window);
        }
        self.current = Some(WindowSnapshot {
            index,
            start_s: index as f64 * self.width_s,
            transitions: 0,
            assigned: 0,
            finished: 0,
            failed: 0,
            grid: GridCounters::default(),
            sites: Vec::new(),
        });
    }

    fn push_closed(&mut self, window: WindowSnapshot) {
        if self.closed.len() >= self.capacity {
            self.closed.pop_front();
            self.dropped += 1;
        }
        self.closed.push_back(window);
    }
}

/// Renders windows as CSV: one row per closed window, with in-window
/// activity and the cumulative finish/interruption/checkpoint counters at
/// close.
pub fn windows_csv<'a>(windows: impl IntoIterator<Item = &'a WindowSnapshot>) -> String {
    render_rows(
        0,
        "window,start_s,transitions,assigned,finished,failed,\
         cum_finished,cum_interrupted,cum_checkpoints",
        windows,
        |r, w| {
            r.push_u64(w.index);
            r.push_fmt(format_args!("{:.3}", w.start_s));
            r.push_u64(w.transitions);
            r.push_u64(w.assigned);
            r.push_u64(w.finished);
            r.push_u64(w.failed);
            r.push_u64(w.sites.iter().map(|s| s.finished).sum());
            r.push_u64(w.sites.iter().map(|s| s.interrupted).sum());
            r.push_u64(w.grid.checkpoints_written);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_at(agg: &mut WindowedAggregator, time_s: f64, state: JobState, finished: u64) {
        let sites = vec![SiteCounters {
            finished,
            ..SiteCounters::default()
        }];
        agg.observe(time_s, state, &GridCounters::default(), &sites);
    }

    #[test]
    fn observations_land_in_their_windows() {
        let mut agg = WindowedAggregator::new(100.0, 16);
        observe_at(&mut agg, 10.0, JobState::Assigned, 0);
        observe_at(&mut agg, 90.0, JobState::Finished, 1);
        observe_at(&mut agg, 150.0, JobState::Finished, 2);
        assert_eq!(agg.len(), 1, "first window sealed by the 150s observation");
        let first = agg.windows().next().unwrap();
        assert_eq!((first.index, first.transitions), (0, 2));
        assert_eq!((first.assigned, first.finished), (1, 1));
        // Sealed with the counters of the sealing observation.
        assert_eq!(first.sites[0].finished, 2);

        agg.finish(&GridCounters::default(), &[SiteCounters::default()]);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg.windows().last().unwrap().index, 1);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut agg = WindowedAggregator::new(10.0, 16);
        observe_at(&mut agg, 5.0, JobState::Running, 0);
        observe_at(&mut agg, 995.0, JobState::Running, 0);
        agg.finish(&GridCounters::default(), &[]);
        let indices: Vec<u64> = agg.windows().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 99], "97 empty windows never materialised");
    }

    #[test]
    fn ring_drops_oldest_windows() {
        let mut agg = WindowedAggregator::new(1.0, 3);
        for i in 0..10 {
            observe_at(&mut agg, i as f64 + 0.5, JobState::Running, i);
        }
        agg.finish(&GridCounters::default(), &[]);
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.dropped(), 7);
        let indices: Vec<u64> = agg.windows().map(|w| w.index).collect();
        assert_eq!(indices, vec![7, 8, 9], "most recent windows survive");
    }

    #[test]
    fn csv_has_one_row_per_window() {
        let mut agg = WindowedAggregator::new(60.0, 8);
        observe_at(&mut agg, 30.0, JobState::Finished, 1);
        observe_at(&mut agg, 70.0, JobState::Failed, 1);
        agg.finish(&GridCounters::default(), &[SiteCounters::default()]);
        let csv = windows_csv(agg.windows());
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("window,start_s,"));
        assert!(csv.contains("\n0,0.000,1,0,1,0,"));
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let agg = WindowedAggregator::new(0.0, 0);
        assert!(agg.width_s > 0.0);
        let mut agg = WindowedAggregator::new(-5.0, 0);
        observe_at(&mut agg, 0.0, JobState::Running, 0);
        observe_at(&mut agg, 100.0, JobState::Running, 0);
        agg.finish(&GridCounters::default(), &[]);
        assert_eq!(agg.len(), 1, "capacity clamps to one");
    }
}
