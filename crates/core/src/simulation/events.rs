//! The discrete-event alphabet of the grid simulation and its dispatch.

use cgsim_des::{Context, EventHandler};
use cgsim_obs::SpanPhase;
use cgsim_workload::JobState;

use super::job_runtime::Phase;
use super::GridModel;

/// Discrete events of the grid simulation. Indices are `u32` — the builder
/// refuses a trace or fault plan they cannot address — so an event is 8
/// bytes and a preloaded submission 16.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum GridEvent {
    /// A job (by index into the trace) reaches its submission time
    /// (preloaded into the engine's sorted lane; never on the heap).
    Submit(u32),
    /// The fluid network/CPU model predicts its next activity completion
    /// (the engine's timer slot; never on the heap).
    FluidAdvance,
    /// A dedicated-core execution segment finishes (job index). Without
    /// checkpointing the one segment is the whole execution; with it, a
    /// durable checkpoint write starts at every segment boundary.
    ExecutionDone(u32),
    /// The scheduling/pilot overhead of a picked job elapses (job index); the
    /// job then starts staging its input (queue-time model, §4.2).
    PilotStart(u32),
    /// The next fault of the attached fault plan fires (index into the
    /// plan's event list). Faults are chained — each one schedules its
    /// successor — so an exhausted workload stops fault processing by
    /// cancelling a single pending event.
    Fault(u32),
    /// A repair backoff timer for a dataset (by index) elapses; the repair
    /// planner re-examines the dataset's replication deficit. Only scheduled
    /// when re-replication is enabled.
    RepairRetry(u32),
}

impl EventHandler<GridEvent> for GridModel {
    fn handle(&mut self, ctx: &mut Context<'_, GridEvent>, event: GridEvent) {
        match event {
            GridEvent::Submit(idx) => {
                let (now, idx) = (ctx.now(), idx as usize);
                self.record(now, idx, JobState::Pending);
                self.dispatch(idx, ctx);
            }
            GridEvent::FluidAdvance => {
                let now = ctx.now();
                let completed = self.advance_fluid(now);
                self.handle_completed_activities(completed, ctx);
                self.reschedule_fluid(ctx);
            }
            GridEvent::ExecutionDone(idx) => {
                let idx = idx as usize;
                self.run_mut(idx).timer = None;
                let now = ctx.now().as_secs();
                self.trace_phase(now, idx, Phase::Execute, SpanPhase::End, None);
                self.execution_segment_done(idx, ctx);
            }
            GridEvent::PilotStart(idx) => {
                let idx = idx as usize;
                self.run_mut(idx).timer = None;
                let site = self.jobs[idx]
                    .site()
                    .expect("job waiting for its pilot has a site");
                self.start_staging(idx, site, ctx);
            }
            GridEvent::Fault(index) => {
                self.handle_fault(index as usize, ctx);
            }
            GridEvent::RepairRetry(index) => {
                self.handle_repair_retry(index as usize, ctx);
            }
        }
    }
}
