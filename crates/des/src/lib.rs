//! # cgsim-des — discrete-event simulation engine
//!
//! This crate is the simulation substrate of CGSim-RS. The published CGSim is
//! built on top of SimGrid's validated discrete-event core; since no SimGrid
//! binding is available here, this crate re-implements the pieces of that core
//! that CGSim actually relies on:
//!
//! * a [`SimTime`] virtual clock and a deterministic [`EventQueue`],
//! * an [`Engine`] that drives an [`EventHandler`] state machine,
//! * a SimGrid-style *fluid* resource-sharing model ([`fluid::FluidModel`])
//!   with progressive-filling max-min fairness, used for network transfers
//!   (and optionally time-shared CPUs),
//! * a deterministic random number generator ([`rng::Rng`]) with the
//!   distributions needed by the synthetic PanDA workload generator,
//! * statistics helpers ([`stats`]) used by calibration and the benchmark
//!   harness (geometric means, relative mean absolute error, scaling-law
//!   fits, percentiles).
//!
//! The design goal is the same as SimGrid's: a simulation is a single-threaded
//! loop over a time-ordered event queue, with resource sharing recomputed only
//! when the set of concurrent activities changes. That keeps multi-site
//! simulations with tens of thousands of jobs comfortably within a laptop
//! budget, which is the scalability claim of the paper (Fig. 4).
//!
//! ## Quick example
//!
//! ```
//! use cgsim_des::{Engine, EventHandler, Context, SimTime};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! struct Counter { pings: u32 }
//!
//! impl EventHandler<Ev> for Counter {
//!     fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
//!         match event {
//!             Ev::Ping(n) if n < 3 => {
//!                 self.pings += 1;
//!                 ctx.schedule_in(SimTime::from_secs(1.0), Ev::Ping(n + 1));
//!             }
//!             Ev::Ping(_) => {}
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Ping(0));
//! let mut counter = Counter { pings: 0 };
//! let report = engine.run(&mut counter);
//! assert_eq!(counter.pings, 3);
//! assert_eq!(report.events_processed, 4);
//! assert_eq!(engine.now(), SimTime::from_secs(3.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod event;
pub mod fluid;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Context, Engine, EventHandler, RunReport, StopReason};
pub use event::{EventKey, EventQueue, ScheduledEvent};
pub use fluid::{ActivityId, ActivityMap, FluidModel, ResourceId};
pub use rng::Rng;
pub use time::SimTime;
