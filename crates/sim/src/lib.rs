//! # rfd-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate the route-flap-damping reproduction runs
//! on: a small, deterministic discrete-event simulation (DES) kernel in
//! the spirit of SSFNet's core, which the original paper used.
//!
//! It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond simulated time;
//! * [`ShardEngine`] — the event queue and clock, popping in canonical
//!   `(time, key)` order (see [`event_key`]) from a hierarchical
//!   [`TimerWheel`] (a plain binary heap, [`HeapScheduler`], survives
//!   as the wheel's test oracle);
//! * [`EpochBarrier`] — plans the lock-step windows that drive one or
//!   many shard engines, and enforces the horizon and event budget;
//! * [`DetRng`] — seeded, splittable random streams so every run is
//!   reproducible and structurally independent.
//!
//! # Examples
//!
//! A two-node "ping-pong" model on one shard:
//!
//! ```
//! use rfd_sim::{
//!     event_key, EpochBarrier, RunOutcome, ShardEngine, SimDuration, SimTime, WindowPlan,
//! };
//!
//! #[derive(Debug)]
//! enum Ball { AtA, AtB }
//!
//! let mut engine = ShardEngine::new();
//! engine.schedule(SimTime::ZERO, event_key(0, 0), Ball::AtA);
//! let mut barrier =
//!     EpochBarrier::new(SimDuration::from_millis(1), SimTime::from_secs(60), u64::MAX);
//! let mut volleys = 0;
//! let outcome = loop {
//!     match barrier.plan(engine.next_time(), engine.processed()) {
//!         WindowPlan::Run { end } => {
//!             while let Some((now, _, ball)) = engine.pop_before(end) {
//!                 volleys += 1;
//!                 if volleys < 10 {
//!                     let next = match ball { Ball::AtA => Ball::AtB, Ball::AtB => Ball::AtA };
//!                     let at = now + SimDuration::from_millis(5);
//!                     engine.schedule(at, event_key(0, volleys), next);
//!                 }
//!             }
//!         }
//!         WindowPlan::Quiescent => break RunOutcome::Quiescent,
//!         WindowPlan::HorizonReached => break RunOutcome::HorizonReached,
//!         WindowPlan::BudgetExhausted => break RunOutcome::BudgetExhausted,
//!     }
//! };
//! assert_eq!(outcome, RunOutcome::Quiescent);
//! assert_eq!(volleys, 10);
//! assert_eq!(engine.now(), SimTime::from_micros(45_000));
//! ```
//!
//! (See each module for focused examples.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod rng;
mod scheduler;
mod shard;
mod time;
mod wheel;

pub use rng::DetRng;
pub use scheduler::HeapScheduler;
pub use shard::{event_key, EpochBarrier, RunOutcome, ShardEngine, WindowPlan, INJECTOR_SRC};
pub use time::{SimDuration, SimTime, MICROS_PER_SEC};
pub use wheel::TimerWheel;
