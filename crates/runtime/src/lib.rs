//! A message-passing runtime for partitioned LTS-Newmark.
//!
//! Each rank is an OS thread with private state vectors; the only
//! communication is the *assembly exchange* of partial force contributions on
//! interface DOFs after every masked operator application — exactly the MPI
//! pattern of SPECFEM3D (Sec. III). A force at level `k` is exchanged `2^k`
//! times per LTS cycle, which is why an unbalanced partition stalls at every
//! sub-step (the paper's Fig. 1); per-rank busy/wait accounting makes that
//! stall measurable.
//!
//! Shared interface DOFs are updated redundantly by every touching rank from
//! identical assembled forces (partials are summed in ascending rank order),
//! so every rank holds the same bits for them. The fields are:
//!
//! * bitwise equal across transports, comm/compute overlap, intra-rank
//!   thread counts and flight recorder on/off;
//! * bitwise equal to the serial stepper at one rank;
//! * otherwise within 1e-12 relative of the serial stepper. An interface
//!   DOF's force is the sum of per-rank partials, associated differently
//!   from the serial element order: on the 19,652-element trench at p = 4
//!   with two ranks, 2.03 M of 2.60 M field entries differ, by at most
//!   2.1e-13 relative. (On the 1-D chain each interface DOF has one element
//!   per rank, so the sums coincide and runs stay bitwise equal.)

#![forbid(unsafe_code)]

pub mod distributed;
pub mod error;
pub mod exchange;
pub mod local;
pub mod monitor;
pub mod postmortem;
#[cfg(unix)]
pub mod process;
pub mod stats;
pub mod transport;

pub use distributed::{
    flight_capacity_from_env, run_distributed, run_distributed_endpoints,
    run_distributed_endpoints_recorded, run_distributed_with_sources, run_rank_endpoint,
    run_rank_endpoint_recorded, DistributedConfig, RankRun,
};
pub use error::RuntimeError;
pub use local::{
    run_distributed_local_acoustic, run_distributed_local_acoustic_flight,
    run_distributed_local_acoustic_observed, run_distributed_local_elastic,
    run_distributed_local_elastic_flight, run_distributed_local_elastic_observed,
};
pub use monitor::{eq21_lambda, MonitorConfig, StallMonitor, StallWarning};
pub use postmortem::CrashReport;
pub use stats::{
    ascii_timeline, chrome_trace, lambda_from_stats, profile_json, LevelStats, RankStats,
    TimelineEvent,
};
pub use transport::faulty::FaultPlan;
pub use transport::{Transport, TransportError, TransportKind};
