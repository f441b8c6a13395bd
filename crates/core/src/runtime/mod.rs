//! The NDPExt host-side runtime (paper §V).
//!
//! Every epoch the runtime: (1) assigns the limited per-unit hardware
//! samplers to streams via max-flow ([`maxflow`]); (2) collects the sampled
//! miss curves ([`sampler`]); (3) derives the next cache configuration —
//! sizing, placement, and replication co-optimized — via Algorithm 1
//! ([`configure`]). Baseline NUCA policies reuse the same machinery with
//! their own placement rules.

pub mod configure;
pub mod maxflow;
pub mod sampler;

pub use configure::{
    allocate_baseline, allocate_ndpext, AllocGroup, Allocation, ConfigCtx, Solver, StreamDemand,
};
pub use maxflow::{assign_samplers, FlowNetwork, SamplerAssignment};
pub use sampler::{capacity_points, MissCurve, SamplerShape, SetSampler};
