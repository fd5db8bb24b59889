//! End-to-end benchmark of the served planar index.
//!
//! Each workload builds the engine from seeded inputs, serves it with
//! `planar_serve::Server` over loopback, gates on answer correctness, then
//! drives it with closed-loop readers (and, in `mixed_rw`, an open-loop
//! writer) for a fixed window. An untraced run reports end-to-end metrics;
//! a traced run reports per-layer metrics, measured from outside each layer
//! by timing calls to its public functions. See `README.md`.

mod gate;
mod host;
mod replay;
mod report;
mod run;
mod trace;
mod workload;
mod writer;

pub use host::{allowed_cpus, pin_to};
pub use report::{Report, END_TO_END, PER_LAYER};
pub use run::{run, Options};
pub use workload::Workload;
