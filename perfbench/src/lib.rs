//! The repository's gated benchmark: four simulator workloads, run from
//! a seed, with a check that the simulated output did not change, and a
//! separate traced run that breaks host time down by layer.

pub mod layers;
pub mod workloads;
