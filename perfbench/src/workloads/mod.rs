//! The four workloads. Each file says why it is in the benchmark and which
//! layer it should stress or bypass.

pub mod join_agg_spill;
pub mod kmeans;
pub mod lda;
pub mod tpch_cps;
