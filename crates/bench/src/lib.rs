//! Shared helpers for the benchmark harnesses live in the bench
//! files themselves; this library target exists so the crate participates
//! in `cargo build --workspace`.
