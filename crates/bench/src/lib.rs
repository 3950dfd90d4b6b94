//! The gates live in `benches/alloc_gate.rs` and
//! `tests/observer_guard.rs`; this library target exists so the crate
//! participates in `cargo build --workspace`.
