//! Repo automation for the timewheel workspace.
//!
//! Three jobs, all about the same property — the simulator's determinism
//! guarantee is only as strong as the discipline of the code inside it:
//!
//! * [`lint`] — a static vocabulary pass that *forbids* the
//!   nondeterminism vectors (wall clocks, ambient randomness,
//!   hash-iteration order, floats in protocol state, direct I/O) in the
//!   protocol crates;
//! * [`concurrency`] — the host-side counterpart: lock-order and
//!   blocking-call analysis plus an unsafe-surface audit over
//!   `tw-runtime`/`tw-obs`, the crates the determinism lint
//!   deliberately exempts; and
//! * `explore` (a thin driver in `main.rs`) — the *dynamic* complement:
//!   exhaustively runs every small-scope schedule through the real
//!   protocol and checks the paper's invariants at each terminal state
//!   (see `tw_sim::explore` and the `explore` bin in `timewheel`).
//!
//! Invoked via the `cargo xtask` alias (see `.cargo/config.toml`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrency;
pub mod lexer;
pub mod lint;
