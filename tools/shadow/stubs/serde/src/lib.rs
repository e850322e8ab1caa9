//! In-tree stand-in for `serde`: re-exports no-op derives. The workspace's
//! protocol crates only *derive* Serialize/Deserialize; nothing in them
//! calls serde at runtime, so empty expansions typecheck fine.

pub use serde_derive::{Deserialize, Serialize};

/// Stub trait so `T: Serialize` bounds (if any appear) stay writable.
pub trait Serialize {}

/// Stub trait mirroring `serde::Deserialize<'de>`.
pub trait Deserialize<'de>: Sized {}
