//! Facade crate for the timewheel reproduction workspace.
pub use timewheel as core;
pub use tw_clock as clock;
pub use tw_proto as proto;
pub use tw_runtime as runtime;
pub use tw_sim as sim;
