//! Helpers shared by several integration-test binaries; each binary
//! includes this directory with `mod common;`.

pub mod alloc;
