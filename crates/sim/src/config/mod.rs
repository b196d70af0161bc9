//! System configuration.
//!
//! The defaults reproduce the paper's Table 1 (baseline configuration of the
//! 32-core, 4×8-mesh system with 4 corner memory controllers). Every
//! experiment in the evaluation section is a perturbation of
//! [`SystemConfig::baseline_32`]; the 16-core system of Figure 15 is
//! [`SystemConfig::baseline_16`].
//!
//! Three modules, one flat namespace: `types` holds the values and their
//! defaults, `validate` says what they may hold ([`ConfigError`]), and
//! `grammar` is the only place text becomes a value or a value text — the
//! names of every closed set, and the `--policy`/`--topology` overrides.

mod grammar;
mod types;
mod validate;

pub use grammar::{PolicyOverride, TopologyOverride};
pub use types::*;
pub use validate::ConfigError;

#[cfg(test)]
mod tests;
