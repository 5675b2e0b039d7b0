//! # ftr-core — the flexible fault-tolerant router
//!
//! The paper's router architecture (Figure 3) assembled from the other
//! crates: the **data path** (input/output buffers, connection unit) is the
//! simulator's router model; the **control unit** is a block of rule
//! interpreters (`ftr-rules`) coordinated by an event manager; the
//! **message interface** extracts header fields and delivers them as rule
//! inputs; the **information units** report link state and load.
//!
//! * [`configure`] is the "Rule Compiler": rule-language source →
//!   [`RouterConfiguration`] (compiled tables + hardware cost report).
//! * [`RuleRouter`] plugs a configuration into `ftr-sim` as a
//!   [`ftr_sim::routing::RoutingAlgorithm`], so a network can be *driven
//!   entirely by rule programs* — loading a different program changes the
//!   routing behaviour without touching the router (the paper's
//!   flexibility claim).
//! * [`registry`] names the shipped configurations (xy, west_first, nafta,
//!   route_c, route_c_nft).

pub mod cube_router;
pub mod info_unit;
pub mod registry;
pub mod report;
pub mod rule_router;

pub use cube_router::CubeRuleRouter;
pub use registry::{configuration, list_configurations};
pub use report::HardwareReport;
pub use rule_router::{MeshInterface, RuleRouter};

use ftr_rules::{
    compile, cost, CompileOptions, CompiledProgram, Machine, ProgramCost, Result, StepWeights,
};
use std::sync::Arc;

/// A compiled router configuration: the output of the paper's "rule
/// compiler" tool — configuration data for the rule interpreters plus the
/// hardware cost model used in §5.
#[derive(Clone, Debug)]
pub struct RouterConfiguration {
    /// Configuration name.
    pub name: String,
    /// Compiled program (tables + conclusion code), shared by every node
    /// machine built from this configuration.
    pub compiled: Arc<CompiledProgram>,
    /// Hardware cost report (Table 1/2 shape).
    pub cost: ProgramCost,
    /// Modeled per-rule decision latencies, installed on every node
    /// machine (set for optimized programs so `decision_steps` stays
    /// comparable to the original program's interpretation counts).
    pub step_weights: Option<Arc<StepWeights>>,
    /// True when `compiled` came out of the certified optimizer rather
    /// than straight from source.
    pub optimized: bool,
}

impl RouterConfiguration {
    /// Builds a configuration from an already-compiled program — the
    /// entry point for programs rewritten by the certified optimizer
    /// (`ftr_analyze::opt::optimize_rulebase`), whose output is a
    /// standard [`CompiledProgram`].
    pub fn from_compiled(name: &str, compiled: CompiledProgram) -> Result<Self> {
        let cost = cost::analyze(&compiled.prog, &CompileOptions::default())?;
        Ok(RouterConfiguration {
            name: name.to_string(),
            compiled: Arc::new(compiled),
            cost,
            step_weights: None,
            optimized: false,
        })
    }

    /// Installs modeled per-rule step weights and tags the configuration
    /// as optimized; routers propagate the weights into every node
    /// machine via `Machine::set_step_weights`.
    pub fn with_step_weights(mut self, weights: StepWeights) -> Self {
        self.step_weights = Some(Arc::new(weights));
        self.optimized = true;
        self
    }

    /// A node machine on the shared program, with this configuration's
    /// step weights installed.
    pub fn machine(&self) -> Machine {
        let mut machine = Machine::from_compiled(Arc::clone(&self.compiled));
        if let Some(w) = &self.step_weights {
            machine.set_step_weights(Arc::clone(w));
        }
        machine
    }
}

/// Compiles rule-language source into a router configuration.
pub fn configure(name: &str, src: &str) -> Result<RouterConfiguration> {
    let opts = CompileOptions::default();
    let prog = ftr_rules::parse(src)?;
    let compiled = compile(&prog, &opts)?;
    let cost = cost::analyze(&prog, &opts)?;
    Ok(RouterConfiguration {
        name: name.to_string(),
        compiled: Arc::new(compiled),
        cost,
        step_weights: None,
        optimized: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_builds_cost_and_tables() {
        let cfg = configure("xy", ftr_algos::rules_src::XY).unwrap();
        assert_eq!(cfg.name, "xy");
        assert_eq!(cfg.compiled.bases.len(), 1);
        assert_eq!(cfg.cost.rulebases.len(), 1);
        assert!(cfg.cost.total_table_bits() > 0);
    }

    #[test]
    fn configure_rejects_bad_source() {
        assert!(configure("bad", "ON f( END").is_err());
    }
}
