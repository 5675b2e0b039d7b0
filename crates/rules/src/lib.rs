//! # ftr-rules — rule-based routing language
//!
//! Implementation of the paper's primary contribution (§4): a declarative
//! rule language for routing algorithms, the ARON compilation scheme that
//! turns rule bases into completely-filled lookup tables, a three-stage
//! hardware-model interpreter (premise processing → RBR-kernel lookup →
//! conclusion processing), an event manager, and the hardware cost model
//! (table bits, FCFB inventory, register bits) behind Tables 1 and 2.
//!
//! Pipeline: [`parser::parse`] → [`ast::Program`] → [`compile::compile`] →
//! [`interp::CompiledProgram`] driven by [`event::Machine`]. The reference
//! semantics live in [`eval`]; the compiled interpreter is differentially
//! tested against them.

pub mod ast;
pub mod compile;
pub mod cost;
pub mod env;
pub mod error;
pub mod eval;
pub mod event;
pub mod fcfb;
pub mod fuse;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod probe;
pub mod token;
pub mod value;

pub use ast::Program;
pub use compile::{compile, compile_rulebase, CompileOptions, CompileWarning, ConflictKind};
pub use cost::{ProgramCost, RegisterCost, RuleBaseCost};
pub use env::{InputMap, InputProvider, RegFile};
pub use error::{Result, RuleError};
pub use eval::{fire_reference, EventInstance, FireOutcome};
pub use event::{Machine, StepWeights};
pub use fcfb::FcfbKind;
pub use interp::{CompiledProgram, CompiledRuleBase, EmitTarget};
pub use parser::parse;
pub use probe::{InterpProbe, Stage};
pub use value::{Domain, Type, Value};
