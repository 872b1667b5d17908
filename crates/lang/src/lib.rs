//! # flexnet-lang — the FlexBPF language
//!
//! Paper §3.1 envisions "a domain-specific language that mixes match/action-
//! style packet processing and eBPF-style offloads, which we will call
//! FlexBPF", whose programs "express programmable congestion control,
//! transport protocols, constrained higher-layer offloads, and packet-
//! processing pipelines", exposing "a logical and constrained form of
//! network state, organized in key/value maps", and "analyzable to certify
//! bounded execution \[and\] well-behavedness".
//!
//! This crate is that language:
//!
//! - [`lexer`] / [`parser`] / [`ast`] — the FlexBPF surface syntax.
//! - [`headers`] — the protocol/header-type registry (builtins + user
//!   declarations consumed by runtime parser reconfiguration).
//! - [`typecheck`] — name resolution and the int/bool type discipline.
//! - [`verifier`] — bounded-execution certification, register-index safety
//!   via interval analysis, and per-packet op bounds.
//! - [`bytecode`] — the packet path's one engine: install-time lowering to
//!   flat, slot-resolved instructions, run by [`bytecode::execute_compiled`]
//!   against a [`bytecode::SlotEnv`] each device model provides. The
//!   tree-walking reference interpreter it is checked against lives with
//!   the tests that use it (`tests/common/interp.rs`).
//! - [`ir`] — decomposition into placeable elements with resource demands.
//! - [`diff`] — program diffing into runtime [`diff::ReconfigOp`]s.
//! - [`patch`] — the incremental-change DSL (paper §3.2).
//! - [`compose`] — tenant datapath composition with VLAN isolation, access
//!   control, sharing, and conflict detection (paper §3.2).
//!
//! ## Quick example
//!
//! ```
//! use flexnet_lang::prelude::*;
//!
//! let src = r#"
//!     program firewall kind switch {
//!       map blocked : map<u32, u8>[1024];
//!       handler ingress(pkt) {
//!         if (map_get(blocked, ipv4.src) == 1) { drop(); }
//!         forward(1);
//!       }
//!     }
//! "#;
//! let program = parse_program(src).unwrap();
//! let headers = HeaderRegistry::builtins();
//! check_program(&program, &headers).unwrap();
//! let report = verify_program(&program, &headers).unwrap();
//! assert!(report.max_ops > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod bytecode;
pub mod compose;
pub mod diff;
pub mod headers;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod patch;
pub mod token;
pub mod typecheck;
pub mod verifier;

/// Commonly used items, re-exported.
pub mod prelude {
    pub use crate::ast::{Program, ProgramKind, SourceFile};
    pub use crate::bytecode::{
        compile, execute_compiled, CompiledProgram, SlotEnv, SlotResolver, SymbolKind, VmScratch,
    };
    pub use crate::compose::{compose, TenantExtension};
    pub use crate::diff::{diff_bundles, ProgramBundle, ReconfigOp};
    pub use crate::headers::HeaderRegistry;
    pub use crate::parser::{parse_program, parse_source};
    pub use crate::patch::{apply_patch, parse_patch, Patch};
    pub use crate::typecheck::check_program;
    pub use crate::verifier::{verify_program, VerifyReport};
}
