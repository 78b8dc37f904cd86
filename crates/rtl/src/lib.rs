//! Verilog-subset frontend: lexer, AST, parser, and pretty-printer.
//!
//! This crate is the substrate the paper obtained from Verilator's parser
//! plus Pyverilog's AST: a synthesizable Verilog-2005 subset covering
//! modules with ANSI ports and parameters, `wire`/`reg`/memories,
//! `assign`, `always @(posedge ...)` / `always @(*)`, if/case/for,
//! blocking and nonblocking assignments, module instantiation, `$display`,
//! and the full operator expression grammar (including concatenation,
//! replication, part selects, and SystemVerilog width casts `W'(expr)`).
//!
//! The pretty-printer emits canonical text that re-parses to the same AST,
//! which is what lets the debugging tools in `hwdbg-tools` instrument a
//! design and hand the result straight back to the elaborator.
//!
//! # Examples
//!
//! ```
//! let src = "module blink(input clk, output reg led);
//!              always @(posedge clk) led <= ~led;
//!            endmodule";
//! let file = hwdbg_rtl::parse(src)?;
//! assert_eq!(file.modules[0].name, "blink");
//! let printed = hwdbg_rtl::print(&file);
//! assert!(printed.contains("led <= ~led;"));
//! # Ok::<(), hwdbg_rtl::ParseError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod parser;
pub mod printer;
pub mod span;
pub mod token;
pub mod walk;

pub use ast::{
    BinaryOp, CaseArm, CaseKind, Dir, Edge, EventControl, Expr, Instance, Item, LValue, Module,
    NetDecl, NetKind, Param, Port, SourceFile, Stmt, UnaryOp,
};
pub use parser::{parse, parse_expr};
pub use printer::{print, print_expr, print_lvalue, print_module};
pub use span::{ParseError, Span};
pub use walk::{path_condition, path_condition_with, walk, walk_mut, Guard};
