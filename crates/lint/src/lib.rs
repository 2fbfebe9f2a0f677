//! `divtopk-lint` — in-repo static analysis for the divtopk workspace.
//!
//! Two halves (DESIGN.md §13):
//!
//! 1. **The invariant linter** ([`rules`], [`scan`], [`walk`]): a
//!    dependency-free lexer/line-scanner that walks every production
//!    `.rs` file and enforces the project's concurrency and determinism
//!    invariants as typed, `file:line`-addressed diagnostics — the prose
//!    soundness arguments of DESIGN.md §8–§9, machine-checked so they
//!    survive refactors.
//! 2. **The interleaving explorer** ([`sched`], [`models`]): a
//!    loom-style deterministic scheduler that shims `Mutex`, `Condvar`,
//!    and the atomics, and exhaustively enumerates bounded thread
//!    interleavings of the repo's four hand-rolled concurrency
//!    protocols, asserting each one's DESIGN.md invariant under every
//!    explored schedule. The cache's single-flight fill and the
//!    server's ticketed admission gate run as the production
//!    `divtopk_core::sync` types on the shims ([`sched::Sim`]); the
//!    pool's lost-wakeup handshake and the prefetch park/re-spawn
//!    protocol are still checked as miniatures.
//!
//! The `lint` binary runs both: `cargo run -p divtopk-lint --bin lint`
//! (diagnostics, exit 1 on any), `-- --models` (the four models under a
//! bounded schedule budget).

pub mod models;
pub mod rules;
pub mod scan;
pub mod sched;
pub mod walk;

pub use rules::{Diagnostic, lint_source};
pub use walk::lint_workspace;
