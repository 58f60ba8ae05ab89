//! Resilience primitives for the scanning stack.
//!
//! Two independent facilities share this crate because every container
//! layer needs both and neither may depend on the scanning stack itself:
//!
//! - [`Budget`]: a cheap cooperative cancellation token — a fuel counter
//!   plus a wall-clock deadline — threaded through the hot loops of the
//!   ZIP, OLE and MS-OVBA parsers alongside their resource limits. A
//!   pathological-but-acyclic document (one that respects every size cap
//!   yet forces superlinear work) trips the budget instead of stalling a
//!   worker. Breaches surface as [`BudgetExceeded`], which each parser
//!   wraps in its own typed `DeadlineExceeded` error variant.
//!
//! - [`faultpoint!`]: deterministic fault injection in the style of the
//!   classic failpoints pattern. Sites are named no-ops in production
//!   builds; with the `faultpoints` feature enabled they consult a global
//!   registry (configured programmatically or via the
//!   `VBADET_FAULTPOINTS` environment variable) and can panic, stall,
//!   or make the enclosing function return early — which is how the
//!   integration suite proves the panic-containment, timeout and
//!   crash-resume paths without real hostile hardware.
//!
//! # Budget example
//!
//! ```
//! use vbadet_faultpoint::{Budget, BudgetExceeded};
//!
//! let budget = Budget::with_fuel(10);
//! for _ in 0..10 {
//!     budget.charge(1).unwrap();
//! }
//! assert_eq!(budget.charge(1), Err(BudgetExceeded::Fuel));
//! // Once tripped, a budget stays tripped (every later layer fails fast).
//! assert_eq!(budget.charge(0), Err(BudgetExceeded::Fuel));
//!
//! let unlimited = Budget::unlimited();
//! assert!(unlimited.charge(u64::MAX).is_ok());
//! ```

mod budget;
mod fault;

pub use budget::{Budget, BudgetExceeded};
pub use fault::fire;
#[cfg(feature = "faultpoints")]
pub use fault::{clear, configure, hit_count, remove};
