//! Physical plans: buffers, bindings, hash indexes, nodes and operator
//! evaluation (§4 of the paper).

pub mod binding;
pub mod buffer;
pub mod eval;
pub mod hash;
pub mod plan;

pub use binding::{ClassMap, PairBinding, RecordBinding, WithEventBinding};
pub use buffer::Buffer;
pub use eval::EvalCtx;
pub use hash::{HashIndex, HashKey, HashSpec, KeyPart};
pub use plan::{NegGuard, Node, NodeKind, PhysicalPlan, PlanConfig};
