//! The three mapping tables of an ADC proxy (§III.3 of the paper), the
//! store they share, and the bounded LRU cache of the baselines, which
//! runs on the same store.

mod bounded;
mod mapping;
mod ordered;
mod store;

pub use bounded::BoundedLru;
pub use mapping::{MappingTables, TableHit, UpdateOutcome};
pub use ordered::OrderedTable;
pub use store::{OrderedView, SingleView};
