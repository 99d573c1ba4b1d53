//! The three mapping tables of an ADC proxy (§III.3 of the paper), the
//! store they share, and the LRU primitive and bounded LRU cache of the
//! baselines.

mod bounded;
mod lru;
mod mapping;
mod ordered;
mod store;

pub use bounded::BoundedLru;
pub use lru::{Iter as LruIter, LruList};
pub use mapping::{MappingTables, TableHit, UpdateOutcome};
pub use ordered::OrderedTable;
pub use store::{OrderedView, SingleView};
