//! # dae-mem — memory-system models
//!
//! The paper abstracts the memory system to a single number, the **memory
//! differential (MD)**: the extra cycles a memory access costs over a
//! register access.  Everything interesting happens in the structures that
//! sit *between* the processor and that fixed-cost memory:
//!
//! * [`FixedLatencyMemory`] — the memory system itself (every access costs
//!   `1 + MD` cycles) with simple bandwidth accounting;
//! * [`DecoupledMemory`] — the buffer between the Address Unit and Data Unit
//!   of the access decoupled machine: the AU sends addresses, the values come
//!   back MD cycles later and are held until the DU (or the AU itself, for
//!   self loads) requests them in a single cycle.  An optional *bypass*
//!   captures temporal locality by short-circuiting requests for recently
//!   fetched addresses (the paper's future-work suggestion);
//! * [`PrefetchBuffer`] — the SWSM's fully associative prefetch buffer with
//!   optional capacity limits and LRU replacement.
//!
//! The structures are driven by the machine models in `dae-machines`;
//! all are purely bookkeeping (which data is present *when*), never holders of
//! simulated data values.

mod decoupled;
mod fixed;
mod fx;
mod lru;
mod prefetch;

pub use decoupled::{BypassConfig, DecoupledMemory, DecoupledMemoryConfig, DecoupledMemoryStats};
pub use fixed::{FixedLatencyMemory, MemoryStats};
pub use fx::{FxHashMap, FxHasher};
pub use lru::LruMap;
pub use prefetch::{PrefetchBuffer, PrefetchBufferConfig, PrefetchBufferStats};
