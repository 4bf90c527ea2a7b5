//! NetSparse switch hardware models (paper §6.2).
//!
//! The paper augments Tofino-like ToR switches with a layer of **middle
//! pipes** between ingress and egress (plus a second crossbar); each middle
//! pipe carries a deconcatenator, a **Property Cache**, and a concatenator.
//! Read PRs that hit in the cache turn into response PRs on the spot;
//! response PRs passing through deposit their properties for later reuse by
//! the whole rack.
//!
//! - [`cache`] — the segmented, set-associative, LRU Property Cache
//!   (Figure 9): 16 B segments compose configurable 16–512 B lines so the
//!   full capacity is usable at any property size.
//! - [`pipes`] — the middle-pipe array: per-pipe cache banks with the
//!   deterministic home-keyed bank selection that stands in for the
//!   paper's ingress/egress-port matching argument (§6.2.1), plus the
//!   Table 5 switch configuration.
//! - [`reduce`] — the in-network reduction extension's partial-sum table:
//!   edge switches merge `Partial` contribution PRs per output row before
//!   forwarding them toward the row's owner.
//!
//! Concatenators inside switches reuse `netsparse_snic::ConcatPoint`,
//! dedicated or virtualized like the NICs' (the mechanism is identical;
//! only the delay budget differs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod pipes;
pub mod reduce;

pub use cache::{PropertyCache, PropertyCacheConfig, ReplacementPolicy};
pub use pipes::{MiddlePipes, SwitchConfig};
pub use reduce::{ReduceStats, ReduceTable};
