//! # querygraph-graph
//!
//! Compact typed-multigraph storage plus the structural algorithms the
//! paper's analysis (§3) is built on:
//!
//! * [`TypedGraph`] — an immutable CSR (compressed sparse row) graph whose
//!   edges carry an [`EdgeType`] (`Link`, `Belongs`, `Inside`,
//!   `Redirect`), built through [`GraphBuilder`]. Directed storage with an
//!   undirected *cycle view* that excludes `Redirect` edges, since
//!   redirects can never close a cycle (paper §4, Fig. 1).
//! * [`components`] — connected components and largest-component
//!   extraction (Table 3 of the paper).
//! * [`triangles`] — triangle participation ratio, the TPR ≈ 0.3
//!   observation of §3.
//! * [`stats`] — link reciprocity, the 11.47 % length-2 cycle share
//!   of §3.
//! * [`cycles`] — enumeration of simple cycles of bounded length (≤ 5 in
//!   the paper), the central primitive of the whole analysis.
//! * [`subgraph`] — induced subgraphs with node mappings (query-graph
//!   assembly, §2.3), and [`subgraph::induce_reach`], the part of a
//!   node set within a hop count of the query nodes.
//! * [`traversal`] — multi-source BFS distances and the depth-bounded
//!   [`traversal::ball`] the cycle expander cuts its neighbourhood with
//!   (§4's real-time challenge); the cycle search then runs only on the
//!   part of the kept ball that `induce_reach` finds within ⌊max_len/2⌋
//!   hops of the query nodes.
//!
//! All algorithms operate on dense `u32` node ids; the Wikipedia layer
//! (`querygraph-wiki`) maps articles and categories onto them.
//!
//! ```
//! use querygraph_graph::{EdgeType, GraphBuilder, cycles::CycleFinder};
//!
//! // venice -- cannaregio with reciprocal links: a length-2 cycle.
//! let mut b = GraphBuilder::new(2);
//! b.add_edge(0, 1, EdgeType::Link);
//! b.add_edge(1, 0, EdgeType::Link);
//! let g = b.build();
//! let cycles = CycleFinder::new(&g).max_len(5).find_all();
//! assert_eq!(cycles.len(), 1);
//! assert_eq!(cycles[0].nodes.len(), 2);
//! ```

#![forbid(unsafe_code)]

mod builder;
pub mod components;
mod csr;
pub mod cycles;
mod edge;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod triangles;
mod unionfind;

pub use builder::GraphBuilder;
pub use csr::TypedGraph;
pub use edge::EdgeType;
