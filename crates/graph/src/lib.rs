//! Precedence-graph substrate for multiprocessor scheduling under uncertainty.
//!
//! The SUU problem (Lin & Rajaraman, SPAA 2007) is parameterised by a directed
//! acyclic dependency graph `C` over the jobs. The approximation guarantees of
//! the paper are stated for successively richer classes of `C`:
//!
//! * the empty graph (independent jobs, §3),
//! * disjoint chains (§4.1),
//! * in-trees / out-trees and general directed forests (§4.2).
//!
//! This crate provides the graph machinery those algorithms need:
//!
//! * [`dag::Dag`] — a validated DAG with topological orderings, reachability,
//!   ancestor/descendant queries ([`dag`], [`topo`], [`transitive`]).
//! * [`chains::ChainSet`] — recognition and extraction of disjoint-chain
//!   structure ([`chains`]).
//! * [`forest`] — classification of a DAG as an out-forest, in-forest, or a
//!   general directed forest (underlying undirected graph acyclic).
//! * [`decompose::ChainDecomposition`] — the chain decomposition of
//!   Lemma 4.6 (after Kumar et al.): every directed forest on `n` vertices is
//!   partitioned into at most `2(⌈log₂ n⌉ + 1)` blocks, each of which induces
//!   vertex-disjoint directed chains, with every ancestor of a vertex placed
//!   in an earlier block or earlier on the same chain.
//! * [`width`](mod@width) — the width (maximum antichain) of a DAG via Dilworth's theorem
//!   and minimum path cover, the parameter in which Malewicz characterised the
//!   complexity of SUU.

pub mod chains;
pub mod dag;
pub mod decompose;
pub mod forest;
pub mod topo;
pub mod transitive;
pub mod width;

pub use chains::ChainSet;
pub use dag::{Dag, DagError, NodeId};
pub use decompose::{ChainDecomposition, DecompositionError};
pub use forest::ForestKind;
pub use width::width;
