//! chain-chaos core: certificate chain compliance analysis and client-side
//! chain construction.
//!
//! This crate implements the paper's two contributions:
//!
//! **Server-side compliance analysis** (paper §3.1/§4) — given the
//! certificate *list* a server sends in its TLS Certificate message,
//! classify:
//! - leaf placement ([`leaf`], Table 3),
//! - issuance order via the topology graph ([`topology`], [`order`],
//!   Figure 2 / Table 5),
//! - chain completeness against root stores and AIA ([`completeness`],
//!   Tables 7–8),
//! - and the aggregate verdict ([`compliance`]).
//!
//! **Client-side chain construction** (paper §3.2/§5) — a single
//! configurable path-building engine ([`builder`]) whose capability knobs
//! span the paper's nine test dimensions (Table 2), eight client profiles
//! tuned to the paper's measurements ([`clients`], Table 9), a path
//! validator ([`validate`]), and a differential-testing harness
//! ([`differential`], §5.2).

pub mod builder;
pub mod clients;
pub mod compliance;
pub mod completeness;
pub mod differential;
pub mod leaf;
pub mod order;
pub mod report;
pub mod topology;
pub mod validate;

pub use builder::{BuildContext, BuildOutcome, BuildStats, BuilderPolicy, CandidateOrigin,
    ChainEngine, ClientError, KidPriority, RetryPolicy, SearchScope, SharedBuild,
    ValidityPriority};
pub use clients::{client_profiles, ClientKind};
pub use compliance::{
    analyze_compliance, analyze_compliance_with_graph, ComplianceReport, NonCompliance,
};
pub use completeness::{Completeness, CompletenessAnalysis, CompletenessAnalyzer, IncompleteReason};
pub use differential::{DifferentialHarness, DifferentialReport, DifferentialResult, DiscrepancyCause};
pub use leaf::{classify_leaf_placement, LeafPlacement};
pub use order::{analyze_order, analyze_order_with_graph, OrderAnalysis};
pub use topology::{CacheStats, IssuanceChecker, TopologyGraph};
pub use validate::{validate_path, ValidationOptions};
