//! # fedoo-federation
//!
//! The three-layer federated system of §3:
//!
//! * **FSM-client** ([`client`]) — the application layer: a query API over
//!   the global schema;
//! * **FSM** ([`fsm`]) — the Federated System Manager: agent registration,
//!   assertion management, and global-schema construction by the
//!   accumulation (Fig. 2(a)) or balanced (Fig. 2(b)) strategy;
//! * **FSM-agents** ([`agent`]) — local system management: each agent hosts
//!   a component database (relational, transformed on export per §3, or
//!   natively object-oriented) and answers local extent requests.
//!
//! [`mapping`] implements the data mappings `F^A_{DBᵢ,B}` (default, fuzzy
//! triple sets, functional) together with the root-meta-class method
//! registry, and [`query`] materialises the integrated schema's virtual
//! state for rule evaluation — including the Appendix B federated
//! evaluation over live agents.

pub mod agent;
pub mod audit;
pub mod chaos;
pub mod client;
pub mod connector;
pub mod fsm;
pub mod generation;
pub mod lint;
pub mod mapping;
pub mod policy;
pub mod query;

pub use agent::{Agent, ComponentSource};
pub use audit::{audit, audit_assertion, Finding, Severity};
pub use client::FsmClient;
pub use connector::{
    ComponentConnector, ComponentSnapshot, ConnectorError, FaultKind, FaultPlan, FaultyConnector,
    InProcessConnector, VirtualClock,
};
pub use fsm::{Algorithm, Fsm, GlobalSchema, IntegrationStrategy};
pub use generation::{Generation, GenerationStore};
pub use lint::lint_federation;
pub use mapping::{DataMapping, MetaRegistry, ObjectPairing};
pub use policy::{
    AccessStats, CircuitBreaker, CircuitState, ComponentHealth, GuardedConnector, RetryPolicy,
};
pub use query::{AgentProvider, CoupledClasses, FactMaterializer, FederationDb};

use std::fmt;

/// Federation-level errors.
#[derive(Debug)]
pub enum FedError {
    Transform(transform::TransformError),
    Model(oo_model::ModelError),
    Integration(fedoo_core::IntegrationError),
    Assertion(String),
    Eval(String),
    /// A component connector failed past its retry/timeout policy.
    Unavailable(connector::ConnectorError),
    /// Registration / lookup problems.
    Unknown(String),
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::Transform(e) => write!(f, "{e}"),
            FedError::Model(e) => write!(f, "{e}"),
            FedError::Integration(e) => write!(f, "{e}"),
            FedError::Assertion(e) => write!(f, "{e}"),
            FedError::Eval(e) => write!(f, "{e}"),
            FedError::Unavailable(e) => write!(f, "{e}"),
            FedError::Unknown(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FedError {}

impl From<transform::TransformError> for FedError {
    fn from(e: transform::TransformError) -> Self {
        FedError::Transform(e)
    }
}

impl From<oo_model::ModelError> for FedError {
    fn from(e: oo_model::ModelError) -> Self {
        FedError::Model(e)
    }
}

impl From<fedoo_core::IntegrationError> for FedError {
    fn from(e: fedoo_core::IntegrationError) -> Self {
        FedError::Integration(e)
    }
}

impl From<connector::ConnectorError> for FedError {
    fn from(e: connector::ConnectorError) -> Self {
        FedError::Unavailable(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FedError>;
