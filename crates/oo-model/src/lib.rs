//! # fedoo-oo-model
//!
//! The deductive object model of Chen, *Integrating Heterogeneous OO
//! Schemas* (§2): schemas are sets of classes whose types combine primitive
//! attributes with **aggregation functions** (inter-class references carrying
//! cardinality constraints), instances are **complex O-terms**, and classes
//! are organised into an is-a hierarchy (**typing O-terms**).
//!
//! This crate is the substrate everything else builds on:
//!
//! * [`Value`] / [`Date`] — the primitive value domain
//!   (`boolean, integer, real, character, string, date`) plus OIDs and sets;
//! * [`Oid`] — the federated object-identifier scheme of §3
//!   (`<agent>.<dbms>.<db>.<relation>.<n>`);
//! * [`Cardinality`] — aggregation-function cardinality constraints and the
//!   constraint lattice of Fig. 13 with its `lcs` (least-common-super-node)
//!   relaxation;
//! * [`Class`], [`ClassType`], [`Schema`] — class definitions and schema
//!   graphs (is-a links + aggregation links) with validation;
//! * [`Path`] — paths `C•a₁•a₂•…•b` per Definition 4.1, in both the
//!   value form and the quoted *name* form;
//! * [`ClassIds`] — a schema's classes by dense id in name order, with
//!   is-a parent and child rows (shared by the linter and the integrator);
//! * [`Object`], [`InstanceStore`] — complex O-term instances and an
//!   inheritance-aware in-memory extent store (the stand-in for the Ontos
//!   platform the paper deploys on).

pub mod builder;
pub mod cardinality;
pub mod class;
pub mod datetime;
pub mod error;
pub mod ids;
pub mod object;
pub mod oid;
pub mod parse;
pub mod path;
pub mod schema;
pub mod store;
pub mod value;

pub use builder::SchemaBuilder;
pub use cardinality::{Cardinality, Side};
pub use class::{AggDef, AttrDef, AttrType, Class, ClassName, ClassType};
pub use datetime::Date;
pub use error::ModelError;
pub use ids::{ClassId, ClassIds, IdHash, IdHasher, Rows};
pub use object::Object;
pub use oid::Oid;
pub use parse::{parse_schema, parse_schema_lenient};
pub use path::Path;
pub use schema::{Schema, SchemaName};
pub use store::{merge_walk, InstanceStore, Partition, StoreDiff};
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
