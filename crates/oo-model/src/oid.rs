//! The federated object-identifier scheme of §3.
//!
//! Every component database is installed at some FSM-agent and registered in
//! the FSM; a tuple of a transformed relation is identified as
//!
//! ```text
//! <FSM-agent name>.<database system name>.<database name>.<relation name>.<integer>
//! ```
//!
//! e.g. `FSM-agent1.informix.PatientDB.patient-records.5`. Objects created
//! natively in an OO component (or virtually in the integrated schema) use
//! the [`Oid::Local`] form instead.

use crate::error::ModelError;
use std::fmt;
use std::str::FromStr;

/// An object identifier, either federated (tuple provenance per §3) or local.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Oid {
    /// Federated OID: agent, DBMS, database, relation, tuple number.
    Federated {
        agent: String,
        dbms: String,
        database: String,
        relation: String,
        number: u64,
    },
    /// Local OID for natively object-oriented components: class + counter.
    Local { class: String, number: u64 },
}

impl Oid {
    /// Construct a federated OID.
    pub fn federated(
        agent: impl Into<String>,
        dbms: impl Into<String>,
        database: impl Into<String>,
        relation: impl Into<String>,
        number: u64,
    ) -> Self {
        Oid::Federated {
            agent: agent.into(),
            dbms: dbms.into(),
            database: database.into(),
            relation: relation.into(),
            number,
        }
    }

    /// Construct a local OID.
    pub fn local(class: impl Into<String>, number: u64) -> Self {
        Oid::Local {
            class: class.into(),
            number,
        }
    }

    /// The tuple number (federated) or per-class counter (local).
    pub fn number(&self) -> u64 {
        match self {
            Oid::Federated { number, .. } | Oid::Local { number, .. } => *number,
        }
    }

    /// The attribute-value prefix of §3:
    /// `<agent>.<dbms>.<db>.<relation>.<attribute>` for a federated OID.
    pub fn attribute_prefix(&self, attribute: &str) -> String {
        match self {
            Oid::Federated {
                agent,
                dbms,
                database,
                relation,
                ..
            } => format!("{agent}.{dbms}.{database}.{relation}.{attribute}"),
            Oid::Local { class, .. } => format!("{class}.{attribute}"),
        }
    }

    /// True when two OIDs refer to the same component relation/class.
    pub fn same_source(&self, other: &Oid) -> bool {
        match (self, other) {
            (
                Oid::Federated {
                    agent: a1,
                    dbms: s1,
                    database: d1,
                    relation: r1,
                    ..
                },
                Oid::Federated {
                    agent: a2,
                    dbms: s2,
                    database: d2,
                    relation: r2,
                    ..
                },
            ) => a1 == a2 && s1 == s2 && d1 == d2 && r1 == r2,
            (Oid::Local { class: c1, .. }, Oid::Local { class: c2, .. }) => c1 == c2,
            _ => false,
        }
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Oid::Federated {
                agent,
                dbms,
                database,
                relation,
                number,
            } => write!(f, "{agent}.{dbms}.{database}.{relation}.{number}"),
            Oid::Local { class, number } => write!(f, "@{class}.{number}"),
        }
    }
}

impl FromStr for Oid {
    type Err = ModelError;

    /// Parse either `@class.N` (local) or the five-part federated form.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = || ModelError::BadOid(s.to_string());
        if let Some(rest) = s.strip_prefix('@') {
            let (class, num) = rest.rsplit_once('.').ok_or_else(bad)?;
            if class.is_empty() {
                return Err(bad());
            }
            return Ok(Oid::local(class, num.parse().map_err(|_| bad())?));
        }
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 5 || parts.iter().any(|p| p.is_empty()) {
            return Err(bad());
        }
        Ok(Oid::federated(
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            parts[4].parse().map_err(|_| bad())?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_roundtrips() {
        // The OID from §3 of the paper.
        let s = "FSM-agent1.informix.PatientDB.patient-records.5";
        let oid: Oid = s.parse().unwrap();
        assert_eq!(oid.to_string(), s);
        match &oid {
            Oid::Federated {
                agent,
                dbms,
                database,
                relation,
                number,
            } => {
                assert_eq!(agent, "FSM-agent1");
                assert_eq!(dbms, "informix");
                assert_eq!(database, "PatientDB");
                assert_eq!(relation, "patient-records");
                assert_eq!(*number, 5);
            }
            _ => panic!("expected federated OID"),
        }
    }

    #[test]
    fn attribute_prefix_matches_paper() {
        let oid = Oid::federated("FSM-agent1", "informix", "PatientDB", "patient-records", 5);
        assert_eq!(
            oid.attribute_prefix("name"),
            "FSM-agent1.informix.PatientDB.patient-records.name"
        );
    }

    #[test]
    fn local_roundtrips() {
        let oid = Oid::local("person", 42);
        assert_eq!(oid.to_string(), "@person.42");
        assert_eq!("@person.42".parse::<Oid>().unwrap(), oid);
    }

    #[test]
    fn same_source_distinguishes_relations() {
        let a = Oid::federated("a1", "ifx", "db", "r", 1);
        let b = Oid::federated("a1", "ifx", "db", "r", 2);
        let c = Oid::federated("a1", "ifx", "db", "other", 2);
        assert!(a.same_source(&b));
        assert!(!a.same_source(&c));
        assert!(!a.same_source(&Oid::local("r", 1)));
    }

    #[test]
    fn bad_oids_rejected() {
        for s in ["", "a.b.c", "a.b.c.d.e.f", "a.b.c.d.x", "@.5", "@person"] {
            assert!(s.parse::<Oid>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn ordering_is_by_fields_then_number() {
        let a = Oid::federated("a", "x", "d", "r", 1);
        let b = Oid::federated("a", "x", "d", "r", 2);
        assert!(a < b);
    }
}
