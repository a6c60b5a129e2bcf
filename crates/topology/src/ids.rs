//! Typed identifiers for NUMA nodes and CPU cores.
//!
//! Both identifiers are thin newtypes over `usize` so they can index into
//! per-node / per-core vectors without arithmetic noise, while still keeping
//! "node 3" and "core 3" from being confused for one another at compile time.

use coop_telemetry::json::{self, FromJson, ToJson, Value};
use std::fmt;

/// Identifier of a NUMA node within a [`Machine`](crate::Machine).
///
/// Node ids are dense: a machine with `n` nodes uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a CPU core within a [`Machine`](crate::Machine).
///
/// Core ids are global and dense across the whole machine, assigned node by
/// node in node-id order — the same convention Linux uses on socket-ordered
/// systems. Core 0 is the first core of node 0; on a 4x8 machine, core 8 is
/// the first core of node 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

/// Both ids are written as their bare index.
macro_rules! id_json {
    ($($id:ident),*) => {$(
        impl ToJson for $id {
            fn to_value(&self) -> Value {
                self.0.to_value()
            }
        }
        impl FromJson for $id {
            fn from_value(v: &Value) -> json::Result<Self> {
                usize::from_value(v).map($id)
            }
        }
    )*};
}
id_json!(NodeId, CoreId);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

impl From<usize> for CoreId {
    fn from(v: usize) -> Self {
        CoreId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_order() {
        let a = NodeId(1);
        let b = NodeId(2);
        assert!(a < b);
        assert_eq!(a.0, 1);
        assert_eq!(NodeId::from(7), NodeId(7));
    }

    #[test]
    fn core_id_roundtrip_and_order() {
        let a = CoreId(10);
        let b = CoreId(11);
        assert!(a < b);
        assert_eq!(b.0, 11);
        assert_eq!(CoreId::from(3), CoreId(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(CoreId(12).to_string(), "core12");
        assert_eq!(format!("{:?}", NodeId(0)), "node0");
        assert_eq!(format!("{:?}", CoreId(0)), "core0");
    }

    #[test]
    fn ids_hash_distinctly() {
        use std::collections::HashSet;
        let nodes: HashSet<NodeId> = (0..16).map(NodeId).collect();
        assert_eq!(nodes.len(), 16);
        let cores: HashSet<CoreId> = (0..64).map(CoreId).collect();
        assert_eq!(cores.len(), 64);
    }

    #[test]
    fn json_roundtrip() {
        let n = NodeId(5);
        let s = n.to_value().write();
        assert_eq!(s, "5");
        let back = NodeId::from_value(&json::parse(&s).unwrap()).unwrap();
        assert_eq!(back, n);
        assert!(CoreId::from_value(&json::parse("-1").unwrap()).is_err());
    }
}
