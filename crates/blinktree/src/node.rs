//! B-link tree nodes (§7.2.3–§7.2.5, following Sagiv's design \[12\]).
//!
//! Three node kinds:
//!
//! * **internal** nodes — the "indexing structure": separator keys and
//!   child pointers. Abstracted away by `view_I` (§7.2.4), so their writes
//!   are never logged.
//! * **leaf pointer** nodes — sorted `(key, data-node)` pairs. The leaf
//!   level is a singly linked chain via *right pointers*; the leftmost
//!   leaf (node 0) never changes, so a left-to-right traversal of the
//!   chain enumerates the whole abstract contents.
//! * **data** nodes — one `(key, data, version)` record each; the version
//!   increments on every overwrite (Boxwood shared variables carry
//!   versions, §7.2).
//!
//! Every node carries a **high key** (inclusive upper bound) and a right
//! link; an operation positioned at a node whose high key is below its
//! target "moves right" — the mechanism that makes half-finished splits
//! harmless.

use vyrd_core::Value;

/// Index of a node in the tree's arena.
pub type NodeId = usize;

/// Maximum number of entries in a leaf / separators in an internal node.
/// Small on purpose: splits (and their races) happen early.
pub const MAX_KEYS: usize = 4;

/// Contents of one tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeContent {
    /// An internal (index) node.
    Internal {
        /// Separator keys `s_0 < s_1 < ...`; child `i` covers keys
        /// `<= s_i`, the last child covers `(s_last, high]`.
        keys: Vec<i64>,
        /// Child node ids (`keys.len() + 1` of them).
        children: Vec<NodeId>,
        /// Inclusive upper bound of this node's key range.
        high: i64,
        /// Right sibling at the same level.
        right: Option<NodeId>,
    },
    /// A leaf pointer node.
    Leaf {
        /// Sorted `(key, data-node id)` pairs.
        entries: Vec<(i64, NodeId)>,
        /// Inclusive upper bound of this node's key range.
        high: i64,
        /// Right sibling leaf.
        right: Option<NodeId>,
    },
    /// A data node.
    Data {
        /// The key this record belongs to.
        key: i64,
        /// The stored datum.
        data: i64,
        /// Write count for this data node.
        version: u64,
    },
}

impl NodeContent {
    /// A fresh empty, rightmost leaf.
    pub fn empty_leaf() -> NodeContent {
        NodeContent::Leaf {
            entries: Vec::new(),
            high: i64::MAX,
            right: None,
        }
    }

    /// Encodes a leaf for the log: `[[ (key, dataId), ... ], right]`.
    ///
    /// Only leaves and data nodes are logged — `supp(view_I)` per §7.2.4.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-leaf.
    pub fn encode_leaf(&self) -> Value {
        match self {
            NodeContent::Leaf { entries, right, .. } => {
                let pairs: Value = entries
                    .iter()
                    .map(|&(k, d)| Value::pair(Value::from(k), Value::from(d as i64)))
                    .collect();
                Value::List(vec![pairs, Value::from(right.map(|r| r as i64))])
            }
            other => panic!("encode_leaf on non-leaf node {other:?}"),
        }
    }

    /// Encodes a data node for the log: `[key, data, version]`.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-data node.
    pub fn encode_data(&self) -> Value {
        match self {
            NodeContent::Data { key, data, version } => Value::List(vec![
                Value::from(*key),
                Value::from(*data),
                Value::from(*version),
            ]),
            other => panic!("encode_data on non-data node {other:?}"),
        }
    }
}

/// A decoded leaf record: sorted `(key, data-node id)` entries plus the
/// right link.
pub type LeafRecord = (Vec<(i64, NodeId)>, Option<NodeId>);

/// Decodes a logged leaf record back into `(entries, right)`.
///
/// Returns `None` on malformed records (a corrupt log).
pub fn decode_leaf(value: &Value) -> Option<LeafRecord> {
    let items = value.as_list()?;
    let [pairs, right] = items else { return None };
    let mut entries = Vec::new();
    for p in pairs.as_list()? {
        let (k, d) = p.as_pair()?;
        entries.push((k.as_int()?, usize::try_from(d.as_int()?).ok()?));
    }
    let right = match right {
        Value::Unit => None,
        other => Some(usize::try_from(other.as_int()?).ok()?),
    };
    Some((entries, right))
}

/// Decodes a logged data record back into `(key, data, version)`.
pub fn decode_data(value: &Value) -> Option<(i64, i64, u64)> {
    let items = value.as_list()?;
    let [key, data, version] = items else {
        return None;
    };
    Some((
        key.as_int()?,
        data.as_int()?,
        u64::try_from(version.as_int()?).ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip() {
        let leaf = NodeContent::Leaf {
            entries: vec![(10, 3), (20, 5)],
            high: 25,
            right: Some(7),
        };
        let (entries, right) = decode_leaf(&leaf.encode_leaf()).unwrap();
        assert_eq!(entries, vec![(10, 3), (20, 5)]);
        assert_eq!(right, Some(7));

        let rightmost = NodeContent::empty_leaf();
        let (entries, right) = decode_leaf(&rightmost.encode_leaf()).unwrap();
        assert!(entries.is_empty());
        assert_eq!(right, None);
    }

    #[test]
    fn data_round_trip() {
        let d = NodeContent::Data {
            key: 42,
            data: 99,
            version: 3,
        };
        assert_eq!(decode_data(&d.encode_data()), Some((42, 99, 3)));
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(decode_leaf(&Value::Unit).is_none());
        assert!(decode_leaf(&Value::List(vec![Value::Unit])).is_none());
        assert!(decode_data(&Value::List(vec![Value::from(1i64)])).is_none());
        assert!(decode_data(&Value::from("data")).is_none());
    }

    #[test]
    #[should_panic(expected = "encode_leaf on non-leaf")]
    fn encode_leaf_panics_on_data_node() {
        NodeContent::Data {
            key: 0,
            data: 0,
            version: 0,
        }
        .encode_leaf();
    }
}
