//! Interactive network editing.
//!
//! The automatically constructed skeleton can be noisy; the paper (§4,
//! Figures 2(f)–(h)) therefore exposes a user-interaction step in which the
//! user can add or remove edges and merge nodes. The editor only reshapes
//! the structure; the caller refits the parameters of the edited DAG (see
//! `BCleanModel::edit_network` in `bclean-core`).

use std::fmt;

use crate::graph::{Dag, GraphError};

/// A single user edit of the network structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkEdit {
    /// Add a directed edge `from → to`.
    AddEdge {
        /// Source attribute index.
        from: usize,
        /// Target attribute index.
        to: usize,
    },
    /// Remove the directed edge `from → to`.
    RemoveEdge {
        /// Source attribute index.
        from: usize,
        /// Target attribute index.
        to: usize,
    },
    /// Merge `nodes` into the representative node `into`: edges from/to the
    /// merged nodes are redirected to `into` (duplicates collapse into one
    /// edge, as in Figure 2(h)); the merged nodes become isolated.
    MergeNodes {
        /// Nodes to merge away.
        nodes: Vec<usize>,
        /// The representative node that keeps the merged connections.
        into: usize,
    },
}

/// Errors raised while applying user edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The underlying graph operation failed.
    Graph(GraphError),
    /// A merge listed the representative among the nodes to merge away.
    MergeIntoSelf(usize),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::Graph(e) => write!(f, "{e}"),
            EditError::MergeIntoSelf(n) => write!(f, "node {n} cannot be merged into itself"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<GraphError> for EditError {
    fn from(e: GraphError) -> Self {
        EditError::Graph(e)
    }
}

/// An editing session over a network structure.
#[derive(Debug, Clone)]
pub struct NetworkEditor {
    dag: Dag,
    applied: Vec<NetworkEdit>,
}

impl NetworkEditor {
    /// Start an editing session from a structure.
    pub fn new(dag: Dag) -> NetworkEditor {
        NetworkEditor { dag, applied: Vec::new() }
    }

    /// The current (edited) structure.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The edits applied so far.
    pub fn applied_edits(&self) -> &[NetworkEdit] {
        &self.applied
    }

    /// Apply one edit.
    pub fn apply(&mut self, edit: NetworkEdit) -> Result<(), EditError> {
        match &edit {
            NetworkEdit::AddEdge { from, to } => {
                self.dag.add_edge(*from, *to)?;
            }
            NetworkEdit::RemoveEdge { from, to } => {
                self.dag.remove_edge(*from, *to)?;
            }
            NetworkEdit::MergeNodes { nodes, into } => {
                if nodes.contains(into) {
                    return Err(EditError::MergeIntoSelf(*into));
                }
                for &node in nodes {
                    let parents = self.dag.parents(node);
                    let children = self.dag.children(node);
                    for p in parents {
                        self.dag.remove_edge(p, node)?;
                        if p != *into {
                            // Duplicate edges collapse; cycles are silently skipped,
                            // mirroring the paper's "other edges will be removed".
                            let _ = self.dag.add_edge(p, *into);
                        }
                    }
                    for c in children {
                        self.dag.remove_edge(node, c)?;
                        if c != *into {
                            let _ = self.dag.add_edge(*into, c);
                        }
                    }
                }
            }
        }
        self.applied.push(edit);
        Ok(())
    }

    /// Apply several edits, stopping at the first failure.
    pub fn apply_all(&mut self, edits: impl IntoIterator<Item = NetworkEdit>) -> Result<(), EditError> {
        for e in edits {
            self.apply(e)?;
        }
        Ok(())
    }

    /// Finish the session, returning the edited structure.
    pub fn into_dag(self) -> Dag {
        self.dag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zip -> State over the attributes Zip, City, State, Code.
    fn base_dag() -> Dag {
        let mut dag = Dag::new(4);
        dag.add_edge(0, 2).unwrap();
        dag
    }

    #[test]
    fn add_and_remove_edges() {
        let mut editor = NetworkEditor::new(base_dag());
        editor.apply(NetworkEdit::AddEdge { from: 0, to: 1 }).unwrap();
        editor.apply(NetworkEdit::RemoveEdge { from: 0, to: 2 }).unwrap();
        assert!(editor.dag().has_edge(0, 1));
        assert!(!editor.dag().has_edge(0, 2));
        assert_eq!(editor.applied_edits().len(), 2);
        let dag = editor.into_dag();
        assert_eq!(dag.parents(1), vec![0]);
        assert!(dag.parents(2).is_empty());
    }

    #[test]
    fn cycle_creating_edit_is_rejected() {
        let mut editor = NetworkEditor::new(base_dag());
        let err = editor.apply(NetworkEdit::AddEdge { from: 2, to: 0 }).unwrap_err();
        assert!(matches!(err, EditError::Graph(GraphError::WouldCreateCycle { .. })));
        // State unchanged after failed edit.
        assert_eq!(editor.applied_edits().len(), 0);
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn merge_nodes_redirects_edges() {
        // City -> Code and State -> Code; merging City into State should leave
        // a single State -> Code edge and isolate City.
        let mut dag = Dag::new(4);
        dag.add_edge(1, 3).unwrap();
        dag.add_edge(2, 3).unwrap();
        dag.add_edge(0, 1).unwrap(); // Zip -> City
        let mut editor = NetworkEditor::new(dag);
        editor.apply(NetworkEdit::MergeNodes { nodes: vec![1], into: 2 }).unwrap();
        let dag = editor.dag();
        assert!(dag.has_edge(2, 3));
        assert!(!dag.has_edge(1, 3));
        assert!(!dag.has_edge(0, 1));
        assert!(dag.has_edge(0, 2)); // Zip edge redirected to State
        assert!(dag.isolated_nodes().contains(&1));
        assert_eq!(editor.into_dag().parents(3), vec![2]);
    }

    #[test]
    fn merge_into_self_rejected() {
        let mut editor = NetworkEditor::new(base_dag());
        let err = editor.apply(NetworkEdit::MergeNodes { nodes: vec![2], into: 2 }).unwrap_err();
        assert!(matches!(err, EditError::MergeIntoSelf(2)));
        assert!(err.to_string().contains("merged into itself"));
    }

    #[test]
    fn apply_all_stops_on_error() {
        let mut editor = NetworkEditor::new(base_dag());
        let result = editor.apply_all(vec![
            NetworkEdit::AddEdge { from: 0, to: 1 },
            NetworkEdit::AddEdge { from: 2, to: 0 }, // cycle
            NetworkEdit::AddEdge { from: 0, to: 3 },
        ]);
        assert!(result.is_err());
        assert_eq!(editor.applied_edits().len(), 1);
        assert!(!editor.dag().has_edge(0, 3));
    }

    #[test]
    fn editor_from_dag() {
        let mut editor = NetworkEditor::new(Dag::new(4));
        editor.apply(NetworkEdit::AddEdge { from: 0, to: 2 }).unwrap();
        assert!(editor.into_dag().has_edge(0, 2));
    }
}
