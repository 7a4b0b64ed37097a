//! Resources with the OSEK priority-ceiling protocol.
//!
//! Taking a resource raises the task to the resource's ceiling priority so
//! no other task that might take the same resource can preempt it; release
//! must follow LIFO order. Resource blocking is one of the two timing-fault
//! categories in the paper's functional design ("an object hangs as a result
//! of a requested resource being blocked") — the fault injectors exercise
//! exactly this path.

use crate::plan::ResourceId;
use crate::task::Priority;
use serde::{Deserialize, Serialize};

/// Static configuration of one resource. Which task holds it is kernel
/// runtime state (`OsState`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Resource {
    name: String,
    ceiling: Priority,
}

impl Resource {
    /// Declares a resource with the given ceiling priority.
    pub fn new(name: impl Into<String>, ceiling: Priority) -> Self {
        Resource {
            name: name.into(),
            ceiling,
        }
    }

    /// Resource name for traces.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ceiling priority (must be ≥ the priority of every task using it).
    pub fn ceiling(&self) -> Priority {
        self.ceiling
    }
}

easis_sim::clone_fields! {
    /// Per-task stack of held resources, enforcing LIFO release and
    /// tracking the task's elevated priority.
    #[derive(Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct HeldResources {
        stack: Vec<(ResourceIdRepr, Priority)>,
    }
}

// ResourceId lives in plan.rs without serde; keep a raw repr here.
type ResourceIdRepr = u32;

impl HeldResources {
    /// Creates an empty stack.
    pub fn new() -> Self {
        HeldResources::default()
    }

    /// Pushes a taken resource and the priority the task had *before*
    /// taking it.
    pub fn push(&mut self, id: ResourceId, prior_priority: Priority) {
        self.stack.push((id.0, prior_priority));
    }

    /// Pops the most recently taken resource if it matches `id`; returns the
    /// priority to restore. `None` signals a LIFO-order violation.
    pub fn pop_matching(&mut self, id: ResourceId) -> Option<Priority> {
        match self.stack.last() {
            Some(&(top, prior)) if top == id.0 => {
                self.stack.pop();
                Some(prior)
            }
            _ => None,
        }
    }

    /// `true` if the task holds no resources.
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Number of held resources.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Ids of held resources, innermost last.
    pub fn ids(&self) -> impl Iterator<Item = ResourceId> + '_ {
        self.stack.iter().map(|&(id, _)| ResourceId(id))
    }

    /// Clears the stack (at task termination after an error).
    pub fn clear(&mut self) {
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_resource_keeps_name_and_ceiling() {
        let r = Resource::new("r", Priority(5));
        assert_eq!(r.name(), "r");
        assert_eq!(r.ceiling(), Priority(5));
    }

    #[test]
    fn held_resources_enforce_lifo() {
        let mut held = HeldResources::new();
        held.push(ResourceId(0), Priority(1));
        held.push(ResourceId(1), Priority(3));
        // Releasing out of order is rejected.
        assert_eq!(held.pop_matching(ResourceId(0)), None);
        // LIFO order restores the pre-acquisition priority.
        assert_eq!(held.pop_matching(ResourceId(1)), Some(Priority(3)));
        assert_eq!(held.pop_matching(ResourceId(0)), Some(Priority(1)));
        assert!(held.is_empty());
    }

    #[test]
    fn pop_from_empty_is_rejected() {
        let mut held = HeldResources::new();
        assert_eq!(held.pop_matching(ResourceId(0)), None);
    }

    #[test]
    fn ids_lists_in_acquisition_order() {
        let mut held = HeldResources::new();
        held.push(ResourceId(2), Priority(0));
        held.push(ResourceId(7), Priority(1));
        let ids: Vec<u32> = held.ids().map(|r| r.0).collect();
        assert_eq!(ids, vec![2, 7]);
        assert_eq!(held.len(), 2);
        held.clear();
        assert!(held.is_empty());
    }
}
