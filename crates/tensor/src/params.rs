//! Named, ordered parameter storage shared by models and optimizers.

use rustc_hash::FxHashMap;

use crate::tensor::Tensor;

/// Stable handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index into the store's dense arrays (used by optimizers).
    pub fn index(self) -> usize {
        self.0
    }
}

/// An insertion-ordered collection of named trainable tensors.
///
/// Insertion order is the canonical iteration order everywhere (optimizer
/// state, serialisation, gradient application), which keeps runs bit-for-bit
/// reproducible for a fixed seed.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    tensors: Vec<Tensor>,
    lookup: FxHashMap<String, usize>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter; returns its handle.
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn register(&mut self, name: impl Into<String>, tensor: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.lookup.contains_key(&name),
            "parameter `{name}` registered twice"
        );
        let id = ParamId(self.tensors.len());
        self.lookup.insert(name.clone(), id.0);
        self.names.push(name);
        self.tensors.push(tensor);
        id
    }

    /// Handle for a registered name, if present.
    pub fn id(&self, name: &str) -> Option<ParamId> {
        self.lookup.get(name).copied().map(ParamId)
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    /// Mutable access to a parameter (optimizer updates).
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.tensors[id.0]
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn scalar_count(&self) -> usize {
        self.tensors.iter().map(Tensor::len).sum()
    }

    /// Iterates `(id, name, tensor)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(&self.tensors)
            .enumerate()
            .map(|(i, (n, t))| (ParamId(i), n.as_str(), t))
    }

    /// Deep copy of all parameter tensors.
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.tensors.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let w = store.register("w", Tensor::zeros(2, 3));
        assert_eq!(store.id("w"), Some(w));
        assert_eq!(store.id("missing"), None);
        assert_eq!(store.name(w), "w");
        assert_eq!(store.get(w).shape(), (2, 3));
        assert_eq!(store.scalar_count(), 6);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut store = ParamStore::new();
        store.register("w", Tensor::zeros(1, 1));
        store.register("w", Tensor::zeros(1, 1));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut store = ParamStore::new();
        store.register("b", Tensor::zeros(1, 1));
        store.register("a", Tensor::zeros(1, 1));
        let names: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
    }
}
