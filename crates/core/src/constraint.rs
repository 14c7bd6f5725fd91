//! The constraint description language: labels, the boolean constraint
//! tree, and the specification container.
//!
//! A specification consists of a set of labels *I* and a predicate *c* over
//! `values(F)^I` (paper §3.2). The predicate is a tree of conjunctions,
//! disjunctions and [`Atom`]s. The embedded-DSL style of the paper's
//! Figure 7 maps to [`SpecBuilder`]: composed constraints like the for-loop
//! are plain Rust functions that add atoms over shared labels.

use crate::atoms::Atom;

/// A label: an index into the assignment tuple the solver searches for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub usize);

impl Label {
    /// The tuple index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A boolean combination of atomic constraints.
#[derive(Debug, Clone)]
pub enum Constraint {
    /// An atomic constraint.
    Atom(Atom),
    /// Conjunction.
    And(Vec<Constraint>),
    /// Disjunction.
    Or(Vec<Constraint>),
}

impl Constraint {
    /// The largest label index mentioned, or `None` for empty trees.
    #[must_use]
    pub fn max_label(&self) -> Option<usize> {
        match self {
            Constraint::Atom(a) => a.labels().iter().map(|l| l.index()).max(),
            Constraint::And(cs) | Constraint::Or(cs) => {
                cs.iter().filter_map(Constraint::max_label).max()
            }
        }
    }

    /// All atoms in the tree (used for statistics and the naive solver).
    pub fn atoms(&self) -> Vec<&Atom> {
        match self {
            Constraint::Atom(a) => vec![a],
            Constraint::And(cs) | Constraint::Or(cs) => {
                cs.iter().flat_map(Constraint::atoms).collect()
            }
        }
    }
}

/// A shared sub-specification prefix (see [`SpecBuilder::mark_prefix`]).
///
/// Specifications composed as `prefix ⨯ extension` — e.g. every built-in
/// idiom is `for-loop ⨯ idiom-specific conditions` — record how many
/// leading labels and top-level conjuncts belong to the prefix, plus a
/// structural fingerprint. Two specs with equal fingerprints share the
/// exact same prefix sub-problem, so a solver run over one prefix can be
/// reused by every extension
/// ([`solve_extend`](crate::solver::solve_extend)).
///
/// A spec may stack **several instances** of the same prefix (calling
/// `mark_prefix` once per instance): the map-reduce-fusion idiom poses the
/// for-loop sub-problem twice — once for the producer loop, once for the
/// consumer. `labels`/`conjuncts` always describe a *single* instance;
/// the solver resumes such specs from the cartesian power of the cached
/// prefix solutions, so one cached for-loop solve serves every ordered
/// pair of loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixInfo {
    /// Number of leading labels owned by one prefix instance.
    pub labels: usize,
    /// Number of leading top-level conjuncts owned by one prefix instance.
    pub conjuncts: usize,
    /// How many structurally identical instances of the prefix are
    /// stacked back to back (1 for every single-loop idiom).
    pub instances: usize,
    /// Structural fingerprint of one prefix instance (labels + constraint
    /// tree): equal fingerprints ⇒ identical prefix sub-problems.
    pub fingerprint: u64,
}

impl PrefixInfo {
    /// Total labels covered by all stacked prefix instances.
    #[must_use]
    pub fn total_labels(&self) -> usize {
        self.labels * self.instances
    }

    /// Total top-level conjuncts covered by all stacked prefix instances.
    #[must_use]
    pub fn total_conjuncts(&self) -> usize {
        self.conjuncts * self.instances
    }
}

/// A named idiom specification: labels plus the constraint predicate.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Idiom name (for reports).
    pub name: String,
    /// Label names, in solver assignment order.
    pub label_names: Vec<String>,
    /// The predicate.
    pub root: Constraint,
    /// The shared sub-specification prefix, when one was marked.
    pub prefix: Option<PrefixInfo>,
}

impl Spec {
    /// Number of labels.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.label_names.len()
    }

    /// The top-level conjuncts of the predicate.
    #[must_use]
    pub fn conjuncts(&self) -> &[Constraint] {
        match &self.root {
            Constraint::And(cs) => cs,
            _ => std::slice::from_ref(&self.root),
        }
    }

    /// The standalone specification of the marked prefix, or `None` when
    /// the spec has no prefix. Solving it yields exactly the partial
    /// assignments [`solve_extend`](crate::solver::solve_extend) resumes
    /// from.
    #[must_use]
    pub fn prefix_spec(&self) -> Option<Spec> {
        let p = self.prefix?;
        Some(Spec {
            name: format!("{}::prefix", self.name),
            label_names: self.label_names[..p.labels].to_vec(),
            root: Constraint::And(self.conjuncts()[..p.conjuncts].to_vec()),
            prefix: None,
        })
    }

    /// The label with the given name.
    ///
    /// # Panics
    /// Panics if no label has that name (a specification bug).
    #[must_use]
    pub fn label(&self, name: &str) -> Label {
        Label(
            self.label_names
                .iter()
                .position(|n| n == name)
                .unwrap_or_else(|| panic!("spec `{}` has no label `{name}`", self.name)),
        )
    }
}

/// Incrementally builds a [`Spec`]. The order in which labels are created
/// is the order the solver assigns them — put well-generating labels first
/// (the paper: "first looking for the loop header […] then looking for the
/// end of the loop body", §3.3).
#[derive(Debug, Default)]
pub struct SpecBuilder {
    name: String,
    label_names: Vec<String>,
    conjuncts: Vec<Constraint>,
    /// One `(labels_so_far, conjuncts_so_far)` boundary per `mark_prefix`
    /// call; several boundaries stack instances of the same prefix.
    prefix_marks: Vec<(usize, usize)>,
}

impl SpecBuilder {
    /// Starts a specification.
    #[must_use]
    pub fn new(name: &str) -> SpecBuilder {
        SpecBuilder {
            name: name.to_string(),
            label_names: Vec::new(),
            conjuncts: Vec::new(),
            prefix_marks: Vec::new(),
        }
    }

    /// Marks everything added so far as the spec's shared prefix (CAnDL/IDL
    /// style composition by inclusion): the labels and conjuncts of a
    /// reusable sub-specification whose solutions can be cached and shared
    /// across every spec built on the same prefix. Composite helpers call
    /// this after adding their atoms — [`add_for_loop`] does, so every
    /// idiom built on the for-loop skeleton shares its sub-solution
    /// automatically.
    ///
    /// The prefix must be self-contained and come **first**: call the
    /// prefix composite on a fresh builder, before declaring any of your
    /// own labels or atoms. Labels created earlier would be swept into
    /// the marked prefix without their constraints, degrading the cached
    /// prefix solve to full `values(F)` enumeration for them (correct,
    /// but it multiplies prefix solutions instead of sharing a small
    /// skeleton).
    ///
    /// Calling `mark_prefix` again after adding a *second copy* of the
    /// same composite stacks another **instance** of the prefix: the
    /// instances must be structurally identical up to the label offset
    /// (checked in [`SpecBuilder::finish`]), and the solver resumes the
    /// spec from tuples of cached prefix solutions — one per instance —
    /// instead of re-solving the copies. This is how map-reduce fusion
    /// poses the for-loop sub-problem once for the producer loop and once
    /// for the consumer while still paying for a single cached solve.
    ///
    /// [`add_for_loop`]: crate::spec::forloop::add_for_loop
    pub fn mark_prefix(&mut self) -> &mut SpecBuilder {
        let mark = (self.label_names.len(), self.conjuncts.len());
        if let Some(&last) = self.prefix_marks.last() {
            assert!(mark != last, "spec `{}` marked an empty prefix instance", self.name);
        }
        self.prefix_marks.push(mark);
        self
    }

    /// Creates a fresh label.
    ///
    /// # Panics
    /// Panics if the name is already taken.
    pub fn label(&mut self, name: &str) -> Label {
        assert!(
            !self.label_names.iter().any(|n| n == name),
            "duplicate label `{name}` in spec `{}`",
            self.name
        );
        self.label_names.push(name.to_string());
        Label(self.label_names.len() - 1)
    }

    /// Adds a top-level atomic conjunct.
    pub fn atom(&mut self, atom: Atom) -> &mut SpecBuilder {
        self.conjuncts.push(Constraint::Atom(atom));
        self
    }

    /// Adds an arbitrary constraint conjunct (e.g. an `Or`).
    pub fn constraint(&mut self, c: Constraint) -> &mut SpecBuilder {
        self.conjuncts.push(c);
        self
    }

    /// Adds a disjunction of the given constraints.
    pub fn any(&mut self, cs: Vec<Constraint>) -> &mut SpecBuilder {
        self.conjuncts.push(Constraint::Or(cs));
        self
    }

    /// Finalizes the specification.
    ///
    /// # Panics
    /// Panics when stacked prefix instances are not structurally identical
    /// up to the label offset (a specification bug: the solver could not
    /// soundly resume them from one cached sub-solution).
    #[must_use]
    pub fn finish(self) -> Spec {
        let prefix = self.prefix_marks.first().map(|&(labels, conjuncts)| {
            let instances = self.prefix_marks.len();
            // Every further instance must span the same number of labels
            // and conjuncts and repeat the first instance's constraint
            // tree, merely shifted by the label offset.
            for (i, &(l_end, c_end)) in self.prefix_marks.iter().enumerate() {
                assert_eq!(
                    (l_end, c_end),
                    (labels * (i + 1), conjuncts * (i + 1)),
                    "spec `{}`: prefix instance {i} has a different span",
                    self.name
                );
                let shifted: Vec<Constraint> = self.conjuncts[conjuncts * i..c_end]
                    .iter()
                    .map(|c| shift_labels(c, -(isize::try_from(labels * i).unwrap())))
                    .collect();
                assert_eq!(
                    format!("{shifted:?}"),
                    format!("{:?}", &self.conjuncts[..conjuncts]),
                    "spec `{}`: prefix instance {i} is not a copy of instance 0",
                    self.name
                );
            }
            PrefixInfo {
                labels,
                conjuncts,
                instances,
                fingerprint: fingerprint(&self.label_names[..labels], &self.conjuncts[..conjuncts]),
            }
        });
        Spec {
            name: self.name,
            label_names: self.label_names,
            root: Constraint::And(self.conjuncts),
            prefix,
        }
    }
}

/// Clones a constraint tree with every label index shifted by `delta`
/// (used to compare stacked prefix instances against instance 0).
fn shift_labels(c: &Constraint, delta: isize) -> Constraint {
    let shift = |l: Label| {
        Label(
            usize::try_from(isize::try_from(l.index()).unwrap() + delta).expect("label underflow"),
        )
    };
    match c {
        Constraint::Atom(a) => Constraint::Atom(a.map_labels(&shift)),
        Constraint::And(cs) => Constraint::And(cs.iter().map(|c| shift_labels(c, delta)).collect()),
        Constraint::Or(cs) => Constraint::Or(cs.iter().map(|c| shift_labels(c, delta)).collect()),
    }
}

/// Structural fingerprint of a prefix: a hash of its label names and the
/// debug rendering of its constraint tree. Atoms carry no dynamic state, so
/// equal renderings mean identical sub-problems.
fn fingerprint(labels: &[String], conjuncts: &[Constraint]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    labels.hash(&mut h);
    format!("{conjuncts:?}").hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_labels() {
        let mut b = SpecBuilder::new("t");
        let a = b.label("a");
        let c = b.label("c");
        assert_eq!(a, Label(0));
        assert_eq!(c, Label(1));
        let s = b.finish();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.label("c"), Label(1));
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_labels_rejected() {
        let mut b = SpecBuilder::new("t");
        b.label("x");
        b.label("x");
    }

    #[test]
    fn max_label_spans_tree() {
        let mut b = SpecBuilder::new("t");
        let a = b.label("a");
        let c = b.label("c");
        b.atom(Atom::NotEqual { a, b: c });
        b.any(vec![
            Constraint::Atom(Atom::IsLoopHeader(a)),
            Constraint::Atom(Atom::IsLoopHeader(c)),
        ]);
        let s = b.finish();
        assert_eq!(s.root.max_label(), Some(1));
        assert_eq!(s.root.atoms().len(), 3);
    }
}
