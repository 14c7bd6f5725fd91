//! Post-hoc profiling aggregation over a collected [`Trace`].
//!
//! [`Attribution`] folds the span-path counter attribution recorded
//! during a session (see [`Trace::attributed`]) into a hierarchical
//! self/total cost tree, with a collapsed-stack text sink that standard
//! flamegraph tooling consumes directly and byte-deterministic JSON /
//! text renderings. Because attribution happens at counter-emit time,
//! tree totals reconcile *exactly* with the flat counters — there is no
//! sampling and no drift.
//!
//! It is plain data folding over a
//! [`TraceGuard::finish`](crate::TraceGuard::finish) result — no
//! sessions, no globals.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{json_str, Trace};

/// Display name for the empty span path (counters recorded outside any
/// span).
pub const ROOT_FRAME: &str = "(root)";

/// A hierarchical self/total view of span-attributed counter deltas.
///
/// Built from [`Trace::attributed`]; paths are `';'`-joined span names
/// with `""` meaning "outside any span". For every counter, the sum of
/// self values across all paths equals the flat counter total in
/// [`Trace::counters`] — the attribution is exact, not sampled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Attribution {
    /// Self deltas: span path → counter name → summed delta.
    pub paths: BTreeMap<String, BTreeMap<String, i64>>,
}

/// One node of the rendered attribution tree (see
/// [`Attribution::tree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrNode {
    /// Span name of this node ([`ROOT_FRAME`] at the root).
    pub name: String,
    /// Counter delta recorded directly at this path.
    pub self_value: i64,
    /// Self plus all descendants.
    pub total: i64,
    /// Child nodes, ordered by first appearance in path order.
    pub children: Vec<AttrNode>,
}

impl Attribution {
    /// Extracts the attribution recorded in `trace`.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Attribution {
        Attribution { paths: trace.attributed.clone() }
    }

    /// All counter names that have attributed deltas, in sorted order.
    #[must_use]
    pub fn counters(&self) -> Vec<String> {
        let mut names: Vec<String> = self.paths.values().flat_map(|m| m.keys().cloned()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// The summed self value of `counter` across all paths — equal to the
    /// flat [`Trace::counters`] total by construction.
    #[must_use]
    pub fn total(&self, counter: &str) -> i64 {
        self.paths.values().filter_map(|m| m.get(counter)).sum()
    }

    /// Renders `counter` in collapsed-stack format: one
    /// `frame;frame;... value` line per path with a non-zero self value,
    /// sorted by path. Pipe into `flamegraph.pl` (or any FlameGraph-format
    /// consumer) as-is. Byte-deterministic.
    #[must_use]
    pub fn collapsed(&self, counter: &str) -> String {
        let mut out = String::new();
        for (path, per) in &self.paths {
            let Some(v) = per.get(counter) else { continue };
            if *v == 0 {
                continue;
            }
            if path.is_empty() {
                let _ = writeln!(out, "{ROOT_FRAME} {v}");
            } else {
                let _ = writeln!(out, "{ROOT_FRAME};{path} {v}");
            }
        }
        out
    }

    /// Builds the self/total tree for `counter`, rooted at
    /// [`ROOT_FRAME`]. Intermediate paths that never recorded a delta
    /// themselves still appear (with `self_value == 0`) when a descendant
    /// did.
    #[must_use]
    pub fn tree(&self, counter: &str) -> AttrNode {
        let mut root = AttrNode {
            name: ROOT_FRAME.to_string(),
            self_value: 0,
            total: 0,
            children: Vec::new(),
        };
        for (path, per) in &self.paths {
            let Some(v) = per.get(counter) else { continue };
            let mut node = &mut root;
            if !path.is_empty() {
                for frame in path.split(';') {
                    let pos = match node.children.iter().position(|c| c.name == frame) {
                        Some(p) => p,
                        None => {
                            node.children.push(AttrNode {
                                name: frame.to_string(),
                                self_value: 0,
                                total: 0,
                                children: Vec::new(),
                            });
                            node.children.len() - 1
                        }
                    };
                    node = &mut node.children[pos];
                }
            }
            node.self_value += v;
        }
        fn fill_totals(node: &mut AttrNode) -> i64 {
            let mut total = node.self_value;
            for c in &mut node.children {
                total += fill_totals(c);
            }
            node.total = total;
            total
        }
        fill_totals(&mut root);
        root
    }

    /// Renders the `counter` tree as indented human-readable text
    /// (`total  self  name` per line). Byte-deterministic.
    #[must_use]
    pub fn render_text(&self, counter: &str) -> String {
        let tree = self.tree(counter);
        let mut out = String::new();
        let _ = writeln!(out, "{counter}: total {}", tree.total);
        fn walk(node: &AttrNode, depth: usize, out: &mut String) {
            let _ = writeln!(
                out,
                "{:>10} {:>10}  {}{}",
                node.total,
                node.self_value,
                "  ".repeat(depth),
                node.name
            );
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        walk(&tree, 0, &mut out);
        out
    }

    /// Renders the full attribution (every path, every counter) as
    /// byte-deterministic JSON. Paths are prefixed with [`ROOT_FRAME`].
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"gr-trace/attribution/v1\",\n  \"paths\": {");
        for (i, (path, per)) in self.paths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let shown = if path.is_empty() {
                ROOT_FRAME.to_string()
            } else {
                format!("{ROOT_FRAME};{path}")
            };
            let _ = write!(out, "\n    {}: {{", json_str(&shown));
            for (j, (counter, v)) in per.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}: {}", json_str(counter), v);
            }
            out.push('}');
        }
        if !self.paths.is_empty() {
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_attribution() -> Attribution {
        let mut paths: BTreeMap<String, BTreeMap<String, i64>> = BTreeMap::new();
        let mut put = |path: &str, counter: &str, v: i64| {
            paths.entry(path.to_string()).or_default().insert(counter.to_string(), v);
        };
        put("", "solver.steps", 2);
        put("detect", "solver.steps", 10);
        put("detect;idiom;solve", "solver.steps", 100);
        put("detect;idiom;extend", "solver.steps", 1000);
        put("detect;idiom;extend", "solver.candidates", 7);
        Attribution { paths }
    }

    #[test]
    fn totals_and_counters() {
        let a = sample_attribution();
        assert_eq!(a.total("solver.steps"), 1112);
        assert_eq!(a.total("solver.candidates"), 7);
        assert_eq!(a.total("missing"), 0);
        assert_eq!(a.counters(), vec!["solver.candidates", "solver.steps"]);
    }

    #[test]
    fn collapsed_stack_is_flamegraph_shaped_and_deterministic() {
        let a = sample_attribution();
        let c = a.collapsed("solver.steps");
        assert_eq!(
            c,
            "(root) 2\n\
             (root);detect 10\n\
             (root);detect;idiom;extend 1000\n\
             (root);detect;idiom;solve 100\n"
        );
        assert_eq!(c, a.collapsed("solver.steps"), "re-render is byte-equal");
        // Zero-valued and absent counters produce no lines.
        assert_eq!(a.collapsed("missing"), "");
    }

    #[test]
    fn tree_fills_intermediate_nodes_and_totals() {
        let a = sample_attribution();
        let t = a.tree("solver.steps");
        assert_eq!(t.name, ROOT_FRAME);
        assert_eq!(t.self_value, 2);
        assert_eq!(t.total, 1112);
        let detect = &t.children[0];
        assert_eq!(detect.name, "detect");
        assert_eq!(detect.self_value, 10);
        assert_eq!(detect.total, 1110);
        let idiom = &detect.children[0];
        assert_eq!(idiom.name, "idiom");
        assert_eq!(idiom.self_value, 0, "intermediate node synthesized");
        assert_eq!(idiom.total, 1100);
        assert_eq!(idiom.children.len(), 2);
        let text = a.render_text("solver.steps");
        assert!(text.starts_with("solver.steps: total 1112\n"));
        assert_eq!(text, a.render_text("solver.steps"));
        let json = a.render_json();
        assert!(json.contains("\"schema\": \"gr-trace/attribution/v1\""));
        assert!(json.contains("\"(root);detect;idiom;solve\": {\"solver.steps\": 100}"));
        assert_eq!(json, a.render_json());
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn from_trace_extracts_attribution() {
        let guard = crate::start();
        {
            let _d = crate::span("detect");
            crate::counter("solver.steps", 5);
        }
        let trace = guard.finish();
        let a = Attribution::from_trace(&trace);
        assert_eq!(a.total("solver.steps"), trace.counter("solver.steps"));
        assert_eq!(a.collapsed("solver.steps"), "(root);detect 5\n");
    }
}
