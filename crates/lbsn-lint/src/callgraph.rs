//! Workspace call graph over the parsed `fn` items: name resolution
//! for call expressions and SCC condensation, feeding the summary
//! fixpoint in [`crate::lockflow`].
//!
//! Resolution is name-based with owner narrowing — sound for this
//! workspace's needs because unresolved names degrade to *foreign*
//! (no lock effect, like a std call) and ambiguity unions every
//! candidate's effect. Dynamic dispatch onto bodiless trait methods
//! resolves to *declared-only*, which [`crate::lockflow`] reports as
//! an unknown effect rather than a false pass.

use std::collections::HashMap;

use crate::parse::FnItem;

/// How a call expression names its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(..)` — `recv` is the receiver's head identifier when
    /// it is one (`self`, a local, a field name).
    Method {
        /// Head identifier of the receiver chain, when it is a plain
        /// identifier.
        recv: Option<String>,
    },
    /// `Seg::name(..)` — `Seg` is the path segment before the name.
    Path(String),
    /// `name(..)` with no qualifier.
    Free,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// The called name.
    pub name: String,
    /// Qualifier shape, used to narrow candidates.
    pub kind: CallKind,
    /// 1-based line of the call.
    pub line: usize,
}

/// A function in the workspace table.
#[derive(Debug)]
pub struct FnNode {
    /// Repo-relative path of the defining file.
    pub rel: String,
    /// The parsed item.
    pub item: FnItem,
    /// Defined in a binary/test root (`tests/`, `benches/`,
    /// `examples/`, `src/bin/`, `build.rs`): those compilation units
    /// can call into libraries but are never callees of other files,
    /// so name resolution must not pick them as candidates.
    pub root_only: bool,
}

/// Whether `rel` is a compilation root other files cannot call into.
fn is_root_only(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples" | "bin") || seg == "build.rs")
}

/// Every `fn` in the workspace, indexed by name for call resolution.
#[derive(Debug, Default)]
pub struct FnTable {
    /// All functions; indices are stable ids.
    pub fns: Vec<FnNode>,
    by_name: HashMap<String, Vec<usize>>,
}

/// Outcome of resolving one call expression.
#[derive(Debug, Default)]
pub struct Resolution {
    /// Workspace functions (with bodies) the call may reach.
    pub candidates: Vec<usize>,
    /// The name matched only bodiless declarations — dynamic dispatch
    /// with no concrete workspace implementation visible.
    pub declared_only: bool,
}

impl FnTable {
    /// Adds every function of one parsed file.
    pub fn add_file(&mut self, rel: &str, items: &[FnItem]) {
        let root_only = is_root_only(rel);
        for item in items {
            let id = self.fns.len();
            self.by_name.entry(item.name.clone()).or_default().push(id);
            self.fns.push(FnNode {
                rel: rel.to_string(),
                item: item.clone(),
                root_only,
            });
        }
    }

    /// Resolves a call made from `caller` to workspace candidates.
    ///
    /// Empty candidates with `declared_only: false` means *foreign*
    /// (std / vendored dep): treated as effect-free.
    pub fn resolve(&self, caller: usize, call: &CallRef) -> Resolution {
        let Some(all_ids) = self.by_name.get(&call.name) else {
            return Resolution::default();
        };
        // A root-only definition is reachable only from its own file.
        let caller_rel = self.fns[caller].rel.as_str();
        let ids: Vec<usize> = all_ids
            .iter()
            .copied()
            .filter(|&id| !self.fns[id].root_only || self.fns[id].rel == caller_rel)
            .collect();
        let caller_owner = self.fns[caller].item.owner.as_deref();
        let matched: Vec<usize> = match &call.kind {
            CallKind::Free => ids
                .iter()
                .copied()
                .filter(|&id| self.fns[id].item.owner.is_none())
                .collect(),
            CallKind::Path(seg) if seg == "Self" => ids
                .iter()
                .copied()
                .filter(|&id| self.fns[id].item.owner.as_deref() == caller_owner)
                .collect(),
            CallKind::Path(seg) if seg.bytes().next().is_some_and(|b| b.is_ascii_uppercase()) => {
                ids.iter()
                    .copied()
                    .filter(|&id| self.fns[id].item.owner.as_deref() == Some(seg.as_str()))
                    .collect()
            }
            // Lowercase path segment: a module path to a free fn.
            CallKind::Path(_) => ids
                .iter()
                .copied()
                .filter(|&id| self.fns[id].item.owner.is_none())
                .collect(),
            CallKind::Method { recv } => {
                let methods: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].item.owner.is_some())
                    .collect();
                if recv.as_deref() == Some("self") && caller_owner.is_some() {
                    let own: Vec<usize> = methods
                        .iter()
                        .copied()
                        .filter(|&id| self.fns[id].item.owner.as_deref() == caller_owner)
                        .collect();
                    // Narrow to the caller's own type only when that
                    // yields a body: a default trait method calling
                    // `self.other()` must widen to the impls, not pin
                    // itself to its trait's bodiless declaration.
                    if own.iter().any(|&id| self.fns[id].item.body.is_some()) {
                        own
                    } else {
                        methods
                    }
                } else {
                    methods
                }
            }
        };
        let (bodied, bodiless): (Vec<usize>, Vec<usize>) = matched
            .into_iter()
            .partition(|&id| self.fns[id].item.body.is_some());
        Resolution {
            declared_only: bodied.is_empty() && !bodiless.is_empty(),
            candidates: bodied,
        }
    }
}

/// Strongly connected components of the call graph, in reverse
/// topological order (callees before callers) — iterative Tarjan.
pub fn sccs(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct State {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        State {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next edge position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if st[root].visited {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
            if *ei == 0 {
                st[v].visited = true;
                st[v].index = next_index;
                st[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                st[v].on_stack = true;
            }
            if let Some(&w) = edges[v].get(*ei) {
                *ei += 1;
                if !st[w].visited {
                    frames.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                let low = st[v].lowlink;
                st[parent].lowlink = st[parent].lowlink.min(low);
            }
            if st[v].lowlink == st[v].index {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    st[w].on_stack = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                out.push(comp);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parse;

    fn table(files: &[(&str, &str)]) -> FnTable {
        let mut t = FnTable::default();
        for (rel, src) in files {
            let items = parse::parse(&lexer::scan(src).code).expect("parseable");
            t.add_file(rel, &items);
        }
        t
    }

    fn call(name: &str, kind: CallKind) -> CallRef {
        CallRef {
            name: name.to_string(),
            kind,
            line: 1,
        }
    }

    #[test]
    fn free_calls_resolve_to_free_fns() {
        let t = table(&[("a.rs", "fn helper() {}\nfn caller() { helper(); }\n")]);
        let r = t.resolve(1, &call("helper", CallKind::Free));
        assert_eq!(r.candidates, vec![0]);
        assert!(!r.declared_only);
    }

    #[test]
    fn self_methods_prefer_the_caller_owner() {
        let src = "struct A;\nimpl A {\n    fn go(&self) {}\n    fn run(&self) { self.go(); }\n}\n\
                   struct B;\nimpl B {\n    fn go(&self) {}\n}\n";
        let t = table(&[("a.rs", src)]);
        // run (id 1) calling self.go must narrow to A::go (id 0).
        let r = t.resolve(
            1,
            &call(
                "go",
                CallKind::Method {
                    recv: Some("self".to_string()),
                },
            ),
        );
        assert_eq!(r.candidates, vec![0]);
    }

    #[test]
    fn trait_decl_only_is_declared_only() {
        let t = table(&[("a.rs", "trait P {\n    fn probe(&self);\n}\nfn go() {}\n")]);
        let r = t.resolve(1, &call("probe", CallKind::Method { recv: None }));
        assert!(r.candidates.is_empty());
        assert!(r.declared_only);
    }

    #[test]
    fn unknown_names_are_foreign() {
        let t = table(&[("a.rs", "fn go() {}\n")]);
        let r = t.resolve(0, &call("push", CallKind::Method { recv: None }));
        assert!(r.candidates.is_empty());
        assert!(!r.declared_only);
    }

    #[test]
    fn sccs_reverse_topological_with_cycle() {
        // 0 -> 1 -> 2, 2 -> 1 (cycle {1,2}), 0 -> 3.
        let edges = vec![vec![1, 3], vec![2], vec![1], vec![]];
        let comps = sccs(4, &edges);
        let pos = |x: usize| comps.iter().position(|c| c.contains(&x)).unwrap();
        assert_eq!(pos(1), pos(2), "cycle is one component");
        assert!(pos(1) < pos(0), "callees come before callers");
        assert!(pos(3) < pos(0));
        assert_eq!(comps.len(), 3);
    }
}
