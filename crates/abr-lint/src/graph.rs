//! Conservative intra-crate call-graph approximation over parsed files.
//!
//! Edges are resolved in two tiers. A path call `Cur::new(..)` resolves
//! against *qualified* names first: if some function's `Type::name`
//! matches exactly, only those edges are added. Everything else — method
//! calls `x.foo(..)`, bare calls `foo(..)`, and path calls with no
//! qualified match (module paths, cross-crate types) — falls back to
//! linking *every* function named `foo` in the same crate. The fallback
//! over-approximates real dispatch (trait objects, shadowed free
//! functions, same-named methods on different types all merge), which is
//! exactly the right bias for rule R7: a function is considered hot if it
//! *might* run under a hot-path root, and false edges are pruned
//! explicitly with `// abr-lint: cold` markers or `abr-lint.allow`
//! entries rather than silently dropped.
//!
//! Cross-crate edges are not followed — each crate roots its own hot set
//! with its own markers (the decision path is marked in `core`,
//! `abr-baselines`, `abr-sim`, and `abr-serve` independently), so the
//! graph never needs whole-program resolution.

use crate::syntax::{FnItem, ParsedFile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One function in the crate-wide index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef {
    /// Index into the file list the [`CrateGraph`] was built from.
    pub file: usize,
    /// Index into that file's [`ParsedFile::fns`].
    pub item: usize,
}

/// A hot function together with the marker-to-here call chain that made
/// it hot (qualified names, root first).
#[derive(Debug, Clone)]
pub struct HotFn {
    /// The function.
    pub fn_ref: FnRef,
    /// Call chain from a hot-path root to this function, e.g.
    /// `["read_frame", "read_full"]`. A root's
    /// chain is just its own name.
    pub chain: Vec<String>,
}

/// The per-crate call graph: name-resolved edges over every parsed file
/// of one crate.
pub struct CrateGraph<'a> {
    files: &'a [ParsedFile],
    /// name -> all functions bearing it (production code only).
    by_name: BTreeMap<&'a str, Vec<FnRef>>,
    /// qualified `Type::name` -> its functions (production code only).
    by_qualified: BTreeMap<&'a str, Vec<FnRef>>,
}

impl<'a> CrateGraph<'a> {
    /// Index `files` (all parsed files of one crate, any order).
    pub fn build(files: &'a [ParsedFile]) -> CrateGraph<'a> {
        let mut by_name: BTreeMap<&'a str, Vec<FnRef>> = BTreeMap::new();
        let mut by_qualified: BTreeMap<&'a str, Vec<FnRef>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let r = FnRef { file: fi, item: ii };
                by_name.entry(f.name.as_str()).or_default().push(r);
                by_qualified
                    .entry(f.qualified.as_str())
                    .or_default()
                    .push(r);
            }
        }
        CrateGraph {
            files,
            by_name,
            by_qualified,
        }
    }

    /// The parsed item behind a reference.
    pub fn item(&self, r: FnRef) -> &'a FnItem {
        &self.files[r.file].fns[r.item]
    }

    /// Resolve a call key from [`FnItem::calls`]: qualified keys
    /// (`"Cur::new"`) match qualified function names exactly when any
    /// exist, otherwise fall back to bare-name resolution on the last
    /// segment (conservative over-approximation).
    fn resolve(&self, callee: &str) -> &[FnRef] {
        if callee.contains("::") {
            if let Some(hits) = self.by_qualified.get(callee) {
                return hits;
            }
        }
        let bare = callee.rsplit("::").next().unwrap_or(callee);
        self.by_name.get(bare).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Breadth-first reachability from every `// abr-lint: hot-path` root,
    /// following name-resolved call edges, stopping at `// abr-lint: cold`
    /// functions (the cold function itself is *not* hot). Returns hot
    /// functions with a witness chain, ordered by (file, item) so output
    /// is deterministic.
    pub fn hot_set(&self) -> Vec<HotFn> {
        let mut chains: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
        let mut queue: VecDeque<FnRef> = VecDeque::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                if f.hot_marker && !f.is_test && !f.cold_marker {
                    let r = FnRef { file: fi, item: ii };
                    chains.insert((fi, ii), vec![f.qualified.clone()]);
                    queue.push_back(r);
                }
            }
        }
        let mut seen: BTreeSet<(usize, usize)> = chains.keys().copied().collect();
        while let Some(r) = queue.pop_front() {
            let here = self.item(r);
            let chain = chains[&(r.file, r.item)].clone();
            for callee in &here.calls {
                for &next in self.resolve(callee) {
                    let key = (next.file, next.item);
                    if seen.contains(&key) {
                        continue;
                    }
                    let item = self.item(next);
                    if item.cold_marker {
                        continue;
                    }
                    let mut next_chain = chain.clone();
                    next_chain.push(item.qualified.clone());
                    chains.insert(key, next_chain);
                    seen.insert(key);
                    queue.push_back(next);
                }
            }
        }
        chains
            .into_iter()
            .map(|((file, item), chain)| HotFn {
                fn_ref: FnRef { file, item },
                chain,
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn parse_all(sources: &[&str]) -> Vec<ParsedFile> {
        sources.iter().map(|s| ParsedFile::parse(s)).collect()
    }

    #[test]
    fn reachability_follows_cross_file_chains() {
        let files = parse_all(&[
            "// abr-lint: hot-path\nfn root() { middle(); }\n",
            "fn middle() { leaf(); }\nfn leaf() {}\nfn unrelated() {}\n",
        ]);
        let graph = CrateGraph::build(&files);
        let hot = graph.hot_set();
        let names: Vec<&str> = hot
            .iter()
            .map(|h| graph.item(h.fn_ref).name.as_str())
            .collect();
        assert_eq!(names, ["root", "middle", "leaf"]);
        let leaf = hot
            .iter()
            .find(|h| h.chain.last().unwrap() == "leaf")
            .unwrap();
        assert_eq!(leaf.chain, ["root", "middle", "leaf"]);
    }

    #[test]
    fn cold_marker_cuts_propagation() {
        let files = parse_all(&[
            "// abr-lint: hot-path\nfn root() { logger(); }\n// abr-lint: cold\nfn logger() { alloc_heavy(); }\nfn alloc_heavy() {}\n",
        ]);
        let graph = CrateGraph::build(&files);
        let hot = graph.hot_set();
        let names: Vec<&str> = hot
            .iter()
            .map(|h| graph.item(h.fn_ref).name.as_str())
            .collect();
        assert_eq!(names, ["root"], "cold function and its callees stay out");
    }

    #[test]
    fn method_calls_resolve_by_name_conservatively() {
        let files = parse_all(&[
            "struct A; impl A {\n// abr-lint: hot-path\nfn go(&self) { self.step() } }\n",
            "struct B; impl B { fn step(&self) {} }\n",
        ]);
        let graph = CrateGraph::build(&files);
        let hot = graph.hot_set();
        let quals: Vec<&str> = hot
            .iter()
            .map(|h| graph.item(h.fn_ref).qualified.as_str())
            .collect();
        // B::step is pulled in even though the receiver is an A — the
        // over-approximation the module docs promise.
        assert_eq!(quals, ["A::go", "B::step"]);
    }

    #[test]
    fn qualified_path_calls_resolve_precisely() {
        let files = parse_all(&[
            "struct Cur; impl Cur { fn new() -> Cur { Cur } }\nstruct Conn; impl Conn { fn new() -> Conn { Conn } }\n// abr-lint: hot-path\nfn decode() { Cur::new(); }\n",
        ]);
        let graph = CrateGraph::build(&files);
        let quals: Vec<&str> = graph
            .hot_set()
            .iter()
            .map(|h| graph.item(h.fn_ref).qualified.as_str())
            .collect();
        // `Cur::new(` must NOT pull in the same-named `Conn::new`.
        assert_eq!(quals, ["Cur::new", "decode"]);
    }

    #[test]
    fn module_path_calls_fall_back_to_bare_name() {
        let files = parse_all(&[
            "// abr-lint: hot-path\nfn root() { util::helper(); }\n",
            "fn helper() {}\n",
        ]);
        let graph = CrateGraph::build(&files);
        // `util::helper` has no qualified match (free fn in another file),
        // so the bare-name fallback keeps the real edge.
        assert_eq!(graph.hot_set().len(), 2);
    }

    #[test]
    fn test_functions_never_enter_the_hot_set() {
        let files = parse_all(&[
            "// abr-lint: hot-path\nfn root() { helper(); }\n#[cfg(test)]\nmod t { fn helper() {} }\n",
        ]);
        let graph = CrateGraph::build(&files);
        assert_eq!(graph.hot_set().len(), 1);
    }
}
