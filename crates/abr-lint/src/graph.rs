//! Conservative intra-crate call-graph approximation over parsed files.
//!
//! Edges are resolved in two tiers. A path call `Cur::new(..)` resolves
//! against *qualified* names first: if some function's `Type::name`
//! matches exactly, only those edges are added. A path call whose
//! qualifier names a type and has no such match (`Vec::new()`,
//! `f64::max(..)`, a derived `Stats::default()`) calls a function the crate
//! does not define, so it adds no edge. Everything else — method calls
//! `x.foo(..)`, bare calls `foo(..)`, and path calls through a module
//! (`util::foo(..)`), a trait implemented in the crate
//! (`AbrAlgorithm::foo(..)`) or a one-letter generic parameter
//! (`T::foo(..)`) — falls back to linking *every* function named `foo` in
//! the same crate. A function a `macro_rules!` body defines in an `impl`
//! for a metavariable (`impl $E { fn get_fields … }`) may stand for any
//! type, so a type-qualified call with no exact match (`Frame::get_fields`,
//! `u8::get`) links to every such function of that name. The fallback over-approximates real dispatch (trait
//! objects, shadowed free functions, same-named methods on different types
//! all merge), which is exactly the right bias for rule R7: a function is
//! considered hot if it *might* run under a hot-path root, and false edges
//! are pruned explicitly with `// abr-lint: cold` markers or
//! `abr-lint.allow` entries rather than silently dropped.
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
    files: Vec<&'a ParsedFile>,
    /// name -> all functions bearing it (production code only).
    by_name: BTreeMap<&'a str, Vec<FnRef>>,
    /// qualified `Type::name` -> its functions (production code only).
    by_qualified: BTreeMap<&'a str, Vec<FnRef>>,
    /// name -> functions a macro defines for a metavariable type
    /// (`$E::get_fields`), which a call on any type may reach.
    by_macro_type: BTreeMap<&'a str, Vec<FnRef>>,
    /// Traits some impl block of the crate implements.
    traits: BTreeSet<&'a str>,
}

impl<'a> CrateGraph<'a> {
    /// Index `files` (all parsed files of one crate, any order).
    pub fn build(files: impl IntoIterator<Item = &'a ParsedFile>) -> CrateGraph<'a> {
        let files: Vec<&'a ParsedFile> = files.into_iter().collect();
        let mut by_name: BTreeMap<&'a str, Vec<FnRef>> = BTreeMap::new();
        let mut by_qualified: BTreeMap<&'a str, Vec<FnRef>> = BTreeMap::new();
        let mut by_macro_type: BTreeMap<&'a str, Vec<FnRef>> = BTreeMap::new();
        let mut traits = BTreeSet::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                traits.extend(f.trait_name.as_deref());
                let r = FnRef { file: fi, item: ii };
                by_name.entry(f.name.as_str()).or_default().push(r);
                by_qualified
                    .entry(f.qualified.as_str())
                    .or_default()
                    .push(r);
                if f.qualified.starts_with('$') {
                    by_macro_type.entry(f.name.as_str()).or_default().push(r);
                }
            }
        }
        CrateGraph {
            files,
            by_name,
            by_qualified,
            by_macro_type,
            traits,
        }
    }

    /// The parsed item behind a reference.
    pub fn item(&self, r: FnRef) -> &'a FnItem {
        &self.files[r.file].fns[r.item]
    }

    /// Resolve a call key from [`FnItem::calls`]: qualified keys
    /// (`"Cur::new"`) match qualified function names exactly when any
    /// exist; a type qualifier with no exact match reaches only the
    /// same-named functions macros define for a metavariable type; any
    /// other key falls back to bare-name resolution on the last segment
    /// (conservative over-approximation).
    fn resolve(&self, callee: &str) -> &[FnRef] {
        let bare = match callee.rsplit_once("::") {
            Some((qualifier, bare)) => {
                if let Some(hits) = self.by_qualified.get(callee) {
                    return hits;
                }
                if names_type(qualifier) && !self.traits.contains(qualifier) {
                    return self.by_macro_type.get(bare).map_or(&[], Vec::as_slice);
                }
                bare
            }
            None => callee,
        };
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

/// Whether a call path's qualifier names a type rather than a module: a
/// primitive, or a capitalized name longer than one letter (a single
/// capital is read as a generic parameter, whose calls may reach any
/// implementation in the crate).
fn names_type(qualifier: &str) -> bool {
    const PRIMITIVES: &[&str] = &[
        "bool", "char", "str", "f32", "f64", "i8", "i16", "i32", "i64", "i128", "isize", "u8",
        "u16", "u32", "u64", "u128", "usize",
    ];
    PRIMITIVES.contains(&qualifier)
        || (qualifier.len() > 1 && qualifier.starts_with(|c: char| c.is_ascii_uppercase()))
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

    /// Qualified names of the hot set of `sources`.
    fn hot_quals(sources: &[&str]) -> Vec<String> {
        let files = parse_all(sources);
        let graph = CrateGraph::build(&files);
        graph
            .hot_set()
            .iter()
            .map(|h| graph.item(h.fn_ref).qualified.clone())
            .collect()
    }

    #[test]
    fn std_type_path_calls_add_no_edges() {
        // `Vec::new` is not the crate's `Conn::new`.
        let quals = hot_quals(&[
            "struct Conn; impl Conn { fn new() -> Conn { Conn } }\n// abr-lint: hot-path\nfn root() { Vec::new(); }\n",
        ]);
        assert_eq!(quals, ["root"]);
    }

    #[test]
    fn primitive_path_calls_add_no_edges() {
        // `f64::max` is not the crate's `Window::max`.
        let quals = hot_quals(&[
            "struct Window; impl Window { fn max(&self) -> f64 { 0.0 } }\n// abr-lint: hot-path\nfn root(a: f64) -> f64 { f64::max(a, 1.0) }\n",
        ]);
        assert_eq!(quals, ["root"]);
    }

    #[test]
    fn derived_function_of_a_crate_type_adds_no_edges() {
        // `Stats` derives `Default`; the crate's only `default` belongs to
        // another type.
        let quals = hot_quals(&[
            "#[derive(Default)]\nstruct Stats { n: u64 }\nimpl Stats { fn bump(&mut self) {} }\n",
            "struct Config; impl Default for Config { fn default() -> Config { Config } }\n// abr-lint: hot-path\nfn root() { Stats::default(); }\n",
        ]);
        assert_eq!(quals, ["root"]);
    }

    #[test]
    fn trait_and_generic_path_calls_fall_back_to_bare_name() {
        let quals = hot_quals(&[
            "trait Algo { fn pick(&self) -> usize; }\nstruct A; impl Algo for A { fn pick(&self) -> usize { 1 } }\n",
            "// abr-lint: hot-path\nfn root(a: &A) { Algo::pick(a); }\nstruct B; impl B { fn make() {} }\n// abr-lint: hot-path\nfn generic<T>() { T::make(); }\n",
        ]);
        assert_eq!(quals, ["A::pick", "root", "B::make", "generic"]);
    }

    #[test]
    fn type_path_calls_reach_functions_macros_define_for_any_type() {
        // `Frame::decode` and `u8::get` have no exact match; the macro's
        // `$E::decode` and `$t::get` may stand for those types, `Conn::get`
        // may not.
        let quals = hot_quals(&[
            "macro_rules! table { ($E:ident) => { impl $E { fn decode() { u8::get(); } } }; }
macro_rules! ints { ($t:ty) => { impl Wire for $t { fn get() {} } }; }
struct Conn; impl Conn { fn get() {} }
// abr-lint: hot-path
fn root() { Frame::decode(); }
",
        ]);
        assert_eq!(quals, ["$E::decode", "$t::get", "root"]);
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
