//! Lock-discipline lints over the engine and wire-server sources.
//!
//! Two related checks:
//!
//! * **lock-order-cycle** — builds the static lock-acquisition graph:
//!   an edge `A → B` whenever a `.lock()` on `B` happens while a guard
//!   for `A` is still live in the same function. A cycle in that graph
//!   is a deadlock waiting for the right thread interleaving, which no
//!   amount of testing reliably reproduces — exactly the kind of fact
//!   worth proving statically.
//! * **lock-unwrap** — `.unwrap()`/`.expect(..)` on a lock or condvar
//!   result outside test code. The engine's sanctioned idiom is
//!   `unwrap_or_else(PoisonError::into_inner)` (a poisoned mutex holds
//!   plain-old-data that is safe to keep using); a bare unwrap turns
//!   one worker panic into a poisoned-lock panic cascade.
//!
//! The analysis is per-function and name-based: a lock's identity is
//! the last path segment before `.lock()` (`self.queue.lock()` and
//! `shared.queue.lock()` are the same lock `queue`), and helper
//! functions that return a `MutexGuard` count as acquisitions of the
//! lock they wrap.
//!
//! Identities are **instance-aware**: an index expression in the
//! receiver path qualifies the node, so `shards[a].lock()` and
//! `shards[b].lock()` are the distinct nodes `shards[a]` and
//! `shards[b]`. That distinction is what separates the three
//! same-base-name shapes:
//!
//! * same base, same index — **lock-reentry** (error): re-acquiring an
//!   instance already held self-deadlocks on a non-reentrant mutex;
//! * same base, different indices — a real edge plus a
//!   **lock-instance-order** warning: cross-instance nesting (the
//!   sharded queue's steal path is the motivating case) is only sound
//!   under a global instance order, which a static scan cannot prove.
//!   Opposite-order nesting elsewhere still completes a cycle and
//!   escalates to `lock-order-cycle`;
//! * same base, unknown instance (no index in the receiver) — a
//!   **lock-instance-order** warning with no edge, since the scan
//!   cannot tell reentry from ordered nesting.

use std::collections::{BTreeMap, BTreeSet};

use crate::report::{Finding, Pillar};

use super::source::SourceFile;

/// The static lock-acquisition graph of the scanned sources.
#[derive(Debug, Default, Clone)]
pub struct LockGraph {
    /// All lock names seen acquired anywhere.
    pub nodes: BTreeSet<String>,
    /// Edges `(held, acquired)` → one witness `(file, 1-based line)`.
    pub edges: BTreeMap<(String, String), (String, usize)>,
}

impl LockGraph {
    /// Human-readable one-line-per-fact summary (for the CLI).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "lock graph: {} lock(s), {} ordered acquisition edge(s)\n",
            self.nodes.len(),
            self.edges.len()
        ));
        for node in &self.nodes {
            out.push_str(&format!("  lock: {node}\n"));
        }
        for ((held, acquired), (file, line)) in &self.edges {
            out.push_str(&format!("  edge: {held} -> {acquired} ({file}:{line})\n"));
        }
        out
    }

    /// Finds cycles: every edge that participates in one becomes a
    /// finding (so the witness file/line is actionable).
    #[must_use]
    pub fn cycle_findings(&self) -> Vec<Finding> {
        let mut findings = Vec::new();
        for ((held, acquired), (file, line)) in &self.edges {
            if self.reaches(acquired, held) {
                findings.push(Finding::error(
                    Pillar::Workspace,
                    "lock-order-cycle",
                    file,
                    *line,
                    format!(
                        "acquiring `{acquired}` while holding `{held}` completes a \
                         lock-order cycle ({acquired} can be held while waiting for {held})"
                    ),
                ));
            }
        }
        findings
    }

    /// Is `to` reachable from `from` along acquisition edges?
    fn reaches(&self, from: &str, to: &str) -> bool {
        let mut stack = vec![from.to_string()];
        let mut seen = BTreeSet::new();
        while let Some(node) = stack.pop() {
            if node == to {
                return true;
            }
            if !seen.insert(node.clone()) {
                continue;
            }
            for (held, acquired) in self.edges.keys() {
                if *held == node && !seen.contains(acquired) {
                    stack.push(acquired.clone());
                }
            }
        }
        false
    }
}

/// A lock identity: base name plus an optional instance qualifier
/// (the index expression from the receiver path, whitespace-stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockId {
    /// Last path segment before `.lock()`.
    pub base: String,
    /// Index expression qualifying the instance, if one is visible.
    pub instance: Option<String>,
}

impl LockId {
    /// Graph-node rendering: `base` or `base[instance]`.
    #[must_use]
    pub fn rendered(&self) -> String {
        match &self.instance {
            Some(i) => format!("{}[{i}]", self.base),
            None => self.base.clone(),
        }
    }
}

/// A live guard inside a function body.
struct Held {
    lock: LockId,
    /// Binding name, if `let`-bound (so `drop(name)` releases it);
    /// `None` marks a temporary released at end of statement.
    binding: Option<String>,
    /// Brace depth at acquisition; leaving that scope releases it.
    depth: i64,
}

/// Scans `files`, returning the acquisition graph and the lock-unwrap
/// findings. `display` maps each file to the path shown in findings.
#[must_use]
pub fn scan_locks(files: &[(String, SourceFile)]) -> (LockGraph, Vec<Finding>) {
    // Pass 1: helpers returning a guard, e.g.
    //   fn lock_faults(&self) -> MutexGuard<'_, FaultSet> { self.faults.lock()… }
    // map helper name → wrapped lock name.
    let mut helpers: BTreeMap<String, LockId> = BTreeMap::new();
    for (_, file) in files {
        let mut pending: Option<String> = None;
        for line in &file.lines {
            if line.in_test {
                continue;
            }
            let code = &line.code;
            if let Some(name) = helper_signature(code) {
                pending = Some(name);
            }
            if let Some(helper) = pending.clone() {
                if let Some(lock) = lock_id(code) {
                    helpers.insert(helper, lock);
                    pending = None;
                }
            }
        }
    }

    let mut graph = LockGraph::default();
    let mut findings = Vec::new();
    for (display, file) in files {
        let mut depth: i64 = 0;
        let mut held: Vec<Held> = Vec::new();
        for (idx, line) in file.lines.iter().enumerate() {
            let code = &line.code;
            let lineno = idx + 1;
            let delta = super::source_brace_delta(code);
            // A new fn body starts a fresh holding context.
            if !line.in_test && code.contains("fn ") && code.contains('(') {
                held.clear();
            }
            if !line.in_test {
                // lock-unwrap: unwrap/expect on a lock or condvar wait.
                let touches_lock = code.contains(".lock()") || code.contains(".wait(");
                let unwraps = code.contains(".unwrap()") || code.contains(".expect(");
                if touches_lock && unwraps && !file.allows(idx, "lock-unwrap") {
                    findings.push(Finding::error(
                        Pillar::Workspace,
                        "lock-unwrap",
                        display,
                        lineno,
                        "unwrap()/expect() on a lock result outside a sanctioned \
                         poison-recovery helper; use \
                         unwrap_or_else(PoisonError::into_inner)"
                            .to_string(),
                    ));
                }
                // Acquisitions: direct `.lock()` or a guard-returning helper.
                let acquired = lock_id(code).or_else(|| {
                    helpers.keys().find(|h| calls(code, h)).map(|h| helpers[h].clone())
                });
                if let Some(lock) = acquired {
                    graph.nodes.insert(lock.rendered());
                    for h in &held {
                        if h.lock.base != lock.base {
                            graph
                                .edges
                                .entry((h.lock.rendered(), lock.rendered()))
                                .or_insert_with(|| (display.clone(), lineno));
                        } else if h.lock.instance.is_some()
                            && h.lock.instance == lock.instance
                        {
                            if !file.allows(idx, "lock-reentry") {
                                findings.push(Finding::error(
                                    Pillar::Workspace,
                                    "lock-reentry",
                                    display,
                                    lineno,
                                    format!(
                                        "re-acquiring `{}` while its guard is still \
                                         live self-deadlocks on a non-reentrant mutex",
                                        lock.rendered()
                                    ),
                                ));
                            }
                        } else {
                            // Same base, different (or unknown) instance.
                            if h.lock.instance.is_some() && lock.instance.is_some() {
                                graph
                                    .edges
                                    .entry((h.lock.rendered(), lock.rendered()))
                                    .or_insert_with(|| (display.clone(), lineno));
                            }
                            if !file.allows(idx, "lock-instance-order") {
                                findings.push(Finding::warning(
                                    Pillar::Workspace,
                                    "lock-instance-order",
                                    display,
                                    lineno,
                                    format!(
                                        "acquiring `{}` while holding `{}`: two \
                                         instances of the same lock are nested, which \
                                         is only deadlock-free under a global \
                                         instance order this scan cannot prove",
                                        lock.rendered(),
                                        h.lock.rendered()
                                    ),
                                ));
                            }
                        }
                    }
                    if let Some(binding) = let_binding(code) {
                        held.push(Held { lock, binding: Some(binding), depth });
                    } else if code.trim_start().starts_with("while ")
                        || code.trim_start().starts_with("if ")
                    {
                        // Guard lives for the condition's block body,
                        // one level deeper than the condition line.
                        held.push(Held { lock, binding: None, depth: depth + 1 });
                    }
                    // Other temporaries die at end of statement: no push.
                }
                // Explicit drops release by binding name.
                if let Some(dropped) = drop_target(code) {
                    held.retain(|h| h.binding.as_deref() != Some(dropped.as_str()));
                }
            }
            depth += i64::from(delta);
            held.retain(|h| h.depth <= depth);
        }
    }
    (graph, findings)
}

/// `fn NAME(..) -> … MutexGuard` on one line → `Some(NAME)`.
fn helper_signature(code: &str) -> Option<String> {
    if !code.contains("MutexGuard") || !code.contains("->") {
        return None;
    }
    let fn_pos = code.find("fn ")?;
    let rest = &code[fn_pos + 3..];
    let name: String =
        rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!name.is_empty()).then_some(name)
}

/// The lock identity behind a `.lock()` call: the last path segment
/// before it as the base, qualified by an index expression when one is
/// visible in the receiver — either directly (`shards[i].lock()` is
/// base `shards`, instance `i`) or one segment up (the sharded queue's
/// `shards[i].queue.lock()` is base `queue`, instance `i`).
fn lock_id(code: &str) -> Option<LockId> {
    let pos = code.find(".lock()")?;
    let mut chars: Vec<char> = code[..pos].chars().collect();
    // A direct index like `shards[i]` qualifies the instance.
    let mut instance = pop_index_group(&mut chars);
    let base: String = {
        let mut name: Vec<char> = Vec::new();
        while let Some(&c) = chars.last() {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                chars.pop();
            } else {
                break;
            }
        }
        name.iter().rev().collect()
    };
    if base.is_empty() {
        return None;
    }
    // `shards[i].queue.lock()`: the index one segment up still names
    // the instance of the per-shard lock.
    if instance.is_none() && chars.last() == Some(&'.') {
        chars.pop();
        instance = pop_index_group(&mut chars);
    }
    Some(LockId { base, instance })
}

/// If `chars` ends with a bracketed index group, removes it and
/// returns its contents with whitespace stripped (so `i % K` and
/// `i%K` are the same instance).
fn pop_index_group(chars: &mut Vec<char>) -> Option<String> {
    if chars.last() != Some(&']') {
        return None;
    }
    let mut depth = 0i32;
    let mut group: Vec<char> = Vec::new();
    while let Some(c) = chars.pop() {
        match c {
            ']' => {
                depth += 1;
                if depth > 1 {
                    group.push(c);
                }
            }
            '[' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                group.push(c);
            }
            c if c.is_whitespace() => {}
            c => group.push(c),
        }
    }
    Some(group.iter().rev().collect())
}

/// Does `code` call the function `name` (as `name(` with a non-ident
/// char before it)?
fn calls(code: &str, name: &str) -> bool {
    let needle = format!("{name}(");
    let mut start = 0;
    while let Some(found) = code[start..].find(&needle) {
        let at = start + found;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        // Exclude the definition site itself.
        let is_def = code[..at].trim_end().ends_with("fn");
        if before_ok && !is_def {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// `let NAME = …` / `let mut NAME = …` → `Some(NAME)`.
fn let_binding(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String =
        rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    (!name.is_empty() && name != "_").then_some(name)
}

/// `drop(NAME)` → `Some(NAME)`.
fn drop_target(code: &str) -> Option<String> {
    let pos = code.find("drop(")?;
    let rest = &code[pos + 5..];
    let name: String =
        rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    let closes = rest[name.len()..].starts_with(')');
    (!name.is_empty() && closes).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan_one(text: &str) -> (LockGraph, Vec<Finding>) {
        let file = SourceFile::parse(PathBuf::from("t.rs"), text);
        scan_locks(&[("t.rs".to_string(), file)])
    }

    #[test]
    fn nested_acquisition_makes_an_edge() {
        let (graph, _) = scan_one(
            "fn f(&self) {\n    let a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);\n    let b = self.beta.lock().unwrap_or_else(PoisonError::into_inner);\n}\n",
        );
        assert!(graph.edges.contains_key(&("alpha".to_string(), "beta".to_string())));
        assert!(graph.cycle_findings().is_empty());
    }

    #[test]
    fn opposite_orders_are_a_cycle() {
        let (graph, _) = scan_one(
            "fn f(&self) {\n    let a = self.alpha.lock().x();\n    let b = self.beta.lock().x();\n}\nfn g(&self) {\n    let b = self.beta.lock().x();\n    let a = self.alpha.lock().x();\n}\n",
        );
        let cycles = graph.cycle_findings();
        assert!(!cycles.is_empty(), "graph: {graph:?}");
    }

    #[test]
    fn drop_releases_the_guard() {
        let (graph, _) = scan_one(
            "fn f(&self) {\n    let a = self.alpha.lock().x();\n    drop(a);\n    let b = self.beta.lock().x();\n}\n",
        );
        assert!(graph.edges.is_empty(), "graph: {graph:?}");
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let (graph, _) = scan_one(
            "fn f(&self) {\n    {\n        let a = self.alpha.lock().x();\n    }\n    let b = self.beta.lock().x();\n}\n",
        );
        assert!(graph.edges.is_empty(), "graph: {graph:?}");
    }

    #[test]
    fn helper_counts_as_acquisition() {
        let (graph, _) = scan_one(
            "fn lock_faults(&self) -> MutexGuard<'_, FaultSet> {\n    self.faults.lock().unwrap_or_else(PoisonError::into_inner)\n}\nfn f(&self) {\n    let g = self.lock_faults();\n    let q = self.queue.lock().x();\n}\n",
        );
        assert!(graph.edges.contains_key(&("faults".to_string(), "queue".to_string())));
    }

    #[test]
    fn shard_index_resolves_to_an_instance_qualified_node() {
        let (graph, _) =
            scan_one("fn f(&self) {\n    let g = self.shards[i % K].lock().x();\n}\n");
        assert!(graph.nodes.contains("shards[i%K]"), "graph: {graph:?}");
    }

    #[test]
    fn per_shard_queue_field_keeps_the_instance_qualifier() {
        let (graph, _) =
            scan_one("fn f(&self) {\n    let g = self.shards[k].queue.lock().x();\n}\n");
        assert!(graph.nodes.contains("queue[k]"), "graph: {graph:?}");
    }

    #[test]
    fn steal_order_cycle_across_shard_instances_is_flagged() {
        // Worker A nests shards[a] → shards[b]; worker B nests the
        // opposite order. Before instance-aware nodes this was
        // invisible (same base name, pair dropped); now it is a cycle.
        let (graph, findings) = scan_one(
            "fn f(&self) {\n    let a = self.shards[a].lock().x();\n    let b = self.shards[b].lock().x();\n}\nfn g(&self) {\n    let b = self.shards[b].lock().x();\n    let a = self.shards[a].lock().x();\n}\n",
        );
        assert!(
            graph.edges.contains_key(&("shards[a]".to_string(), "shards[b]".to_string())),
            "graph: {graph:?}"
        );
        let cycles = graph.cycle_findings();
        assert!(!cycles.is_empty(), "graph: {graph:?}");
        // The nesting itself is also surfaced as instance-order warnings.
        assert!(findings.iter().any(|f| f.lint == "lock-instance-order"));
    }

    #[test]
    fn same_instance_reacquisition_is_a_reentry_error_not_a_cycle() {
        let (graph, findings) = scan_one(
            "fn f(&self) {\n    let a = self.shards[a].lock().x();\n    let b = self.shards[a].lock().x();\n}\n",
        );
        assert!(findings.iter().any(|f| f.lint == "lock-reentry"), "{findings:?}");
        assert!(graph.cycle_findings().is_empty(), "graph: {graph:?}");
    }

    #[test]
    fn one_direction_of_instance_nesting_is_a_warning_not_a_cycle() {
        let (graph, findings) = scan_one(
            "fn f(&self) {\n    let a = self.shards[a].lock().x();\n    let b = self.shards[b].lock().x();\n}\n",
        );
        assert!(findings.iter().any(|f| f.lint == "lock-instance-order"));
        assert!(graph.cycle_findings().is_empty(), "graph: {graph:?}");
    }

    #[test]
    fn unknown_instances_warn_without_fabricating_an_edge() {
        // Two unindexed same-base receivers: could be reentry, could be
        // ordered nesting — the scan cannot tell, so it warns and does
        // not invent a self-edge (which would read as a cycle).
        let (graph, findings) = scan_one(
            "fn f(&self) {\n    let a = left.shard.lock().x();\n    let b = right.shard.lock().x();\n}\n",
        );
        assert!(findings.iter().any(|f| f.lint == "lock-instance-order"));
        assert!(graph.edges.is_empty(), "graph: {graph:?}");
        assert!(graph.cycle_findings().is_empty());
    }

    #[test]
    fn instance_lints_respect_allow_markers() {
        let (_, findings) = scan_one(
            "fn f(&self) {\n    let a = self.shards[a].lock().x();\n    // analyze:allow(lock-instance-order): a < b by construction\n    let b = self.shards[b].lock().x();\n}\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_unwrap_is_flagged_outside_tests_only() {
        let (_, findings) = scan_one(
            "fn f(&self) {\n    let a = self.alpha.lock().unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn t(e: &E) { let a = e.alpha.lock().unwrap(); }\n}\n",
        );
        assert_eq!(findings.len(), 1, "findings: {findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn sanctioned_idiom_is_clean() {
        let (_, findings) = scan_one(
            "fn f(&self) {\n    let a = self.alpha.lock().unwrap_or_else(PoisonError::into_inner);\n}\n",
        );
        assert!(findings.is_empty(), "findings: {findings:?}");
    }
}
