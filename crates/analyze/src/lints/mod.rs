//! Pillar 2: offline workspace lints over the repository's own source.
//!
//! Everything here reads `.rs` files straight off disk — no rustc, no
//! cargo metadata, no new dependencies — and enforces invariants that
//! the type system cannot: lock-acquisition ordering across the
//! multi-threaded engine, instance-aware so per-shard mutexes are
//! distinct nodes ([`locks`]), poison-handling discipline ([`locks`]),
//! condvar parks outside a predicate re-check loop ([`condvar`]),
//! relaxed atomic read-modify-writes whose results feed control
//! decisions ([`atomics`]), silently-truncating index casts in routing
//! hot paths ([`casts`]), silently-discarded `Result`s in engine
//! job paths ([`results`]), and sleeps or short socket read timeouts
//! on the wire path ([`sleep`]). The shared lexer lives in [`source`].
//!
//! Exemptions are explicit and greppable: a flagged line is sanctioned
//! by an `// analyze:allow(<lint>): <reason>` comment on the same line
//! or directly above, so every suppression documents its own bound.

pub mod atomics;
pub mod casts;
pub mod condvar;
pub mod locks;
pub mod results;
pub mod sleep;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

use crate::report::Finding;
use locks::LockGraph;
use source::SourceFile;

/// Net brace delta of a stripped code line (`{` minus `}`).
pub(crate) fn source_brace_delta(code: &str) -> i32 {
    let mut delta = 0;
    for c in code.chars() {
        match c {
            '{' => delta += 1,
            '}' => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// Files covered by the lock and discarded-result lints: the whole
/// multi-threaded engine, and the wire server whose shard locks nest
/// the outbox locks and whose completions run on engine workers.
const LOCK_SCOPE: &[&str] = &["crates/engine/src", "crates/serve/src"];

/// Files covered by the truncating-cast lint: the routing hot paths.
const CAST_SCOPE: &[&str] = &[
    "crates/core/src/network.rs",
    "crates/core/src/selfroute.rs",
    "crates/core/src/topology.rs",
    "crates/core/src/faults.rs",
    "crates/core/src/waksman.rs",
    "crates/engine/src",
];

/// Files covered by the sleep-poll lint: the wire path, where every
/// thread must block on the event it waits for.
const SLEEP_SCOPE: &[&str] = &["crates/serve/src", "crates/shard/src"];

/// Collects `.rs` files for a scope entry (a file, or a directory
/// scanned one level deep), as `(display, absolute)` pairs.
fn collect(root: &Path, entry: &str) -> io::Result<Vec<(String, PathBuf)>> {
    let abs = root.join(entry);
    let mut out = Vec::new();
    if abs.is_dir() {
        let mut names: Vec<_> = std::fs::read_dir(&abs)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .collect();
        names.sort();
        for path in names {
            let file = path.file_name().and_then(|f| f.to_str()).unwrap_or("?");
            out.push((format!("{entry}/{file}"), path));
        }
    } else if abs.is_file() {
        out.push((entry.to_string(), abs));
    }
    Ok(out)
}

/// Runs every workspace lint from the repository root. Returns the
/// findings plus the lock-acquisition graph (reported even when clean,
/// so the CLI can show what was proven).
///
/// # Errors
///
/// Propagates I/O errors from reading source files; a missing scope
/// entry is not an error (the repo may grow or shrink).
pub fn lint_workspace(root: &Path) -> io::Result<(Vec<Finding>, LockGraph)> {
    let mut findings = Vec::new();

    let mut lock_files = Vec::new();
    for entry in LOCK_SCOPE {
        for (display, path) in collect(root, entry)? {
            lock_files.push((display, SourceFile::load(&path)?));
        }
    }
    let (graph, lock_findings) = locks::scan_locks(&lock_files);
    findings.extend(lock_findings);
    findings.extend(graph.cycle_findings());
    for (display, file) in &lock_files {
        findings.extend(results::scan_discards(display, file));
        findings.extend(condvar::scan_condvar_waits(display, file));
        findings.extend(atomics::scan_relaxed_control(display, file));
    }

    for entry in CAST_SCOPE {
        for (display, path) in collect(root, entry)? {
            let file = SourceFile::load(&path)?;
            findings.extend(casts::scan_casts(&display, &file));
        }
    }

    for entry in SLEEP_SCOPE {
        for (display, path) in collect(root, entry)? {
            let file = SourceFile::load(&path)?;
            findings.extend(sleep::scan_sleep_polls(&display, &file));
        }
    }
    Ok((findings, graph))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shipped tree must lint clean: every remaining narrow cast
    /// and discard carries a justification marker, the engine holds no
    /// two locks in conflicting orders, and poison recovery goes
    /// through the sanctioned helper idiom.
    #[test]
    fn shipped_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (findings, graph) = lint_workspace(&root).expect("workspace readable");
        assert!(findings.is_empty(), "workspace findings:\n{findings:#?}");
        // The engine's locks exist and are seen by the analysis.
        assert!(graph.nodes.contains("queue"), "graph: {graph:?}");
        assert!(graph.nodes.contains("faults"), "graph: {graph:?}");
    }
}
