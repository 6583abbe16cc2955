//! Pillar 3, part (a): a small exhaustive-interleaving model checker.
//!
//! The engine's run queue (`engine/queue.rs`) is the one place in the
//! workspace where correctness rests on a concurrency *protocol* — one
//! mutex, two condvars on it, and which wake each transition owes whom
//! — rather than on types. Seeded
//! tests exercise a handful of schedules; this module enumerates **all**
//! of them over an abstract model of the protocol (see [`queue`]),
//! checking request conservation, deadlock freedom and the absence of
//! lost wakeups on every reachable state of a small configuration.
//!
//! The checker itself is deliberately plain: depth-first search over the
//! interleaving graph with a seen-state set (the classic explicit-state
//! construction that DPOR-style tools refine), a state budget so tier-1
//! stays fast, and counterexample traces reconstructed from the DFS
//! path. States are small `Clone + Hash` values, transitions are
//! `(label, successor)` pairs, and a *property* inspects each newly
//! visited state together with its enabled transitions.

use std::collections::HashSet;
use std::hash::Hash;

pub mod queue;

/// A property violation found during exploration, with the full
/// interleaving that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Which property failed (`conservation`, `deadlock`, `lost-wakeup`).
    pub property: String,
    /// Human-readable transition labels from the initial state to the
    /// violating one, in schedule order.
    pub trace: Vec<String>,
    /// A rendering of the violating state plus what went wrong.
    pub detail: String,
}

impl Counterexample {
    /// The trace as one indented multi-line block for reports.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "property violated: {}\n  schedule ({} steps):\n",
            self.property,
            self.trace.len()
        );
        for (i, step) in self.trace.iter().enumerate() {
            out.push_str(&format!("    {:>2}. {step}\n", i + 1));
        }
        out.push_str(&format!("  state: {}\n", self.detail));
        out
    }
}

/// The outcome of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Distinct states visited (including the initial state).
    pub states: usize,
    /// Transitions examined (edges, including ones into already-seen
    /// states).
    pub transitions: usize,
    /// Whether the state budget stopped the search before exhaustion.
    /// A budget-clipped run proves nothing — treat it as a failure of
    /// the certification, not of the protocol.
    pub budget_exhausted: bool,
    /// The first violation found, if any.
    pub counterexample: Option<Counterexample>,
}

impl Exploration {
    /// `true` iff the full state space was explored and no property
    /// failed.
    #[must_use]
    pub fn certified(&self) -> bool {
        !self.budget_exhausted && self.counterexample.is_none()
    }
}

/// Exhaustively explores the interleaving graph from `initial`.
///
/// `successors` enumerates the enabled transitions of a state as
/// `(label, next-state)` pairs; `violation` inspects a state (with its
/// enabled transitions) and returns `Some((property, detail))` to stop
/// the search. The search visits every reachable state at most once and
/// stops early on the first violation or once `budget` distinct states
/// have been visited.
pub fn explore<S, FS, FV>(
    initial: S,
    successors: FS,
    violation: FV,
    budget: usize,
) -> Exploration
where
    S: Clone + Eq + Hash,
    FS: Fn(&S) -> Vec<(String, S)>,
    FV: Fn(&S, &[(String, S)]) -> Option<(String, String)>,
{
    struct Frame<S> {
        succs: Vec<(String, S)>,
        next: usize,
        labeled: bool,
    }

    let mut seen: HashSet<S> = HashSet::new();
    seen.insert(initial.clone());
    let mut states = 1usize;
    let mut transitions = 0usize;
    let mut path: Vec<String> = Vec::new();

    let root_succs = successors(&initial);
    if let Some((property, detail)) = violation(&initial, &root_succs) {
        return Exploration {
            states,
            transitions,
            budget_exhausted: false,
            counterexample: Some(Counterexample { property, trace: path, detail }),
        };
    }
    let mut stack: Vec<Frame<S>> =
        vec![Frame { succs: root_succs, next: 0, labeled: false }];
    let mut budget_exhausted = false;
    let mut counterexample = None;

    while let Some(top) = stack.last_mut() {
        if top.next >= top.succs.len() {
            let frame = stack.pop().expect("stack non-empty");
            if frame.labeled {
                path.pop();
            }
            continue;
        }
        let (label, child) = top.succs[top.next].clone();
        top.next += 1;
        transitions += 1;
        if !seen.insert(child.clone()) {
            continue;
        }
        states += 1;
        if states > budget {
            budget_exhausted = true;
            break;
        }
        let child_succs = successors(&child);
        path.push(label);
        if let Some((property, detail)) = violation(&child, &child_succs) {
            counterexample = Some(Counterexample { property, trace: path.clone(), detail });
            break;
        }
        stack.push(Frame { succs: child_succs, next: 0, labeled: true });
    }

    Exploration { states, transitions, budget_exhausted, counterexample }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-counter toy: each of two "threads" increments a shared
    /// counter twice. 9 distinct states, no violation.
    #[test]
    fn explores_the_full_product_graph() {
        let result = explore(
            (0u8, 0u8),
            |&(a, b)| {
                let mut out = Vec::new();
                if a < 2 {
                    out.push((format!("A: {a}->{}", a + 1), (a + 1, b)));
                }
                if b < 2 {
                    out.push((format!("B: {b}->{}", b + 1), (a, b + 1)));
                }
                out
            },
            |_, _| None,
            1_000,
        );
        assert!(result.certified());
        assert_eq!(result.states, 9);
    }

    #[test]
    fn reports_a_trace_to_the_violation() {
        // Violation when both counters hit 2: the trace must be 4 steps.
        let result = explore(
            (0u8, 0u8),
            |&(a, b)| {
                let mut out = Vec::new();
                if a < 2 {
                    out.push(("A".to_string(), (a + 1, b)));
                }
                if b < 2 {
                    out.push(("B".to_string(), (a, b + 1)));
                }
                out
            },
            |&(a, b), _| {
                (a == 2 && b == 2)
                    .then(|| ("both-maxed".to_string(), format!("a={a} b={b}")))
            },
            1_000,
        );
        let cex = result.counterexample.expect("must find the violation");
        assert_eq!(cex.property, "both-maxed");
        assert_eq!(cex.trace.len(), 4);
        assert!(cex.render().contains("both-maxed"));
    }

    #[test]
    fn budget_stops_the_search() {
        let result = explore(0u64, |&s| vec![("tick".to_string(), s + 1)], |_, _| None, 10);
        assert!(result.budget_exhausted);
        assert!(!result.certified());
    }
}
