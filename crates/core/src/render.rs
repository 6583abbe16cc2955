//! Text rendering of the network structure (Fig. 1) and of route traces
//! (Figs. 4 and 5).
//!
//! The renderings are deliberately plain ASCII so they can be embedded in
//! experiment logs and diffed in tests.

use crate::network::Benes;
use crate::trace::RouteTrace;

/// Renders the recursive structure of `B(n)` in the style of Fig. 1: one
/// column per stage, each listing its switches and the control bit used by
/// the self-routing rule, plus the inter-stage wiring tables.
///
/// # Examples
///
/// ```
/// use benes_core::{Benes, render::render_structure};
/// let text = render_structure(&Benes::new(2));
/// assert!(text.contains("B(2): 4 terminals, 3 stages, 6 switches"));
/// ```
#[must_use]
pub fn render_structure(net: &Benes) -> String {
    let mut out = String::new();
    let n = net.n();
    out.push_str(&format!(
        "B({n}): {} terminals, {} stages, {} switches\n",
        net.terminal_count(),
        net.stage_count(),
        net.switch_count()
    ));
    out.push_str(&format!(
        "self-routing control bits by stage: {:?}\n",
        (0..net.stage_count()).map(|s| net.control_bit(s)).collect::<Vec<_>>()
    ));
    for s in 0..net.stage_count() {
        out.push_str(&format!(
            "stage {s:>2} (bit {}): switches 0..{}\n",
            net.control_bit(s),
            net.switches_per_stage()
        ));
        if s < net.stage_count() - 1 {
            out.push_str("  wiring to next stage: ");
            let link = net.link(s);
            for (p, &q) in link.iter().enumerate() {
                if p > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{p}→{q}"));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a route trace in the style of the paper's Fig. 4: for every
/// stage, each switch with the binary destination tags on its two inputs
/// and the state it assumed (`=` straight, `x` cross), then the output
/// tags.
///
/// # Examples
///
/// ```
/// use benes_core::{Benes, Control, render::render_trace, trace::RouteTrace};
/// use benes_perm::bpc::Bpc;
///
/// let net = Benes::new(3);
/// let perm = Bpc::bit_reversal(3).to_permutation();
/// let trace = RouteTrace::capture(&net, &perm, Control::SelfRoute, None).unwrap();
/// let text = render_trace(&trace);
/// assert!(text.contains("stage 0"));
/// assert!(text.contains("SUCCESS"));
/// ```
#[must_use]
pub fn render_trace(trace: &RouteTrace) -> String {
    let n = trace.n();
    let width = n as usize;
    let mut out = String::new();
    out.push_str(&format!("route trace on B({n}) [{:?}]\n", trace.mode()));
    let stages = trace.settings().stage_count();
    for s in 0..stages {
        out.push_str(&format!("stage {s} (bit {}):", s.min(stages - 1 - s)));
        let inputs = trace.stage_input(s);
        for (i, &state) in trace.settings().stage(s).iter().enumerate() {
            out.push_str(&format!(
                "  [{:0w$b},{:0w$b}]{}",
                inputs[2 * i],
                inputs[2 * i + 1],
                state,
                w = width
            ));
        }
        out.push('\n');
    }
    out.push_str("outputs:");
    for &t in trace.outputs() {
        out.push_str(&format!(" {t:0w$b}", w = width));
    }
    out.push('\n');
    if trace.is_success() {
        out.push_str("SUCCESS: every tag reached its named output\n");
    } else {
        out.push_str(&format!("FAILURE: misrouted outputs {:?}\n", trace.misrouted()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Control;
    use benes_perm::bpc::Bpc;
    use benes_perm::Permutation;

    #[test]
    fn structure_lists_every_stage() {
        let net = Benes::new(3);
        let text = render_structure(&net);
        for s in 0..5 {
            assert!(text.contains(&format!("stage  {s}")), "missing stage {s}:\n{text}");
        }
        assert!(text.contains("control bits by stage: [0, 1, 2, 1, 0]"));
    }

    #[test]
    fn trace_render_shows_fig4_success() {
        let net = Benes::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        let trace = RouteTrace::capture(&net, &perm, Control::SelfRoute, None).unwrap();
        let text = render_trace(&trace);
        assert!(text.contains("SUCCESS"));
        // First switch of stage 0 carries tags 000 and 100.
        assert!(text.contains("[000,100]"));
    }

    #[test]
    fn trace_render_shows_fig5_failure() {
        let net = Benes::new(2);
        let d = Permutation::from_destinations(vec![1, 3, 2, 0]).unwrap();
        let trace = RouteTrace::capture(&net, &d, Control::SelfRoute, None).unwrap();
        let text = render_trace(&trace);
        assert!(text.contains("FAILURE"));
        assert!(text.contains("(0, 2)"));
    }
}
