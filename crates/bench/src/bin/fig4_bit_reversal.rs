//! Experiment FIG4: bit reversal self-routes on `B(3)` (paper Fig. 4).
//!
//! Reproduces the figure exactly: destination tags in binary on every
//! switch input at every stage, the state each switch sets itself to, and
//! the sorted output tags.

use benes_core::render::render_trace;
use benes_core::trace::RouteTrace;
use benes_core::{Benes, Control};
use benes_perm::bpc::Bpc;

fn main() {
    println!("== FIG4: bit reversal on B(3) under self-routing ==\n");
    let net = Benes::new(3);
    let bpc = Bpc::bit_reversal(3);
    let perm = bpc.to_permutation();
    println!("permutation: bit reversal, BPC A-vector {bpc} (Table I)");
    println!("destination tags D = {perm}\n");

    let trace = RouteTrace::capture(&net, &perm, Control::SelfRoute, None)
        .expect("permutation length matches B(3)");
    println!("{}", render_trace(&trace));

    assert!(trace.is_success(), "FIG4 must reproduce: bit reversal is in F(3)");
    println!("reproduced: input i reaches output reverse(i) with zero set-up steps;");
    println!("total delay = {} switch stages (2·log N − 1).", net.transit_delay());
}
