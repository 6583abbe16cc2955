//! Experiment FIG5: `D = (1, 3, 2, 0)` cannot self-route on `B(2)` (paper
//! Fig. 5), although it IS an omega permutation — so the omega-bit
//! extension routes it, and Waksman external set-up routes it too.

use benes_core::class_f::check_f;
use benes_core::render::render_trace;
use benes_core::trace::RouteTrace;
use benes_core::{waksman, Benes, Control};
use benes_perm::omega::{is_inverse_omega, is_omega};
use benes_perm::Permutation;

fn main() {
    println!("== FIG5: D = (1, 3, 2, 0) on B(2) ==\n");
    let net = Benes::new(2);
    let d = Permutation::from_destinations(vec![1, 3, 2, 0]).expect("valid permutation");

    println!("-- plain self-routing (must FAIL, Fig. 5) --\n");
    let trace =
        RouteTrace::capture(&net, &d, Control::SelfRoute, None).expect("length matches");
    println!("{}", render_trace(&trace));
    assert!(!trace.is_success(), "FIG5 must reproduce: D is not in F(2)");

    let violation = check_f(&d).expect_err("Theorem 1 must reject D");
    println!("Theorem 1 witness: {violation}\n");

    println!("-- class membership --\n");
    println!("is_omega(D)         = {}", is_omega(&d));
    println!("is_inverse_omega(D) = {}", is_inverse_omega(&d));
    assert!(is_omega(&d) && !is_inverse_omega(&d));
    println!("(D ∈ Ω(2) ∖ F(2): the example §II uses to show Ω ⊄ F)\n");

    println!("-- omega-bit extension (must SUCCEED, §II after Theorem 3) --\n");
    let omega_trace =
        RouteTrace::capture(&net, &d, Control::OmegaBit, None).expect("length matches");
    println!("{}", render_trace(&omega_trace));
    assert!(omega_trace.is_success());

    println!("-- Waksman external set-up (must SUCCEED, §I) --\n");
    let settings = waksman::setup(&d).expect("Waksman handles all permutations");
    let ext_trace = RouteTrace::capture(&net, &d, Control::Settings(&settings), None)
        .expect("length matches");
    println!("{}", render_trace(&ext_trace));
    assert!(ext_trace.is_success());
    println!("reproduced: self-routing fails, omega bit and external set-up succeed.");
}
