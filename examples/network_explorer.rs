//! Interactive-ish explorer: classify and route any permutation you type.
//!
//! Usage:
//!   cargo run --example network_explorer -- 1 3 2 0
//!   cargo run --example network_explorer -- 0 4 2 6 1 5 3 7
//!
//! With no arguments, explores a built-in gallery. For each permutation it
//! reports class memberships (BPC with recovered A-vector, Ω, Ω⁻¹, F),
//! then routes it by whichever mechanisms apply and shows the trace.

use benes::core::render::render_trace;
use benes::core::trace::RouteTrace;
use benes::core::{class_f, waksman, Benes, Control};
use benes::perm::bpc::Bpc;
use benes::perm::omega::{is_inverse_omega, is_omega};
use benes::perm::Permutation;

fn explore(d: &Permutation) {
    println!("== D = {d} ==");
    let Some(n) = d.log2_len() else {
        println!("length {} is not a power of two: no B(n) exists\n", d.len());
        return;
    };
    if n == 0 {
        println!("single terminal: nothing to route\n");
        return;
    }

    match Bpc::from_permutation(d) {
        Some(a) => println!("BPC:  yes, A-vector {a}"),
        None => println!("BPC:  no"),
    }
    println!("Ω:    {}", is_omega(d));
    println!("Ω⁻¹:  {}", is_inverse_omega(d));
    match class_f::check_f(d) {
        Ok(()) => println!("F:    yes — self-routes with zero set-up"),
        Err(v) => println!("F:    no — {v}"),
    }

    let net = Benes::new(n);
    let trace =
        RouteTrace::capture(&net, d, Control::SelfRoute, None).expect("length matches");
    println!("\nself-routing trace:");
    println!("{}", render_trace(&trace));

    if !trace.is_success() {
        if is_omega(d) {
            let omega = RouteTrace::capture(&net, d, Control::OmegaBit, None)
                .expect("length matches");
            println!("omega-bit trace (first n−1 stages forced straight):");
            println!("{}", render_trace(&omega));
        }
        let settings = waksman::setup(d).expect("power-of-two length");
        let ext = RouteTrace::capture(&net, d, Control::Settings(&settings), None)
            .expect("valid");
        println!(
            "Waksman external set-up: success = {} ({} crosses among {} switches)",
            ext.is_success(),
            settings.cross_count(),
            net.switch_count()
        );
    }
    println!();
}

fn main() {
    let args: Vec<u32> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("arguments must be destination tags (integers)"))
        .collect();

    if !args.is_empty() {
        match Permutation::from_destinations(args) {
            Ok(d) => explore(&d),
            Err(e) => eprintln!("not a permutation: {e}"),
        }
        return;
    }

    println!("no arguments given — exploring the built-in gallery\n");
    let gallery: Vec<Permutation> = vec![
        Bpc::bit_reversal(3).to_permutation(),
        benes::perm::omega::cyclic_shift(3, 3),
        Permutation::from_destinations(vec![1, 3, 2, 0]).expect("valid"),
        Permutation::from_destinations(vec![3, 0, 1, 2])
            .expect("valid")
            .then(&Permutation::from_destinations(vec![0, 1, 3, 2]).expect("valid")),
    ];
    for d in &gallery {
        explore(d);
    }
}
