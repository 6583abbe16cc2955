//! Quickstart: build a self-routing Benes network, route permutations
//! through it, and see what happens when a permutation is outside `F(n)`.
//!
//! Run with: `cargo run --example quickstart`

use benes::core::render::render_trace;
use benes::core::trace::RouteTrace;
use benes::core::{class_f, waksman, Benes, Control};
use benes::perm::bpc::Bpc;
use benes::perm::omega::cyclic_shift;
use benes::perm::Permutation;

fn main() {
    // B(3): 8 terminals, 5 stages of 4 switches, 20 switches total.
    let net = Benes::new(3);
    println!(
        "built B({}): {} terminals, {} stages, {} switches\n",
        net.n(),
        net.terminal_count(),
        net.stage_count(),
        net.switch_count()
    );

    // --- 1. A BPC permutation self-routes with zero set-up. ---
    let reversal = Bpc::bit_reversal(3);
    println!("bit reversal, A-vector {reversal}:");
    let trace =
        RouteTrace::capture(&net, &reversal.to_permutation(), Control::SelfRoute, None)
            .expect("length matches");
    println!("{}", render_trace(&trace));

    // --- 2. So does any inverse-omega permutation (Theorem 3). ---
    let shift = cyclic_shift(3, 3);
    let outcome = net.self_route(&shift);
    println!(
        "cyclic shift by 3: self-routes = {} (delay = {} stages, set-up = 0)\n",
        outcome.is_success(),
        net.transit_delay()
    );

    // --- 3. Data rides along with the tags. ---
    let words = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dogs"];
    let records: Vec<(u32, &str)> =
        shift.destinations().iter().zip(words).map(|(&d, w)| (d, w)).collect();
    let (routed, _) = net.self_route_records(records).expect("length matches");
    println!(
        "payloads after the shift: {:?}\n",
        routed.iter().map(|r| r.1).collect::<Vec<_>>()
    );

    // --- 4. Outside F(n): detection, diagnosis, and the fallbacks. ---
    let awkward = Permutation::from_destinations(vec![1, 3, 2, 0]).expect("valid");
    let net2 = Benes::new(2);
    println!("D = {awkward} on B(2):");
    println!("  in F(2)?            {}", class_f::is_in_f(&awkward));
    if let Err(v) = class_f::check_f(&awkward) {
        println!("  Theorem 1 witness:  {v}");
    }
    println!("  omega-bit routing:  {}", net2.self_route_omega(&awkward).is_success());
    let settings = waksman::setup(&awkward).expect("Waksman handles any permutation");
    let out = net2.route_with(&settings, &["a", "b", "c", "d"]).expect("valid");
    println!("  Waksman set-up:     routed {:?}", out);
}
