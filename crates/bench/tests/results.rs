//! The committed paper-reproduction outputs stay reproducible.
//!
//! Every deterministic experiment binary is run with its default
//! arguments and its stdout must equal `results/<bin>.txt` byte for
//! byte. Binaries that print wall-clock timings (`fault_tolerance`,
//! `engine_throughput`, `word_kernel`, …) are left out: their files are
//! host measurements, not reproductions.

use std::path::Path;
use std::process::Command;

/// `(binary name, path to the built binary)` for each deterministic
/// experiment.
const BINS: [(&str, &str); 12] = [
    ("fig1_topology", env!("CARGO_BIN_EXE_fig1_topology")),
    ("fig4_bit_reversal", env!("CARGO_BIN_EXE_fig4_bit_reversal")),
    ("fig5_failure", env!("CARGO_BIN_EXE_fig5_failure")),
    ("fig6_ccc_trace", env!("CARGO_BIN_EXE_fig6_ccc_trace")),
    ("table1_bpc", env!("CARGO_BIN_EXE_table1_bpc")),
    ("route_counts", env!("CARGO_BIN_EXE_route_counts")),
    ("class_census", env!("CARGO_BIN_EXE_class_census")),
    ("composite_theorems", env!("CARGO_BIN_EXE_composite_theorems")),
    ("gate_model", env!("CARGO_BIN_EXE_gate_model")),
    ("cost_table", env!("CARGO_BIN_EXE_cost_table")),
    ("setup_costs", env!("CARGO_BIN_EXE_setup_costs")),
    ("pipeline_throughput", env!("CARGO_BIN_EXE_pipeline_throughput")),
];

#[test]
fn experiment_outputs_match_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut drifted = Vec::new();
    for (name, exe) in BINS {
        let out = Command::new(exe).output().expect("experiment binary runs");
        assert!(out.status.success(), "{name} exited {}", out.status);
        let committed = std::fs::read(results.join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("results/{name}.txt: {e}"));
        if out.stdout != committed {
            drifted.push(name);
        }
    }
    assert!(drifted.is_empty(), "stdout differs from results/<bin>.txt for {drifted:?}");
}
