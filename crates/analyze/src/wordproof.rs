//! Pillar 3, part (b): a symbolic proof that the word-parallel routing
//! kernels equal the scalar oracle — for **every** input and **every**
//! fault configuration, with zero sampled inputs.
//!
//! [`crate::plancheck`] proves facts about individual plans; this module
//! proves a fact about the *kernels themselves*: `core/word.rs`'s
//! bit-sliced `route` computes, stage for stage, the same function as the
//! scalar `propagate` walk in `core/network.rs`/`core/trace.rs`, for all
//! orders `n ≤ 8`, for all three `Control` modes — the plain and the
//! omega-bit self-routing rule and the replay of commanded control
//! columns (the Settings tier) — with the full `((cw & !stuck) | stuck_cross) ^ dead`
//! fault overlay kept symbolic per switch.
//!
//! # Method: stage-cut combinational equivalence
//!
//! The proof walks the network one stage at a time. At each stage
//! boundary it introduces a fresh symbolic variable for every (flattened
//! position, tag bit) pair — the *cut* — plus two symbolic fault bits per
//! switch, then builds two independent formulas over those variables:
//!
//! * the **word side** transcribes `word::route`'s column step literally:
//!   cross-mask read from plane `δ(s)` under `delta_mask`/word-parity
//!   selection (or, for commanded columns, one symbolic control variable
//!   per switch at the flattened position `topology::flat_port` gives
//!   it, which is where `SwitchSettings` stores its bit), symbolic fault
//!   overlay at flattened upper positions, and
//!   the `t = (x ^ (x >> d)) & m; x ^ t ^ (t << d)` delta-swap shape
//!   (= `benes_bits::delta_swap_spec`, pinned to the shipped primitive by
//!   `benes-bits`' own tests) or the cross-word pair XOR-swap for
//!   `δ(s) ≥ 6`;
//! * the **scalar side** transcribes `propagate`: per switch, commanded
//!   state from the upper tag's control bit (forced straight in the omega
//!   prefix; the switch's own control variable under `route_with`),
//!   `FaultKind::effective` as a mux tree over the same fault bits, then
//!   a conditional exchange of the paired tags.
//!
//! The two sides are compared bit-for-bit at the stage output through the
//! physical→flattened correspondence `p2f`, whose structure (stage `s`
//! pairs flattened positions differing in bit `δ(s)`, upper = bit clear;
//! all links compose to the identity) is itself re-verified here from
//! `Benes::link`, and so is the closed-form `topology::flat_port` the
//! word kernel and `SwitchSettings` use in its place — the proof does
//! not *assume* the flattening claim, it checks it. Per-stage equality
//! of the two transition functions composes inductively into end-to-end
//! equality, and because each compared formula depends on at most 5
//! variables, [`crate::sym`]'s canonical truth tables decide each
//! equivalence exactly.
//!
//! # What is and is not covered
//!
//! Covered: every tag assignment (a superset of permutations — the planes
//! are unconstrained), every commanded switch assignment, every fault
//! configuration of every switch
//! (healthy, stuck-straight, stuck-cross, dead — the two symbolic fault
//! bits enumerate exactly these four), both kernels' forced-straight
//! omega prefix, and the fault-even-in-forced-stages behaviour. The
//! kernel's healthy-stage fast paths (skipping the overlay or a whole
//! forced column) are the all-healthy specialization of the proven
//! general path, under which the overlay is the identity. Not covered
//! symbolically: `pack`/`outputs` (byte-gather I/O conversion, pinned by
//! exhaustive unit tests in `core/word.rs`) and the drift between this
//! transcription and the shipped source — the latter is pinned by replay
//! tests below that step concrete inputs through the symbolic stage
//! functions and compare against the real kernel's public API.

use benes_core::network::Benes;
use benes_core::topology;

use crate::report::{Finding, Pillar};
use crate::sym::{Sym, SymVar};

/// The word-kernel variant a proof covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordKernel {
    /// `word::route` under `Control::SelfRoute`: columns from the Fig. 3
    /// tag rule.
    SelfRoute,
    /// `word::route` under `Control::OmegaBit`: the tag rule with stages
    /// `0..n−1` forced straight.
    OmegaBit,
    /// `word::route` under `Control::Settings`: the commanded control
    /// columns of a `SwitchSettings`, against `Benes::route_with`.
    Commanded,
}

impl WordKernel {
    /// Every variant, in proof order.
    pub const ALL: [WordKernel; 3] = [Self::SelfRoute, Self::OmegaBit, Self::Commanded];

    /// A short stable name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SelfRoute => "self-route",
            Self::OmegaBit => "omega-bit",
            Self::Commanded => "commanded-columns",
        }
    }
}

/// A successful certification of one kernel variant at one order.
#[derive(Debug, Clone)]
pub struct WordCertificate {
    /// Network order.
    pub n: u32,
    /// The kernel variant proven.
    pub kernel: WordKernel,
    /// Stages walked (`2n − 1`).
    pub stages: usize,
    /// Per-bit equivalence checks decided (each over all assignments of
    /// its support).
    pub checks: usize,
}

/// A divergence between the two kernels found by the prover.
#[derive(Debug, Clone)]
pub struct WordDivergence {
    /// Network order.
    pub n: u32,
    /// The kernel variant that diverged.
    pub kernel: WordKernel,
    /// Stage at which the formulas differ.
    pub stage: usize,
    /// What differs, with a distinguishing assignment when applicable.
    pub detail: String,
}

/// One symbolic bit plane: `words` symbolic 64-bit words.
type SymPlane = Vec<Vec<Sym>>;

fn word_count(size: usize) -> usize {
    size.div_ceil(64)
}

/// `p2f` advanced across one inter-stage link (the element at output
/// port `p` arrives at input port `link[p]`).
fn advance(p2f: &[usize], link: &[u32]) -> Vec<usize> {
    let mut next = vec![0usize; p2f.len()];
    for (p, &f) in p2f.iter().enumerate() {
        next[link[p] as usize] = f;
    }
    next
}

fn control_bit(stage: usize, switch: usize) -> Sym {
    Sym::var(SymVar::Control { stage: stage as u8, switch: switch as u16 })
}

fn fault_bits(stage: usize, switch: usize) -> (Sym, Sym) {
    let a = Sym::var(SymVar::Fault { stage: stage as u8, switch: switch as u16, which: 0 });
    let b = Sym::var(SymVar::Fault { stage: stage as u8, switch: switch as u16, which: 1 });
    (a, b)
}

/// The word kernel's fault overlay applied to a commanded cross bit:
/// `((cw & !stuck) | stuck_cross) ^ dead` with `stuck = a`,
/// `stuck_cross = a ∧ b`, `dead = ¬a ∧ b`.
fn word_overlay(cw: &Sym, a: &Sym, b: &Sym) -> Sym {
    let stuck = a;
    let stuck_cross = a.and(b);
    let dead = a.not().and(b);
    cw.and(&stuck.not()).or(&stuck_cross).xor(&dead)
}

/// The scalar `FaultKind::effective` as a mux tree over the same fault
/// encoding: healthy → commanded, stuck-straight → straight, stuck-cross
/// → cross, dead → toggled.
fn scalar_effective(commanded: &Sym, a: &Sym, b: &Sym) -> Sym {
    a.mux(&b.mux(&Sym::truth(), &Sym::falsehood()), &b.mux(&commanded.not(), commanded))
}

/// The literal symbolic transcription of `benes_bits::delta_swap`:
/// `t = (x ^ (x >> shift)) & m; x ^ t ^ (t << shift)`, per bit.
fn sym_delta_swap(x: &[Sym], m: &[Sym], shift: usize) -> Vec<Sym> {
    let f = Sym::falsehood();
    let t: Vec<Sym> = (0..64)
        .map(|i| {
            let shifted = if i + shift < 64 { &x[i + shift] } else { &f };
            x[i].xor(shifted).and(&m[i])
        })
        .collect();
    (0..64)
        .map(|i| {
            let carried = if i >= shift { &t[i - shift] } else { &f };
            x[i].xor(&t[i]).xor(carried)
        })
        .collect()
}

/// One symbolic stage of `word::route` over fresh cut variables:
/// `planes[b][w][i]` of the stage output, controls and faults symbolic.
fn word_stage(n: u32, stage: usize, kernel: WordKernel) -> Vec<SymPlane> {
    let size = 1usize << n;
    let words = word_count(size);
    let c = topology::control_bit(n, stage);
    let forced = kernel == WordKernel::OmegaBit && stage < n as usize - 1;

    let mut planes: Vec<SymPlane> = (0..n)
        .map(|b| {
            (0..words)
                .map(|w| {
                    (0..64)
                        .map(|i| {
                            let pos = (w << 6) | i;
                            if pos < size {
                                Sym::var(SymVar::Data { flat: pos as u16, bit: b as u8 })
                            } else {
                                Sym::falsehood()
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect();

    // Commanded cross mask: the settings' column, one control variable
    // per switch at its `flat_port` position, or plane δ(s), exactly as
    // `route` reads it.
    let mut cross: SymPlane = vec![vec![Sym::falsehood(); 64]; words];
    if kernel == WordKernel::Commanded {
        for i in 0..size / 2 {
            let u = topology::flat_port(n, stage, 2 * i);
            cross[u >> 6][u & 63] = control_bit(stage, i);
        }
    } else if !forced {
        if c < 6 {
            let m = benes_bits::delta_mask(c);
            for w in 0..words {
                for i in 0..64 {
                    if (m >> i) & 1 == 1 {
                        cross[w][i] = planes[c as usize][w][i];
                    }
                }
            }
        } else {
            for w in 0..words {
                if (w >> (c - 6)) & 1 == 0 {
                    cross[w] = planes[c as usize][w].clone();
                }
            }
        }
    }

    // Symbolic fault overlay at flattened upper positions (the symbolic
    // form of `fault_masks` + the overlay line in `route`).
    for i in 0..size / 2 {
        let u = topology::flat_port(n, stage, 2 * i);
        let (w, bit) = (u >> 6, u & 63);
        let (a, b) = fault_bits(stage, i);
        cross[w][bit] = word_overlay(&cross[w][bit], &a, &b);
    }

    // Apply the column to every plane.
    if c < 6 {
        let shift = 1usize << c;
        for plane in &mut planes {
            for (w, word) in plane.iter_mut().enumerate() {
                *word = sym_delta_swap(word, &cross[w], shift);
            }
        }
    } else {
        let half = 1usize << (c - 6);
        for plane in &mut planes {
            for wa in 0..words {
                if (wa >> (c - 6)) & 1 == 0 {
                    let wb = wa + half;
                    for i in 0..64 {
                        let t = plane[wa][i].xor(&plane[wb][i]).and(&cross[wa][i]);
                        plane[wa][i] = plane[wa][i].xor(&t);
                        plane[wb][i] = plane[wb][i].xor(&t);
                    }
                }
            }
        }
    }
    planes
}

/// One symbolic stage of the scalar `propagate` walk (switch column
/// only; the trailing link is pure renaming handled via `p2f`):
/// `out[port][bit]` over the same cut variables, reading the tag at
/// physical port `p` as the cut variables of flattened position
/// `p2f[p]`.
fn scalar_stage(n: u32, stage: usize, kernel: WordKernel, p2f: &[usize]) -> Vec<Vec<Sym>> {
    let size = 1usize << n;
    let c = topology::control_bit(n, stage) as usize;
    let forced = kernel == WordKernel::OmegaBit && stage < n as usize - 1;
    let tag =
        |p: usize, b: usize| Sym::var(SymVar::Data { flat: p2f[p] as u16, bit: b as u8 });
    let mut out = vec![vec![Sym::falsehood(); n as usize]; size];
    for i in 0..size / 2 {
        let commanded = match kernel {
            WordKernel::Commanded => control_bit(stage, i),
            _ if forced => Sym::falsehood(),
            _ => tag(2 * i, c),
        };
        let (a, b) = fault_bits(stage, i);
        let cross = scalar_effective(&commanded, &a, &b);
        for bit in 0..n as usize {
            let upper = tag(2 * i, bit);
            let lower = tag(2 * i + 1, bit);
            out[2 * i][bit] = cross.mux(&lower, &upper);
            out[2 * i + 1][bit] = cross.mux(&upper, &lower);
        }
    }
    out
}

/// Proves `word::route` ≡ scalar `propagate` for one order and kernel
/// variant, or returns the first divergence with a witness.
///
/// # Errors
///
/// [`WordDivergence`] describing the stage, position and distinguishing
/// assignment at which the two kernels compute different functions.
///
/// # Panics
///
/// Panics if `n` is outside `1..=8` (the exhaustive-proof range).
pub fn prove_word_kernel(
    n: u32,
    kernel: WordKernel,
) -> Result<WordCertificate, WordDivergence> {
    assert!((1..=8).contains(&n), "the symbolic proof range is n in 1..=8");
    let net = Benes::new(n);
    let size = 1usize << n;
    let stages = 2 * n as usize - 1;
    let mut p2f: Vec<usize> = (0..size).collect();
    let mut checks = 0usize;
    let diverge =
        |stage: usize, detail: String| WordDivergence { n, kernel, stage, detail };

    for s in 0..stages {
        let c = topology::control_bit(n, s);
        // Structural claim first: stage s pairs flattened coordinates
        // differing in exactly bit δ(s), physical upper = bit clear, and
        // the closed-form map is the link-derived one.
        for i in 0..size / 2 {
            let u = p2f[2 * i];
            if u >> c & 1 != 0 || p2f[2 * i + 1] != u | (1 << c) {
                return Err(diverge(
                    s,
                    format!(
                        "flattening violated at switch {i}: ports map to {} / {}, expected bit-{c} pair",
                        p2f[2 * i],
                        p2f[2 * i + 1]
                    ),
                ));
            }
        }
        if let Some(p) = (0..size).find(|&p| topology::flat_port(n, s, p) != p2f[p]) {
            return Err(diverge(
                s,
                format!(
                    "closed-form map sends port {p} to {}, the links to {}",
                    topology::flat_port(n, s, p),
                    p2f[p]
                ),
            ));
        }

        let word_out = word_stage(n, s, kernel);
        let scalar_out = scalar_stage(n, s, kernel, &p2f);
        for p in 0..size {
            let flat = p2f[p];
            let (w, i) = (flat >> 6, flat & 63);
            for b in 0..n as usize {
                let wf = &word_out[b][w][i];
                let sf = &scalar_out[p][b];
                checks += 1;
                if !wf.equiv(sf) {
                    let witness = wf
                        .counterexample(sf)
                        .map(|cex| {
                            cex.iter()
                                .map(|(v, x)| format!("{v:?}={}", u8::from(*x)))
                                .collect::<Vec<_>>()
                                .join(", ")
                        })
                        .unwrap_or_else(|| "supports differ".to_string());
                    return Err(diverge(
                        s,
                        format!(
                            "port {p} (flattened {flat}) bit {b}: word computes {wf}, scalar computes {sf}; distinguishing assignment: {witness}"
                        ),
                    ));
                }
            }
        }
        if s + 1 < stages {
            p2f = advance(&p2f, net.link(s));
        }
    }

    // The links must compose to the identity, so the final flattened
    // coordinates are the physical output terminals.
    if p2f != (0..size).collect::<Vec<_>>() {
        return Err(diverge(
            stages - 1,
            "links do not compose to the identity".to_string(),
        ));
    }

    Ok(WordCertificate { n, kernel, stages, checks })
}

/// Runs the full proof matrix (`n = 1..=max_n`, every [`WordKernel`]),
/// returning findings for any divergence plus the certificates earned.
#[must_use]
pub fn prove_all(max_n: u32) -> (Vec<Finding>, Vec<WordCertificate>) {
    let mut findings = Vec::new();
    let mut certs = Vec::new();
    for n in 1..=max_n {
        for kernel in WordKernel::ALL {
            match prove_word_kernel(n, kernel) {
                Ok(cert) => certs.push(cert),
                Err(div) => findings.push(Finding::error(
                    Pillar::Model,
                    "word-scalar-divergence",
                    format!("B({n}) {} kernel stage {}", kernel.name(), div.stage),
                    0,
                    div.detail,
                )),
            }
        }
    }
    (findings, certs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_core::faults::{FaultKind, FaultSet};
    use benes_core::trace::RouteTrace;
    use benes_core::{waksman, word, Control, SwitchState};
    use benes_perm::Permutation;

    /// The tentpole acceptance check: word ≡ scalar for every n ≤ 8,
    /// both variants, all inputs, all fault configurations — decided by
    /// abstract evaluation, no sampled inputs anywhere in the proof.
    #[test]
    fn word_kernels_equal_the_scalar_oracle_for_all_orders_up_to_8() {
        let (findings, certs) = prove_all(8);
        assert!(
            findings.is_empty(),
            "kernel divergence: {}",
            findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
        assert_eq!(certs.len(), 24);
        // B(8): 15 stages × 256 positions × 8 bits each way, per kernel.
        for kernel in WordKernel::ALL {
            let b8 = certs.iter().find(|c| c.n == 8 && c.kernel == kernel).unwrap();
            assert_eq!(b8.checks, 15 * 256 * 8, "{}", kernel.name());
        }
    }

    /// The fault-encoding lemma in isolation: the word overlay formula
    /// and the scalar mux tree are the same function of (commanded, a, b).
    #[test]
    fn fault_overlay_formulas_agree() {
        let c = Sym::var(SymVar::Data { flat: 0, bit: 0 });
        let (a, b) = fault_bits(0, 0);
        assert!(word_overlay(&c, &a, &b).equiv(&scalar_effective(&c, &a, &b)));
    }

    /// Tamper detection: a deliberately wrong word-side overlay (dead
    /// treated as stuck-cross) must be caught with a witness.
    #[test]
    fn prover_distinguishes_a_wrong_overlay() {
        let c = Sym::var(SymVar::Data { flat: 0, bit: 0 });
        let (a, b) = fault_bits(0, 0);
        let dead = a.not().and(&b);
        let wrong = c.and(&a.not()).or(&a.and(&b)).or(&dead); // OR instead of XOR
        let right = scalar_effective(&c, &a, &b);
        let cex = wrong.counterexample(&right).expect("must differ");
        // Differs exactly when the switch is dead and commanded is cross.
        let assign =
            |v: SymVar| cex.iter().find(|(w, _)| *w == v).map(|(_, x)| *x).unwrap_or(false);
        assert_ne!(wrong.eval(assign), right.eval(assign));
    }

    /// Drift guard: step concrete inputs through the *symbolic* stage
    /// functions and compare end-to-end against the real kernel's public
    /// API. Sampling is fine here — this test checks that the proof
    /// object describes the shipped code, not that the kernels agree
    /// (the proof itself settled that).
    #[test]
    fn symbolic_transcription_replays_the_real_kernel() {
        use WordKernel::{Commanded, OmegaBit, SelfRoute};
        for (n, kernel) in [
            (3u32, SelfRoute),
            (3, OmegaBit),
            (3, Commanded),
            (7, SelfRoute),
            (8, OmegaBit),
            (8, Commanded),
        ] {
            let net = Benes::new(n);
            let size = 1usize << n;
            let d = lcg_perm(n, 0xd1f7 ^ u64::from(n));
            let settings = waksman::setup(&lcg_perm(n, 0x5e77)).unwrap();
            let mut fs = FaultSet::new(n);
            fs.insert(0, 0, FaultKind::Dead).unwrap();
            fs.insert(1, size / 4, FaultKind::StuckCross).unwrap();
            fs.insert(2 * n as usize - 2, size / 2 - 1, FaultKind::StuckStraight).unwrap();

            // Concrete planes in flattened coordinates, as `pack` lays
            // them out: bit b of the tag at position p.
            let mut tags: Vec<u32> = d.destinations().to_vec();
            let stages = 2 * n as usize - 1;
            for s in 0..stages {
                let word_out = word_stage(n, s, kernel);
                let assign = |v: SymVar| match v {
                    SymVar::Data { flat, bit } => (tags[flat as usize] >> bit) & 1 == 1,
                    SymVar::Control { stage, switch } => {
                        settings.get(stage as usize, switch as usize) == SwitchState::Cross
                    }
                    SymVar::Fault { stage, switch, which } => {
                        let kind = fs.get(stage as usize, switch as usize);
                        let (a, b) = match kind {
                            None => (false, false),
                            Some(FaultKind::StuckStraight) => (true, false),
                            Some(FaultKind::StuckCross) => (true, true),
                            Some(FaultKind::Dead) => (false, true),
                        };
                        if which == 0 {
                            a
                        } else {
                            b
                        }
                    }
                };
                let mut next = vec![0u32; size];
                for (flat, slot) in next.iter_mut().enumerate() {
                    let (w, i) = (flat >> 6, flat & 63);
                    for (b, plane) in word_out.iter().enumerate() {
                        if plane[w][i].eval(assign) {
                            *slot |= 1 << b;
                        }
                    }
                }
                tags = next;
            }

            let control = match kernel {
                SelfRoute => Control::SelfRoute,
                OmegaBit => Control::OmegaBit,
                Commanded => Control::Settings(&settings),
            };
            let real = word::route(n, &d, control, Some(&fs)).unwrap().outputs();
            let scalar = RouteTrace::capture(&net, &d, control, Some(&fs)).unwrap();
            assert_eq!(tags, real, "B({n}) {}", kernel.name());
            assert_eq!(tags, scalar.outputs(), "B({n}) {} scalar", kernel.name());
        }
    }

    fn lcg_perm(n: u32, seed: u64) -> Permutation {
        let size = 1usize << n;
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut dest: Vec<u32> = (0..size as u32).collect();
        for i in (1..size).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            dest.swap(i, j);
        }
        Permutation::from_destinations(dest).unwrap()
    }
}
