//! Pipelined operation of the self-routing network (§IV of the paper).
//!
//! "By providing registers between the stages of `B(n)`, the network may
//! operate in pipelined mode. That is, a new `N`-element vector may enter
//! the network every clock period. … the network will output the first
//! permuted vector after `O(log N)` delay, while each subsequent permuted
//! vector will emerge after unit delay."
//!
//! [`Pipeline`] models exactly that: a register bank in front of every
//! stage. Each clock, every resident wavefront advances one stage, its
//! switches setting themselves from the wavefront's own destination tags —
//! so successive vectors may use **different** permutations, as the paper
//! notes.
//!
//! # Examples
//!
//! ```
//! use benes_core::pipeline::Pipeline;
//! use benes_perm::bpc::Bpc;
//!
//! let mut pipe: Pipeline<u32> = Pipeline::new(3);
//! assert_eq!(pipe.latency(), 5);
//!
//! // Feed one tagged vector, then drain.
//! let perm = Bpc::bit_reversal(3).to_permutation();
//! let records: Vec<(u32, u32)> =
//!     perm.destinations().iter().enumerate().map(|(i, &d)| (d, i as u32)).collect();
//! assert!(pipe.clock(Some(records)).is_none());
//! for _ in 0..4 {
//!     assert!(pipe.clock(None).is_none()); // still filling
//! }
//! let out = pipe.clock(None).expect("emerges after 2n−1 clocks");
//! assert_eq!(out[0], (0, 0));
//! ```

use crate::network::{Benes, Control, NetworkError};

/// One tagged record travelling through the pipeline: `(destination tag,
/// payload)`.
pub type Record<T> = (u32, T);

/// A register-pipelined `B(n)` network.
///
/// `clock` advances the machine one cycle: an optional new wavefront is
/// latched at the input, every resident wavefront moves one stage, and the
/// wavefront leaving the last stage (if any) is returned.
#[derive(Debug, Clone)]
pub struct Pipeline<T> {
    net: Benes,
    /// `regs[s]` holds the wavefront waiting at the *input* of stage `s`.
    regs: Vec<Option<Vec<Record<T>>>>,
    clock: u64,
    emitted: u64,
}

impl<T> Pipeline<T> {
    /// Builds a pipelined `B(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range (see [`crate::topology::MAX_N`]).
    #[must_use]
    pub fn new(n: u32) -> Self {
        let net = Benes::new(n);
        let stages = net.stage_count();
        Self { net, regs: (0..stages).map(|_| None).collect(), clock: 0, emitted: 0 }
    }

    /// The underlying network.
    #[must_use]
    pub fn network(&self) -> &Benes {
        &self.net
    }

    /// The fill latency in clocks: a vector entered at clock `t` emerges
    /// at clock `t + latency()` — one clock per stage, `2n − 1` total.
    #[must_use]
    pub fn latency(&self) -> usize {
        self.net.stage_count()
    }

    /// The number of clock cycles executed so far.
    #[must_use]
    pub fn clock_count(&self) -> u64 {
        self.clock
    }

    /// The number of wavefronts that have emerged so far.
    #[must_use]
    pub fn emitted_count(&self) -> u64 {
        self.emitted
    }

    /// Whether any wavefront is still in flight.
    #[must_use]
    pub fn is_busy(&self) -> bool {
        self.regs.iter().any(Option::is_some)
    }

    /// Advances one clock period: latches `input` (if any) into the first
    /// stage register, moves every resident wavefront through its stage,
    /// and returns the wavefront that left the last stage, in
    /// output-terminal order.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InputLength`] if `input` is present but not
    /// of length `N`; the pipeline state is unchanged in that case.
    pub fn try_clock(
        &mut self,
        input: Option<Vec<Record<T>>>,
    ) -> Result<Option<Vec<Record<T>>>, NetworkError> {
        if let Some(ref v) = input {
            if v.len() != self.net.terminal_count() {
                return Err(NetworkError::InputLength {
                    expected: self.net.terminal_count(),
                    actual: v.len(),
                });
            }
        }
        self.clock += 1;
        let stages = self.net.stage_count();

        // Process the last stage first so registers free up front-to-back.
        let emitted =
            self.regs[stages - 1].take().map(|wave| self.step_stage(stages - 1, wave));
        for s in (0..stages - 1).rev() {
            if let Some(wave) = self.regs[s].take() {
                let advanced = self.step_stage(s, wave);
                self.regs[s + 1] = Some(advanced);
            }
        }
        self.regs[0] = input;
        if emitted.is_some() {
            self.emitted += 1;
        }
        Ok(emitted)
    }

    /// Infallible [`Pipeline::try_clock`].
    ///
    /// # Panics
    ///
    /// Panics if `input` is present but not of length `N`.
    pub fn clock(&mut self, input: Option<Vec<Record<T>>>) -> Option<Vec<Record<T>>> {
        self.try_clock(input).expect("input wavefront length must be N")
    }

    /// Runs the pipeline until empty, collecting every emerging wavefront.
    pub fn drain(&mut self) -> Vec<Vec<Record<T>>> {
        let mut out = Vec::new();
        while self.is_busy() {
            if let Some(wave) = self.clock(None) {
                out.push(wave);
            }
        }
        out
    }

    /// Applies stage `s`'s switches (self-setting) and, unless it is the
    /// last stage, the outgoing link wiring.
    fn step_stage(&self, s: usize, wave: Vec<Record<T>>) -> Vec<Record<T>> {
        let wave = wave.into_iter().map(Some).collect();
        let out = self.net.step(s, wave, |i, upper, _| {
            Control::SelfRoute.state(&self.net, None, (s, i), upper.0)
        });
        out.into_iter().map(|o| o.expect("port filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_perm::bpc::Bpc;
    use benes_perm::omega::cyclic_shift;
    use benes_perm::Permutation;

    fn tagged(perm: &Permutation) -> Vec<Record<u32>> {
        perm.destinations().iter().enumerate().map(|(i, &d)| (d, i as u32)).collect()
    }

    #[test]
    fn single_vector_latency_is_stage_count() {
        let mut pipe: Pipeline<u32> = Pipeline::new(3);
        let perm = Bpc::bit_reversal(3).to_permutation();
        assert!(pipe.clock(Some(tagged(&perm))).is_none());
        for k in 1..5 {
            assert!(pipe.clock(None).is_none(), "emerged early at clock {k}");
        }
        let out = pipe.clock(None).expect("emerges at clock 2n−1");
        assert_eq!(pipe.clock_count(), 6);
        // Output o holds the payload originally at input perm⁻¹(o).
        let inv = perm.inverse();
        for (o, (tag, payload)) in out.iter().enumerate() {
            assert_eq!(*tag, o as u32);
            assert_eq!(*payload, inv.destination(o));
        }
    }

    #[test]
    fn pipeline_matches_unpipelined_routing() {
        let net = Benes::new(4);
        let mut pipe: Pipeline<u32> = Pipeline::new(4);
        let perm = Bpc::matrix_transpose(4).to_permutation();
        pipe.clock(Some(tagged(&perm)));
        let waves = pipe.drain();
        assert_eq!(waves.len(), 1);
        let (expected, _) = net.self_route_records(tagged(&perm)).unwrap();
        assert_eq!(waves[0], expected);
    }

    #[test]
    fn back_to_back_vectors_emerge_every_clock() {
        // §IV: one vector per clock after the fill latency, and successive
        // vectors may use different permutations.
        let n = 3;
        let mut pipe: Pipeline<u32> = Pipeline::new(n);
        let perms = [
            Bpc::bit_reversal(n).to_permutation(),
            cyclic_shift(n, 3),
            Bpc::vector_reversal(n).to_permutation(),
            Permutation::identity(8),
            cyclic_shift(n, -2),
        ];
        let mut emerged = Vec::new();
        for p in &perms {
            if let Some(w) = pipe.clock(Some(tagged(p))) {
                emerged.push(w);
            }
        }
        // Latency is 5 stages; the first vector emerges on clock 5 while
        // we are feeding the last of the 5 vectors? Feeding happened on
        // clocks 1..=5, first emerges on clock 5? It entered the stage-0
        // register at end of clock 1, processes stages on clocks 2..6.
        emerged.extend(pipe.drain());
        assert_eq!(emerged.len(), perms.len());
        // Every emerged wavefront is correctly permuted.
        for (k, wave) in emerged.iter().enumerate() {
            let inv = perms[k].inverse();
            for (o, (tag, payload)) in wave.iter().enumerate() {
                assert_eq!(*tag, o as u32, "vector {k}");
                assert_eq!(*payload, inv.destination(o), "vector {k}");
            }
        }
    }

    #[test]
    fn throughput_after_fill_is_one_per_clock() {
        let n = 4;
        let mut pipe: Pipeline<u32> = Pipeline::new(n);
        let perm = cyclic_shift(n, 1);
        let total = 20u64;
        let mut clocks_with_output = 0u64;
        for k in 0..total + pipe.latency() as u64 {
            let input = if k < total { Some(tagged(&perm)) } else { None };
            if pipe.clock(input).is_some() {
                clocks_with_output += 1;
            }
        }
        assert_eq!(clocks_with_output, total);
        assert_eq!(pipe.emitted_count(), total);
        // Total time = fill latency + (total − 1) extra clocks + 1.
        assert_eq!(pipe.clock_count(), total + pipe.latency() as u64);
    }

    #[test]
    fn bad_wavefront_length_is_rejected_without_state_change() {
        let mut pipe: Pipeline<u32> = Pipeline::new(2);
        pipe.clock(Some(tagged(&Permutation::identity(4))));
        let before_clock = pipe.clock_count();
        assert!(pipe.try_clock(Some(vec![(0, 0)])).is_err());
        assert_eq!(pipe.clock_count(), before_clock);
        assert!(pipe.is_busy());
    }

    #[test]
    fn bubbles_pass_through() {
        // Gaps in the input stream produce gaps in the output stream at
        // the same relative positions.
        let n = 2;
        let mut pipe: Pipeline<u32> = Pipeline::new(n);
        let perm = cyclic_shift(n, 1);
        let pattern = [true, false, true, true, false, false, true];
        let mut outputs = Vec::new();
        for &feed in &pattern {
            let input = if feed { Some(tagged(&perm)) } else { None };
            outputs.push(pipe.clock(input).is_some());
        }
        while pipe.is_busy() {
            outputs.push(pipe.clock(None).is_some());
        }
        // The output pattern is the input pattern delayed by the latency.
        let expected: Vec<bool> = std::iter::repeat_n(false, pipe.latency())
            .chain(pattern.iter().copied())
            .collect();
        assert_eq!(outputs, expected);
    }
}
