//! Small-support symbolic booleans for the word-kernel prover.
//!
//! The word≡scalar proof ([`crate::wordproof`]) cuts the network at every
//! stage boundary, so each formula it ever compares depends on at most a
//! handful of variables: the two paired tag bits, the upper control bit,
//! and the two fault bits of one switch. A boolean function over ≤ 6
//! variables fits in one `u64` truth table, which makes a *semantic
//! canonical form* practical: every [`Sym`] stores its sorted support with
//! don't-care variables removed and its full truth table. Two `Sym`s are
//! then equal **as functions** iff they are equal as values — equivalence
//! checking is `==`, and there is no room for a prover bug to hide in an
//! incomplete normalization. This is abstract evaluation, not sampling:
//! the table rows range over *all* assignments of the support.

use std::fmt;

/// Maximum support per function. The prover's cut-point discipline keeps
/// every formula within this bound; exceeding it is a prover bug and
/// panics loudly rather than degrading to an unsound comparison.
pub const MAX_SUPPORT: usize = 6;

/// A named symbolic variable of the word-kernel proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SymVar {
    /// Bit `bit` of the destination tag sitting at flattened position
    /// `flat` at the current stage cut.
    Data {
        /// Flattened (butterfly) position of the tag.
        flat: u16,
        /// Which bit of the tag.
        bit: u8,
    },
    /// One of the two fault-configuration bits of a switch. `which = 0`
    /// is the "stuck" bit `a`, `which = 1` is the auxiliary bit `b`:
    /// healthy = (0,0), stuck-straight = (1,0), stuck-cross = (1,1),
    /// dead = (0,1).
    Fault {
        /// Stage of the switch.
        stage: u8,
        /// Switch index within the stage.
        switch: u16,
        /// 0 for `a`, 1 for `b`.
        which: u8,
    },
    /// The commanded state bit of a switch under an external assignment
    /// (1 = cross).
    Control {
        /// Stage of the switch.
        stage: u8,
        /// Switch index within the stage.
        switch: u16,
    },
}

const FILL: SymVar = SymVar::Data { flat: 0, bit: 0 };

/// A boolean function of at most [`MAX_SUPPORT`] variables in semantic
/// canonical form: sorted minimal support plus full truth table. Row `k`
/// of the table assigns variable `vars[i]` the value of bit `i` of `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sym {
    len: u8,
    vars: [SymVar; MAX_SUPPORT],
    table: u64,
}

fn row_mask(len: u8) -> u64 {
    if len >= 6 {
        u64::MAX
    } else {
        (1u64 << (1u32 << len)) - 1
    }
}

impl Sym {
    /// The constant `false`.
    #[must_use]
    pub fn falsehood() -> Self {
        Self { len: 0, vars: [FILL; MAX_SUPPORT], table: 0 }
    }

    /// The constant `true`.
    #[must_use]
    pub fn truth() -> Self {
        Self { len: 0, vars: [FILL; MAX_SUPPORT], table: 1 }
    }

    /// A boolean constant.
    #[must_use]
    pub fn constant(b: bool) -> Self {
        if b {
            Self::truth()
        } else {
            Self::falsehood()
        }
    }

    /// The projection onto one variable.
    #[must_use]
    pub fn var(v: SymVar) -> Self {
        let mut vars = [FILL; MAX_SUPPORT];
        vars[0] = v;
        Self { len: 1, vars, table: 0b10 }
    }

    /// `Some(value)` if the function is constant.
    #[must_use]
    pub fn as_const(&self) -> Option<bool> {
        (self.len == 0).then_some(self.table & 1 == 1)
    }

    /// The support size.
    #[must_use]
    pub fn support(&self) -> usize {
        self.len as usize
    }

    /// Logical negation.
    #[must_use]
    pub fn not(&self) -> Self {
        // Negation preserves dependence on every support variable, so the
        // result is already canonical.
        Self { table: !self.table & row_mask(self.len), ..*self }
    }

    /// Logical conjunction.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a & b)
    }

    /// Logical disjunction.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a | b)
    }

    /// Logical exclusive or.
    #[must_use]
    pub fn xor(&self, other: &Self) -> Self {
        self.binop(other, |a, b| a ^ b)
    }

    /// `if self { t } else { e }` — the 2×2 switch primitive.
    #[must_use]
    pub fn mux(&self, t: &Self, e: &Self) -> Self {
        self.and(t).or(&self.not().and(e))
    }

    /// Semantic equality. Because both sides are canonical this is plain
    /// structural equality — no alignment needed.
    #[must_use]
    pub fn equiv(&self, other: &Self) -> bool {
        self == other
    }

    /// Evaluates under a concrete assignment of the support.
    pub fn eval(&self, assign: impl Fn(SymVar) -> bool) -> bool {
        let mut idx = 0u64;
        for i in 0..self.len as usize {
            if assign(self.vars[i]) {
                idx |= 1 << i;
            }
        }
        (self.table >> idx) & 1 == 1
    }

    /// A distinguishing assignment if the two functions differ, covering
    /// the union of both supports.
    #[must_use]
    pub fn counterexample(&self, other: &Self) -> Option<Vec<(SymVar, bool)>> {
        let (vars, len) = merge_vars(self, other);
        let ta = self.expand(&vars, len);
        let tb = other.expand(&vars, len);
        let diff = ta ^ tb;
        if diff == 0 {
            return None;
        }
        let k = diff.trailing_zeros() as u64;
        Some((0..len as usize).map(|i| (vars[i], (k >> i) & 1 == 1)).collect())
    }

    fn binop(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        if self.len == other.len && self.vars == other.vars {
            // Fast path: identical supports, tables align directly.
            let s = Self {
                len: self.len,
                vars: self.vars,
                table: f(self.table, other.table) & row_mask(self.len),
            };
            return s.reduce();
        }
        let (vars, len) = merge_vars(self, other);
        let ta = self.expand(&vars, len);
        let tb = other.expand(&vars, len);
        let s = Self { len, vars, table: f(ta, tb) & row_mask(len) };
        s.reduce()
    }

    /// Re-expresses the truth table over a superset support.
    fn expand(&self, vars: &[SymVar; MAX_SUPPORT], len: u8) -> u64 {
        if self.len == len && self.vars == *vars {
            return self.table;
        }
        let mut map = [0usize; MAX_SUPPORT];
        for i in 0..self.len as usize {
            map[i] = vars[..len as usize]
                .iter()
                .position(|v| *v == self.vars[i])
                .expect("own support must be in the merged support");
        }
        let mut out = 0u64;
        for k in 0..(1u64 << len) {
            let mut idx = 0u64;
            for i in 0..self.len as usize {
                idx |= ((k >> map[i]) & 1) << i;
            }
            out |= ((self.table >> idx) & 1) << k;
        }
        out
    }

    /// Removes don't-care variables, restoring canonical form.
    fn reduce(mut self) -> Self {
        let mut i = 0;
        while i < self.len as usize {
            let stride = 1u64 << i;
            let rows = 1u64 << self.len;
            let mut depends = false;
            let mut k = 0u64;
            while k < rows {
                if (k & stride) == 0
                    && (self.table >> k) & 1 != (self.table >> (k | stride)) & 1
                {
                    depends = true;
                    break;
                }
                k += 1;
            }
            if depends {
                i += 1;
                continue;
            }
            // Drop variable i: keep the rows where it is 0, compacting.
            let mut table = 0u64;
            let mut dst = 0u64;
            for k in 0..rows {
                if k & stride == 0 {
                    table |= ((self.table >> k) & 1) << dst;
                    dst += 1;
                }
            }
            for j in i..self.len as usize - 1 {
                self.vars[j] = self.vars[j + 1];
            }
            self.vars[self.len as usize - 1] = FILL;
            self.len -= 1;
            self.table = table;
        }
        self
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.as_const() {
            return write!(f, "{c}");
        }
        write!(f, "fn(")?;
        for i in 0..self.len as usize {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:?}", self.vars[i])?;
        }
        write!(f, ") table {:#x}", self.table)
    }
}

/// Merges two sorted supports, panicking past [`MAX_SUPPORT`].
fn merge_vars(a: &Sym, b: &Sym) -> ([SymVar; MAX_SUPPORT], u8) {
    let mut vars = [FILL; MAX_SUPPORT];
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    let (la, lb) = (a.len as usize, b.len as usize);
    while i < la || j < lb {
        let next = if i < la && (j >= lb || a.vars[i] <= b.vars[j]) {
            let v = a.vars[i];
            i += 1;
            if j < lb && b.vars[j] == v {
                j += 1;
            }
            v
        } else {
            let v = b.vars[j];
            j += 1;
            v
        };
        assert!(
            k < MAX_SUPPORT,
            "symbolic support exceeded {MAX_SUPPORT} variables — the prover's \
             stage-cut discipline is broken"
        );
        vars[k] = next;
        k += 1;
    }
    (vars, k as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(flat: u16, bit: u8) -> Sym {
        Sym::var(SymVar::Data { flat, bit })
    }

    #[test]
    fn canonical_form_makes_equivalence_structural() {
        let a = v(0, 0);
        let b = v(1, 0);
        // a ⊕ b built two different ways must be the same value.
        let direct = a.xor(&b);
        let via_mux = a.mux(&b.not(), &b);
        assert_eq!(direct, via_mux);
        assert!(direct.equiv(&via_mux));
    }

    #[test]
    fn dont_care_variables_are_dropped() {
        let a = v(0, 0);
        let b = v(1, 0);
        // a ∧ (b ∨ ¬b) depends only on a.
        let e = a.and(&b.or(&b.not()));
        assert_eq!(e, a);
        assert_eq!(e.support(), 1);
        // a ⊕ a is constant false with empty support.
        assert_eq!(a.xor(&a), Sym::falsehood());
    }

    #[test]
    fn constants_and_negation() {
        assert_eq!(Sym::truth().not(), Sym::falsehood());
        assert_eq!(Sym::constant(true).as_const(), Some(true));
        let a = v(3, 1);
        assert_eq!(a.not().not(), a);
        assert_eq!(a.and(&Sym::falsehood()), Sym::falsehood());
        assert_eq!(a.or(&Sym::falsehood()), a);
        assert_eq!(a.and(&Sym::truth()), a);
    }

    #[test]
    fn eval_agrees_with_construction() {
        let a = v(0, 0);
        let b = v(1, 0);
        let c = v(2, 0);
        let e = a.mux(&b, &c); // if a then b else c
        for bits in 0..8u8 {
            let assign = |var: SymVar| match var {
                SymVar::Data { flat, .. } => (bits >> flat) & 1 == 1,
                SymVar::Fault { .. } | SymVar::Control { .. } => false,
            };
            let expect =
                if bits & 1 == 1 { (bits >> 1) & 1 == 1 } else { (bits >> 2) & 1 == 1 };
            assert_eq!(e.eval(assign), expect, "bits {bits:03b}");
        }
    }

    #[test]
    fn counterexample_distinguishes_differing_functions() {
        let a = v(0, 0);
        let b = v(1, 0);
        let cex = a.and(&b).counterexample(&a.or(&b)).expect("and != or");
        // The witness must actually distinguish the two.
        let assign =
            |var: SymVar| cex.iter().find(|(v, _)| *v == var).map(|(_, x)| *x).unwrap();
        assert_ne!(a.and(&b).eval(assign), a.or(&b).eval(assign));
        assert!(a.and(&b).counterexample(&b.and(&a)).is_none());
    }

    #[test]
    #[should_panic(expected = "support exceeded")]
    fn support_overflow_panics() {
        let mut acc = Sym::falsehood();
        for i in 0..7u16 {
            acc = acc.xor(&v(i, 0));
        }
    }

    #[test]
    fn six_variable_functions_are_exact() {
        // Full 6-var majority-ish function round-trips through ops.
        let vars: Vec<Sym> = (0..6u16).map(|i| v(i, 0)).collect();
        let parity = vars.iter().fold(Sym::falsehood(), |a, x| a.xor(x));
        assert_eq!(parity.support(), 6);
        for bits in 0..64u8 {
            let assign = |var: SymVar| match var {
                SymVar::Data { flat, .. } => (bits >> flat) & 1 == 1,
                SymVar::Fault { .. } | SymVar::Control { .. } => false,
            };
            assert_eq!(parity.eval(assign), bits.count_ones() % 2 == 1);
        }
    }
}
