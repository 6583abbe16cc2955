//! The destination-tag representation of a permutation.

use std::fmt;
use std::ops::Index;

/// Error produced when constructing or combining [`Permutation`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PermutationError {
    /// The destination vector was empty.
    Empty,
    /// A destination was outside `0..len`.
    OutOfRange {
        /// The input index carrying the offending destination.
        index: usize,
        /// The offending destination value.
        destination: u32,
        /// The permutation length.
        len: usize,
    },
    /// Two inputs shared the same destination (the map is not a bijection).
    Duplicate {
        /// The repeated destination value.
        destination: u32,
    },
    /// Two permutations of different lengths were combined.
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
}

impl fmt::Display for PermutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "permutation must have at least one element"),
            Self::OutOfRange { index, destination, len } => {
                write!(f, "destination {destination} at input {index} is outside 0..{len}")
            }
            Self::Duplicate { destination } => {
                write!(f, "destination {destination} appears more than once")
            }
            Self::LengthMismatch { left, right } => {
                write!(f, "permutation lengths differ ({left} vs {right})")
            }
        }
    }
}

impl std::error::Error for PermutationError {}

/// A permutation `D = (D_0, …, D_{N−1})` of `(0, …, N−1)` in the paper's
/// destination-tag form: input `i` is sent to output `D_i`.
///
/// The representation is validated at construction: every destination is in
/// range and appears exactly once.
///
/// # Examples
///
/// ```
/// use benes_perm::Permutation;
///
/// let d = Permutation::from_destinations(vec![1, 3, 2, 0])?;
/// assert_eq!(d.destination(0), 1);
/// assert_eq!(d.apply(&["a", "b", "c", "d"]), vec!["d", "a", "c", "b"]);
/// # Ok::<(), benes_perm::PermutationError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    dest: Vec<u32>,
}

impl Permutation {
    /// Builds a permutation from its destination-tag vector `D`.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, contains a value outside
    /// `0..len`, or contains a repeated value.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::{Permutation, PermutationError};
    ///
    /// assert!(Permutation::from_destinations(vec![2, 0, 1]).is_ok());
    /// assert_eq!(
    ///     Permutation::from_destinations(vec![0, 0]),
    ///     Err(PermutationError::Duplicate { destination: 0 })
    /// );
    /// ```
    pub fn from_destinations(dest: Vec<u32>) -> Result<Self, PermutationError> {
        if dest.is_empty() {
            return Err(PermutationError::Empty);
        }
        let len = dest.len();
        let mut seen = vec![false; len];
        for (index, &d) in dest.iter().enumerate() {
            let Some(slot) = seen.get_mut(d as usize) else {
                return Err(PermutationError::OutOfRange { index, destination: d, len });
            };
            if *slot {
                return Err(PermutationError::Duplicate { destination: d });
            }
            *slot = true;
        }
        Ok(Self { dest })
    }

    /// Builds the permutation `D_i = f(i)` for `i` in `0..len`.
    ///
    /// # Errors
    ///
    /// Returns an error if `len == 0` or `f` is not a bijection on `0..len`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    ///
    /// // Cyclic shift by 1 on 4 elements.
    /// let d = Permutation::from_fn(4, |i| (i + 1) % 4)?;
    /// assert_eq!(d.destinations(), &[1, 2, 3, 0]);
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    pub fn from_fn(len: usize, f: impl Fn(u32) -> u32) -> Result<Self, PermutationError> {
        Self::from_destinations((0..len as u32).map(f).collect())
    }

    /// The identity permutation on `len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// assert!(Permutation::identity(4).is_identity());
    /// ```
    #[must_use]
    pub fn identity(len: usize) -> Self {
        assert!(len > 0, "permutation must have at least one element");
        Self { dest: (0..len as u32).collect() }
    }

    /// The number of elements `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dest.len()
    }

    /// Always `false`: permutations have at least one element.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `n` such that `N = 2^n`, or `None` if `N` is not a power of
    /// two. The paper's networks and machines all require `N = 2^n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// assert_eq!(Permutation::identity(8).log2_len(), Some(3));
    /// assert_eq!(Permutation::identity(6).log2_len(), None);
    /// ```
    #[must_use]
    pub fn log2_len(&self) -> Option<u32> {
        benes_bits::log2_exact(self.dest.len() as u64)
    }

    /// The destination tag `D_i` of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn destination(&self, i: usize) -> u32 {
        self.dest[i]
    }

    /// The full destination-tag vector `D`.
    #[must_use]
    pub fn destinations(&self) -> &[u32] {
        &self.dest
    }

    /// Consumes the permutation, returning the destination vector.
    #[must_use]
    pub fn into_destinations(self) -> Vec<u32> {
        self.dest
    }

    /// Iterates over `(i, D_i)` pairs.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// let d = Permutation::from_destinations(vec![1, 0])?;
    /// let pairs: Vec<_> = d.iter().collect();
    /// assert_eq!(pairs, vec![(0, 1), (1, 0)]);
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.dest.iter().enumerate().map(|(i, &d)| (i as u32, d))
    }

    /// Whether this is the identity permutation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.dest.iter().enumerate().all(|(i, &d)| i as u32 == d)
    }

    /// Applies the permutation to a data slice: output slot `D_i` receives
    /// `data[i]`.
    ///
    /// This is exactly what the network does with the records presented at
    /// its input terminals.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// let d = Permutation::from_destinations(vec![2, 0, 1])?;
    /// assert_eq!(d.apply(&[10, 20, 30]), vec![20, 30, 10]);
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn apply<T: Clone>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(
            data.len(),
            self.dest.len(),
            "data length {} does not match permutation length {}",
            data.len(),
            self.dest.len()
        );
        let mut out: Vec<Option<T>> = vec![None; data.len()];
        for (i, &d) in self.dest.iter().enumerate() {
            out[d as usize] = Some(data[i].clone());
        }
        out.into_iter().map(|x| x.expect("bijection fills every slot")).collect()
    }

    /// The inverse permutation: if `self` sends `i` to `D_i`, the inverse
    /// sends `D_i` to `i`.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// let d = Permutation::from_destinations(vec![2, 0, 1])?;
    /// assert!(d.then(&d.inverse()).is_identity());
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u32; self.dest.len()];
        for (i, &d) in self.dest.iter().enumerate() {
            inv[d as usize] = i as u32;
        }
        Self { dest: inv }
    }

    /// Sequential composition: first `self`, then `other`.
    ///
    /// `self.then(other)` sends `i` to `other[self[i]]`. This matches the
    /// paper's product notation: with `A = (3,0,1,2)` and `B = (0,1,3,2)`,
    /// `A ∘ B = (2,0,1,3)` (§II, closing remark on non-closure of `F`).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ. Use [`Permutation::try_then`] for a
    /// fallible version.
    #[must_use]
    pub fn then(&self, other: &Self) -> Self {
        self.try_then(other).expect("permutation lengths must match")
    }

    /// Fallible version of [`Permutation::then`].
    ///
    /// # Errors
    ///
    /// Returns [`PermutationError::LengthMismatch`] if lengths differ.
    pub fn try_then(&self, other: &Self) -> Result<Self, PermutationError> {
        if self.dest.len() != other.dest.len() {
            return Err(PermutationError::LengthMismatch {
                left: self.dest.len(),
                right: other.dest.len(),
            });
        }
        let dest = self.dest.iter().map(|&d| other.dest[d as usize]).collect();
        Ok(Self { dest })
    }

    /// The `k`-fold self-composition (`k = 0` gives the identity).
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// let shift = Permutation::from_fn(8, |i| (i + 1) % 8)?;
    /// assert_eq!(shift.pow(3).destination(0), 3);
    /// assert!(shift.pow(8).is_identity());
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn pow(&self, k: u64) -> Self {
        let mut acc = Self::identity(self.dest.len());
        let mut base = self.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc = acc.then(&base);
            }
            base = base.then(&base);
            k >>= 1;
        }
        acc
    }

    /// The cycle decomposition, each cycle starting at its smallest element,
    /// cycles ordered by that element. Fixed points are included as
    /// singleton cycles.
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// let d = Permutation::from_destinations(vec![1, 0, 2, 3])?;
    /// assert_eq!(d.cycles(), vec![vec![0, 1], vec![2], vec![3]]);
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn cycles(&self) -> Vec<Vec<u32>> {
        let mut seen = vec![false; self.dest.len()];
        let mut cycles = Vec::new();
        for start in 0..self.dest.len() {
            if seen[start] {
                continue;
            }
            let mut cycle = Vec::new();
            let mut cur = start;
            while !seen[cur] {
                seen[cur] = true;
                cycle.push(cur as u32);
                cur = self.dest[cur] as usize;
            }
            cycles.push(cycle);
        }
        cycles
    }

    /// Whether the permutation is even (expressible as an even number of
    /// transpositions).
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// assert!(Permutation::identity(4).is_even());
    /// let swap = Permutation::from_destinations(vec![1, 0, 2, 3])?;
    /// assert!(!swap.is_even());
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn is_even(&self) -> bool {
        let transpositions: usize = self.cycles().iter().map(|c| c.len() - 1).sum();
        transpositions.is_multiple_of(2)
    }

    /// The order of the permutation in the symmetric group: the smallest
    /// `k ≥ 1` with `self.pow(k)` the identity (the lcm of the cycle
    /// lengths).
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    /// let d = Permutation::from_destinations(vec![1, 0, 3, 4, 2])?;
    /// assert_eq!(d.order(), 6); // a 2-cycle and a 3-cycle
    /// assert!(d.pow(6).is_identity());
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn order(&self) -> u64 {
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        self.cycles()
            .iter()
            .map(|c| c.len() as u64)
            .fold(1u64, |acc, l| acc / gcd(acc, l) * l)
    }

    /// The number of fixed points (`D_i == i`).
    #[must_use]
    pub fn fixed_points(&self) -> usize {
        self.dest.iter().enumerate().filter(|&(i, &d)| i as u32 == d).count()
    }

    /// A stable 64-bit fingerprint of the permutation, suitable as a
    /// cache or routing-table key.
    ///
    /// The value depends only on the destination vector — not on the
    /// process, platform, or library version hash seeds — so it can be
    /// persisted and compared across runs. Two equal permutations always
    /// fingerprint identically; distinct permutations collide with
    /// probability ≈ 2⁻⁶⁴ (callers that cannot tolerate collisions should
    /// verify equality on fingerprint match).
    ///
    /// The hash is FNV-1a over the little-endian destination bytes, seeded
    /// with the length and passed through a final avalanche so that nearby
    /// permutations disperse across the full 64-bit range (important when
    /// the fingerprint is reduced to a few shard/bucket bits).
    ///
    /// # Examples
    ///
    /// ```
    /// use benes_perm::Permutation;
    ///
    /// let a = Permutation::from_destinations(vec![1, 3, 2, 0])?;
    /// let b = Permutation::from_destinations(vec![1, 3, 2, 0])?;
    /// assert_eq!(a.fingerprint(), b.fingerprint());
    /// assert_ne!(a.fingerprint(), Permutation::identity(4).fingerprint());
    /// # Ok::<(), benes_perm::PermutationError>(())
    /// ```
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for byte in (self.dest.len() as u64).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        // FNV-1a folds a zero byte as one multiply by the prime. Every
        // destination is below the length, so below 2^8 (2^16) its top
        // three (two) bytes are zero and fold as one multiply by the
        // prime's power: the same value with a quarter (three quarters)
        // of the dependent multiplies.
        const FNV_PRIME_2: u64 = FNV_PRIME.wrapping_mul(FNV_PRIME);
        const FNV_PRIME_3: u64 = FNV_PRIME_2.wrapping_mul(FNV_PRIME);
        const FNV_PRIME_4: u64 = FNV_PRIME_2.wrapping_mul(FNV_PRIME_2);
        if self.dest.len() <= 1 << 8 {
            for &d in &self.dest {
                h = (h ^ u64::from(d)).wrapping_mul(FNV_PRIME_4);
            }
        } else if self.dest.len() <= 1 << 16 {
            for &d in &self.dest {
                h = (h ^ u64::from(d & 0xff)).wrapping_mul(FNV_PRIME);
                h = (h ^ u64::from(d >> 8)).wrapping_mul(FNV_PRIME_3);
            }
        } else {
            for &d in &self.dest {
                for byte in d.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
                }
            }
        }
        // splitmix64 finalizer: avalanche the FNV state so low bits are
        // usable as shard indices.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

impl Index<usize> for Permutation {
    type Output = u32;

    fn index(&self, i: usize) -> &u32 {
        &self.dest[i]
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation{:?}", self.dest)
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dest.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl TryFrom<Vec<u32>> for Permutation {
    type Error = PermutationError;

    fn try_from(dest: Vec<u32>) -> Result<Self, PermutationError> {
        Self::from_destinations(dest)
    }
}

impl From<Permutation> for Vec<u32> {
    fn from(p: Permutation) -> Vec<u32> {
        p.into_destinations()
    }
}

impl IntoIterator for &Permutation {
    type Item = (u32, u32);
    type IntoIter = std::vec::IntoIter<(u32, u32)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(feature = "serde")]
impl serde::Serialize for Permutation {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.dest.serialize(serializer)
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Permutation {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let dest = Vec::<u32>::deserialize(deserializer)?;
        Permutation::from_destinations(dest).map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[u32]) -> Permutation {
        Permutation::from_destinations(v.to_vec()).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Permutation::from_destinations(vec![]), Err(PermutationError::Empty));
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Permutation::from_destinations(vec![0, 3]),
            Err(PermutationError::OutOfRange { index: 1, destination: 3, len: 2 })
        );
    }

    #[test]
    fn rejects_duplicates() {
        assert_eq!(
            Permutation::from_destinations(vec![1, 1, 0]),
            Err(PermutationError::Duplicate { destination: 1 })
        );
    }

    #[test]
    fn identity_properties() {
        let id = Permutation::identity(8);
        assert_eq!(id.len(), 8);
        assert!(id.is_identity());
        assert_eq!(id.fixed_points(), 8);
        assert!(id.is_even());
        assert_eq!(id.inverse(), id);
    }

    #[test]
    fn apply_routes_input_to_destination() {
        // D = (1,3,2,0): input 0 → output 1, input 1 → output 3, ...
        let d = p(&[1, 3, 2, 0]);
        let out = d.apply(&['a', 'b', 'c', 'd']);
        assert_eq!(out, vec!['d', 'a', 'c', 'b']);
    }

    #[test]
    fn inverse_roundtrip() {
        let d = p(&[4, 2, 0, 3, 1]);
        assert!(d.then(&d.inverse()).is_identity());
        assert!(d.inverse().then(&d).is_identity());
        assert_eq!(d.inverse().inverse(), d);
    }

    #[test]
    fn then_matches_paper_product() {
        // §II closing remark: A = (3,0,1,2), B = (0,1,3,2), A∘B = (2,0,1,3).
        let a = p(&[3, 0, 1, 2]);
        let b = p(&[0, 1, 3, 2]);
        assert_eq!(a.then(&b), p(&[2, 0, 1, 3]));
    }

    #[test]
    fn then_rejects_length_mismatch() {
        let a = Permutation::identity(4);
        let b = Permutation::identity(8);
        assert_eq!(
            a.try_then(&b),
            Err(PermutationError::LengthMismatch { left: 4, right: 8 })
        );
    }

    #[test]
    fn apply_agrees_with_then() {
        // Applying a then b to data equals applying (a.then(b)).
        let a = p(&[3, 0, 1, 2]);
        let b = p(&[0, 1, 3, 2]);
        let data = [100, 200, 300, 400];
        assert_eq!(b.apply(&a.apply(&data)), a.then(&b).apply(&data));
    }

    #[test]
    fn pow_cycles_back() {
        let shift = Permutation::from_fn(16, |i| (i + 1) % 16).unwrap();
        assert_eq!(shift.pow(0), Permutation::identity(16));
        assert_eq!(shift.pow(5).destination(0), 5);
        assert!(shift.pow(16).is_identity());
        assert_eq!(shift.pow(3).then(&shift.pow(7)), shift.pow(10));
    }

    #[test]
    fn cycles_cover_all_elements() {
        let d = p(&[2, 0, 1, 4, 3, 5]);
        let cycles = d.cycles();
        assert_eq!(cycles, vec![vec![0, 2, 1], vec![3, 4], vec![5]]);
        let total: usize = cycles.iter().map(Vec::len).sum();
        assert_eq!(total, d.len());
    }

    #[test]
    fn order_is_lcm_of_cycle_lengths() {
        assert_eq!(Permutation::identity(8).order(), 1);
        let shift = Permutation::from_fn(8, |i| (i + 1) % 8).unwrap();
        assert_eq!(shift.order(), 8);
        // 2-cycle + 3-cycle + fixed point.
        let d = p(&[1, 0, 3, 4, 2, 5]);
        assert_eq!(d.order(), 6);
        assert!(d.pow(d.order()).is_identity());
        assert!(!d.pow(3).is_identity());
    }

    #[test]
    fn parity_of_transposition_chain() {
        assert!(p(&[1, 0, 3, 2]).is_even()); // two transpositions
        assert!(!p(&[1, 2, 3, 0]).is_even()); // 4-cycle = 3 transpositions
    }

    #[test]
    fn log2_len_detection() {
        assert_eq!(Permutation::identity(16).log2_len(), Some(4));
        assert_eq!(Permutation::identity(12).log2_len(), None);
        assert_eq!(Permutation::identity(1).log2_len(), Some(0));
    }

    #[test]
    fn display_and_debug() {
        let d = p(&[1, 0]);
        assert_eq!(d.to_string(), "(1, 0)");
        assert_eq!(format!("{d:?}"), "Permutation[1, 0]");
    }

    #[test]
    fn conversions() {
        let d = Permutation::try_from(vec![1u32, 0]).unwrap();
        let v: Vec<u32> = d.into();
        assert_eq!(v, vec![1, 0]);
    }

    #[test]
    fn fingerprint_is_stable_and_length_sensitive() {
        // Pinned value: the fingerprint is part of the on-disk cache-key
        // contract, so it must never change across releases.
        assert_eq!(p(&[1, 3, 2, 0]).fingerprint(), p(&[1, 3, 2, 0]).fingerprint());
        let golden = p(&[1, 3, 2, 0]).fingerprint();
        assert_eq!(golden, 0x7945_caaa_a8dd_f95b, "fingerprint contract changed");
        // Identity permutations of different lengths must differ even
        // though the shared prefix of destination bytes is identical.
        assert_ne!(
            Permutation::identity(4).fingerprint(),
            Permutation::identity(8).fingerprint()
        );
    }

    #[test]
    fn fingerprint_matches_byte_serial_fnv_across_width_boundaries() {
        // The folded loops must equal FNV-1a over every little-endian
        // byte, on both sides of the 2^8 and 2^16 length cut-overs.
        fn byte_serial(d: &Permutation) -> u64 {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let len = (d.len() as u64).to_le_bytes();
            for byte in
                len.into_iter().chain(d.destinations().iter().flat_map(|x| x.to_le_bytes()))
            {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^ (h >> 31)
        }
        for len in [1, 2, 255, 256, 257, 1 << 10, (1 << 16) - 1, 1 << 16, (1 << 16) + 1] {
            let d =
                Permutation::from_fn(len, |i| ((7 * u64::from(i) + 1) % len as u64) as u32)
                    .unwrap();
            assert_eq!(d.fingerprint(), byte_serial(&d), "len {len}");
            let rev = Permutation::from_fn(len, |i| len as u32 - 1 - i).unwrap();
            assert_eq!(rev.fingerprint(), byte_serial(&rev), "len {len} reversed");
        }
    }

    #[test]
    fn fingerprint_separates_small_permutations() {
        // All 24 permutations of 4 elements hash distinctly.
        let mut seen = std::collections::HashSet::new();
        let mut dest = vec![0u32, 1, 2, 3];
        // Heap's algorithm, iterative.
        let mut c = [0usize; 4];
        seen.insert(p(&dest).fingerprint());
        let mut i = 0;
        while i < 4 {
            if c[i] < i {
                if i % 2 == 0 {
                    dest.swap(0, i);
                } else {
                    dest.swap(c[i], i);
                }
                seen.insert(p(&dest).fingerprint());
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn iter_pairs() {
        let d = p(&[2, 0, 1]);
        assert_eq!((&d).into_iter().collect::<Vec<_>>(), vec![(0, 2), (1, 0), (2, 1)]);
    }
}
