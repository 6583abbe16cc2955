//! Workload generators and table formatting for the experiment harness.
//!
//! The binaries in `src/bin/` regenerate every figure and table of the
//! paper (see `DESIGN.md` §3 for the experiment index); the Criterion
//! benches in `benches/` time the software implementations. Both draw
//! their inputs from here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use benes_perm::bpc::{Bpc, SignedBit};
use benes_perm::Permutation;
use rand::Rng;

/// What the numbers ran on: core count, build profile, and the git
/// revision of the working tree plus whether it had uncommitted
/// changes (`null` outside a git checkout).
#[must_use]
pub fn host_json() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let rev =
        git(&["rev-parse", "HEAD"]).map_or_else(|| "null".into(), |r| format!("\"{r}\""));
    let dirty = git(&["status", "--porcelain"])
        .map_or_else(|| "null".into(), |s| (!s.is_empty()).to_string());
    format!(
        "{{\"available_parallelism\":{cores},\"profile\":\"{profile}\",\"git_rev\":{rev},\
         \"git_dirty\":{dirty}}}"
    )
}

/// A uniformly random permutation of `0..len` (Fisher–Yates).
///
/// # Panics
///
/// Panics if `len == 0`.
#[must_use]
pub fn random_permutation(rng: &mut impl Rng, len: usize) -> Permutation {
    assert!(len > 0, "permutation must have at least one element");
    let mut dest: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        let j = rng.random_range(0..=i);
        dest.swap(i, j);
    }
    Permutation::from_destinations(dest).expect("shuffle of identity is a bijection")
}

/// A uniformly random `BPC(n)` permutation: random bit permutation,
/// random complement signs.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn random_bpc(rng: &mut impl Rng, n: u32) -> Bpc {
    assert!(n > 0, "BPC requires n >= 1");
    let positions = random_permutation(rng, n as usize);
    let entries =
        positions
            .destinations()
            .iter()
            .map(|&p| {
                if rng.random::<bool>() {
                    SignedBit::minus(p)
                } else {
                    SignedBit::plus(p)
                }
            })
            .collect();
    Bpc::from_entries(entries).expect("positions form a permutation")
}

/// A random member of the self-routing class `F(n)`, built by inverting
/// the Theorem 1 recursion.
///
/// Construction: draw `U, L ∈ F(n−1)` recursively; for each half-range
/// value `h`, choose which of `{2h, 2h+1}` travels through the upper
/// subnetwork (the choice bit `c_h`), subject to the realizability
/// constraint of the stage-0 switch rule (`c_{U_i}` and `c_{L_i}` may not
/// both be 1 at a switch); where both input orders realize the switch,
/// pick one at random. Every output is in `F(n)` (tested), and every
/// member of `F(n)` has positive probability.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 24`.
#[must_use]
pub fn random_f_member(rng: &mut impl Rng, n: u32) -> Permutation {
    assert!((1..=24).contains(&n), "random_f_member requires 1 <= n <= 24");
    let tags = random_f_tags(rng, n);
    Permutation::from_destinations(tags.into_iter().map(|t| t as u32).collect())
        .expect("construction yields a bijection")
}

/// The recursive tag-vector sampler behind [`random_f_member`].
fn random_f_tags(rng: &mut impl Rng, m: u32) -> Vec<u64> {
    if m == 1 {
        return if rng.random::<bool>() { vec![0, 1] } else { vec![1, 0] };
    }
    let half = 1usize << (m - 1);
    let u = random_f_tags(rng, m - 1);
    let l = random_f_tags(rng, m - 1);

    // c[h] = 1 means value 2h+1 goes up (at the switch where U = h) and
    // 2h goes down. Constraint per switch i: !(c[U_i] && c[L_i]).
    // Sample by random proposal, then repair violations by clearing one
    // endpoint (keeps the distribution broad without a constraint solver).
    let mut c = vec![false; half];
    for slot in c.iter_mut() {
        *slot = rng.random::<bool>();
    }
    for i in 0..half {
        let (ui, li) = (u[i] as usize, l[i] as usize);
        if c[ui] && c[li] {
            if rng.random::<bool>() {
                c[ui] = false;
            } else {
                c[li] = false;
            }
        }
    }

    let mut tags = vec![0u64; 2 * half];
    for i in 0..half {
        let (ui, li) = (u[i] as usize, l[i] as usize);
        let a = 2 * u[i] + u64::from(c[ui]); // travels up
        let b = 2 * l[i] + u64::from(!c[li]); // travels down
                                              // Valid orders: a first iff bit0(a) = 0; b first iff bit0(b) = 1.
        let a_first_ok = a & 1 == 0;
        let b_first_ok = b & 1 == 1;
        debug_assert!(a_first_ok || b_first_ok, "repair step guarantees a valid order");
        let a_first =
            if a_first_ok && b_first_ok { rng.random::<bool>() } else { a_first_ok };
        if a_first {
            tags[2 * i] = a;
            tags[2 * i + 1] = b;
        } else {
            tags[2 * i] = b;
            tags[2 * i + 1] = a;
        }
    }
    tags
}

/// Minimal fixed-width table printer for the experiment binaries.
///
/// # Examples
///
/// ```
/// use benes_bench::Table;
/// let mut t = Table::new(vec!["N", "routes"]);
/// t.row(vec!["8".into(), "5".into()]);
/// let s = t.render();
/// assert!(s.contains("N"));
/// assert!(s.contains("8"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<&str>) -> Self {
        Self { headers: headers.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", cells[c], w = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Enumerates all permutations of `0..len` — used by the census binaries
/// (exhaustive experiments at `n = 2, 3`).
///
/// # Panics
///
/// Panics if `len > 8` (the factorial blow-up).
#[must_use]
pub fn all_permutations(len: u32) -> Vec<Permutation> {
    assert!(len <= 8, "exhaustive enumeration limited to len <= 8");
    fn rec(rem: &mut Vec<u32>, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if rem.is_empty() {
            out.push(cur.clone());
            return;
        }
        for idx in 0..rem.len() {
            let v = rem.remove(idx);
            cur.push(v);
            rec(rem, cur, out);
            cur.pop();
            rem.insert(idx, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut (0..len).collect(), &mut Vec::new(), &mut out);
    out.into_iter()
        .map(|d| Permutation::from_destinations(d).expect("valid permutation"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_core::class_f::is_in_f;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn random_permutation_is_valid() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let p = random_permutation(&mut rng, 64);
            assert_eq!(p.len(), 64);
        }
    }

    #[test]
    fn random_bpc_is_valid_and_in_f() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let b = random_bpc(&mut rng, 5);
            assert!(is_in_f(&b.to_permutation()));
        }
    }

    #[test]
    fn random_f_member_is_always_in_f() {
        let mut rng = StdRng::seed_from_u64(13);
        for n in 1..8u32 {
            for _ in 0..40 {
                let p = random_f_member(&mut rng, n);
                assert!(is_in_f(&p), "sampler left F at n = {n}: {p}");
            }
        }
    }

    #[test]
    fn random_f_member_covers_all_of_f2() {
        // |F(2)| = 20; the sampler gives every member positive
        // probability, so a few thousand draws must hit all of them.
        let mut rng = StdRng::seed_from_u64(17);
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        for _ in 0..5000 {
            let p = random_f_member(&mut rng, 2);
            seen.insert(p.destinations().to_vec());
        }
        assert_eq!(seen.len(), 20);
    }

    #[test]
    fn random_f_member_is_not_only_bpc() {
        // The sampler must reach beyond BPC (|BPC| << |F|).
        let mut rng = StdRng::seed_from_u64(19);
        let mut non_bpc = 0;
        for _ in 0..100 {
            let p = random_f_member(&mut rng, 4);
            if benes_perm::bpc::Bpc::from_permutation(&p).is_none() {
                non_bpc += 1;
            }
        }
        assert!(non_bpc > 50, "only {non_bpc} of 100 samples were outside BPC");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn all_permutations_counts() {
        assert_eq!(all_permutations(1).len(), 1);
        assert_eq!(all_permutations(3).len(), 6);
        assert_eq!(all_permutations(4).len(), 24);
    }
}
