//! The fleet soak: route a stream of random permutations across a
//! coordinator whose backends may be in-process engines or **remote
//! processes**, while something outside the soak takes shards down
//! mid-stream — a test thread, `scripts/fleet.sh` with `kill -9`, or
//! an `on_round` callback arming a chaos failpoint on a local shard's
//! engine (`benes-cli shard soak`, behind `scripts/shard.sh`) — then
//! check the invariants the fleet promises.
//!
//! The fault is deliberately *outside* the soak: shard death arrives
//! asynchronously, between or during rounds, and the soak treats an
//! in-process failpoint and a dead process alike. It only declares
//! which shards are *allowed* to fail ([`FleetSoakConfig::killable`])
//! and classifies every failure against that set:
//!
//! * **contamination** — a failed unit on a shard outside the killable
//!   set. Must be zero: a dead process may only degrade its own units.
//! * **recombination mismatch** — an element in a surviving (non
//!   degraded) source block whose three-stage path does not reproduce
//!   the original permutation bitwise. Must be zero: degraded mode
//!   returns *correct partial* answers, never wrong ones.
//! * **conservation** — every backend's ledger balances at the end,
//!   dead shards included (their lost units must land in a terminal
//!   bucket, not vanish).

use std::time::Duration;

use benes_engine::workload::{random_permutation, Rng64};

use crate::coordinator::{ShardCoordinator, ShardOutcome};
use crate::stats::FleetStats;

/// Configuration for [`run_fleet_soak`].
#[derive(Debug, Clone)]
pub struct FleetSoakConfig {
    /// Seed for the permutation stream.
    pub seed: u64,
    /// Index width of each soaked permutation (`2^n` elements).
    pub n: u32,
    /// How many permutations to route.
    pub rounds: usize,
    /// Pause between rounds, giving an external killer a window to
    /// land mid-soak (zero is fine for clean runs).
    pub round_pause: Duration,
    /// The shards an external killer is allowed to take down. Failures
    /// on any *other* shard count as contamination.
    pub killable: Vec<usize>,
}

impl FleetSoakConfig {
    /// Default soak: 8 permutations of `2^10`, 50ms between rounds, no
    /// shard allowed to die.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            n: 10,
            rounds: 8,
            round_pause: Duration::from_millis(50),
            killable: Vec::new(),
        }
    }
}

/// What the fleet soak observed; [`FleetSoakReport::healthy`] is the
/// gate.
#[derive(Debug, Clone)]
pub struct FleetSoakReport {
    /// Rounds routed in total.
    pub rounds: usize,
    /// Rounds that completed and recombined bitwise.
    pub verified_rounds: usize,
    /// Rounds with at least one unrouted element.
    pub degraded_rounds: usize,
    /// Rounds where every unit completed but recombination failed
    /// (must be zero — a completed round is a verified round).
    pub unverified_complete_rounds: usize,
    /// Failed units on shards **outside** the killable set — the
    /// cardinal sin (must be zero).
    pub contaminated_units: usize,
    /// Failed units on killable shards (nonzero iff the killer landed).
    pub killable_failures: usize,
    /// Elements in surviving source blocks whose recombined path does
    /// not match the original permutation (must be zero: degraded mode
    /// is partial, never wrong).
    pub recombine_mismatches: u64,
    /// Whether every backend's ledger balanced at the end.
    pub conservation_ok: bool,
    /// Final per-backend ledgers + resilience counters.
    pub fleet: FleetStats,
}

impl FleetSoakReport {
    /// The soak gate: zero contamination, zero wrong answers in
    /// surviving blocks, conservation everywhere, and every round
    /// accounted for as verified or (legitimately) degraded.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.contaminated_units == 0
            && self.recombine_mismatches == 0
            && self.unverified_complete_rounds == 0
            && self.conservation_ok
            && self.verified_rounds + self.degraded_rounds == self.rounds
    }

    /// Multi-line human rendering (stable `fleet-soak:` prefixes;
    /// `scripts/fleet.sh` greps these).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "fleet-soak: rounds={} verified={} degraded={} unverified_complete={}\n",
            self.rounds,
            self.verified_rounds,
            self.degraded_rounds,
            self.unverified_complete_rounds,
        ));
        out.push_str(&format!(
            "fleet-soak: contaminated_units={} killable_failures={} \
             recombine_mismatches={} conservation_ok={}\n",
            self.contaminated_units,
            self.killable_failures,
            self.recombine_mismatches,
            self.conservation_ok,
        ));
        out.push_str(&self.fleet.report());
        out.push_str(&format!(
            "fleet-soak: {}\n",
            if self.healthy() { "HEALTHY" } else { "UNHEALTHY" },
        ));
        out
    }
}

/// Runs the soak against `coord` (whose backends the caller built —
/// local, remote, or mixed), calling `on_round` after each round with
/// the round index and its outcome (the CLI streams these so an
/// external killer can time its strike).
pub fn run_fleet_soak(
    coord: &ShardCoordinator,
    cfg: &FleetSoakConfig,
    mut on_round: impl FnMut(usize, &ShardOutcome),
) -> FleetSoakReport {
    let mut rng = Rng64::new(cfg.seed);
    let mut verified = 0;
    let mut degraded = 0;
    let mut unverified_complete = 0;
    let mut contaminated = 0;
    let mut killable_failures = 0;
    let mut mismatches = 0u64;

    for round in 0..cfg.rounds {
        let pi = random_permutation(&mut rng, 1usize << cfg.n);
        let outcome = coord.route(&pi).expect("power-of-two soak perms decompose");
        if outcome.verified {
            verified += 1;
        } else if outcome.is_complete() {
            unverified_complete += 1;
        }
        if outcome.is_degraded() {
            degraded += 1;
        }
        for u in outcome.units.iter().filter(|u| !u.is_ok()) {
            if cfg.killable.contains(&u.shard) {
                killable_failures += 1;
            } else {
                contaminated += 1;
            }
        }
        // Surviving blocks must recombine bitwise even in a degraded
        // round: the decomposition is coordinator-local math, so a dead
        // shard can remove elements from the answer but never corrupt
        // the ones that remain.
        let d = coord.decompose_for(&pi).expect("route above already decomposed");
        let r = d.block_bits();
        for x in 0..pi.len() {
            if outcome.degraded_blocks.contains(&(x >> r)) {
                continue;
            }
            if d.recombined_destination(x as u64) != u64::from(pi.destination(x)) {
                mismatches += 1;
            }
        }
        on_round(round, &outcome);
        if !cfg.round_pause.is_zero() && round + 1 < cfg.rounds {
            // analyze:allow(sleep-poll): the soak paces its rounds on purpose, so a kill lands between wire exchanges
            std::thread::sleep(cfg.round_pause);
        }
    }

    let fleet = coord.fleet_stats();
    FleetSoakReport {
        rounds: cfg.rounds,
        verified_rounds: verified,
        degraded_rounds: degraded,
        unverified_complete_rounds: unverified_complete,
        contaminated_units: contaminated,
        killable_failures,
        recombine_mismatches: mismatches,
        conservation_ok: fleet.conserves_requests(),
        fleet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::tests::local_fleet;
    use benes_engine::chaos::ChaosConfig;
    use benes_engine::{Engine, EngineConfig};
    use std::sync::Arc;

    fn local_coord(shards: usize) -> (ShardCoordinator, Vec<Arc<Engine>>) {
        local_fleet(shards, &EngineConfig { workers: 2, ..EngineConfig::default() })
    }

    fn quick(seed: u64) -> FleetSoakConfig {
        FleetSoakConfig {
            n: 8,
            rounds: 4,
            round_pause: Duration::ZERO,
            ..FleetSoakConfig::new(seed)
        }
    }

    #[test]
    fn clean_fleet_soak_is_healthy() {
        let (coord, _) = local_coord(3);
        let mut seen = 0;
        let report = run_fleet_soak(&coord, &quick(1), |_, out| {
            assert!(out.verified);
            seen += 1;
        });
        assert_eq!(seen, 4);
        assert_eq!(report.verified_rounds, 4);
        assert_eq!(report.degraded_rounds, 0);
        assert!(report.healthy(), "{}", report.render());
        assert!(report.render().contains("HEALTHY"));
    }

    #[test]
    fn chaos_on_a_killable_shard_degrades_without_contamination() {
        let (coord, engines) = local_coord(4);
        engines[1].set_chaos(ChaosConfig::always_fail(99));
        let cfg = FleetSoakConfig { killable: vec![1], ..quick(2) };
        let report = run_fleet_soak(&coord, &cfg, |_, _| {});
        assert!(report.degraded_rounds > 0);
        assert!(report.killable_failures > 0);
        assert_eq!(report.contaminated_units, 0);
        assert_eq!(report.recombine_mismatches, 0);
        assert!(report.healthy(), "{}", report.render());
    }

    #[test]
    fn chaos_outside_the_killable_set_is_contamination() {
        let (coord, engines) = local_coord(4);
        engines[2].set_chaos(ChaosConfig::always_fail(7));
        let cfg = FleetSoakConfig { killable: vec![0], ..quick(3) };
        let report = run_fleet_soak(&coord, &cfg, |_, _| {});
        assert!(report.contaminated_units > 0);
        assert!(!report.healthy());
        assert!(report.render().contains("UNHEALTHY"));
    }
}
