//! The shard coordinator: scatter a decomposed permutation across a
//! fleet of independent engines, gather the per-unit outcomes, and
//! report exactly how much of the permutation was routed.
//!
//! Each shard is a [`Backend`] — an in-process [`Engine`] or a remote
//! process fronting one — with its own plan cache, fault registry,
//! circuit breakers, worker pool, and stats recorder. That makes every
//! shard an independent *fault domain*: a stuck switch, an
//! open breaker, or a chaos failpoint on shard `i` can only take down
//! the routing units assigned to shard `i`; every other unit still
//! completes and the [`ShardOutcome`] accounts for the difference
//! instead of failing the whole permutation.
//!
//! Unit placement is static and deterministic: stage-1 and stage-3
//! units for block `b` go to shard `b mod k`, the between-stage unit
//! for color `c` goes to shard `c mod k`. Static placement is what
//! makes the fault-domain story *checkable* — given an outcome you can
//! recompute which shard every unit ran on and assert that failures
//! never leak across the boundary (`scripts/shard.sh` does exactly
//! that).

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use benes_engine::{Engine, EngineConfig, EngineError, Tier};
use benes_perm::Permutation;

use crate::backend::{Backend, BackendDrain, LocalShard, UnitTicket};
use crate::decompose::{balanced_block_bits, decompose, DecomposeError, Decomposition};
use crate::stats::FleetStats;

/// Configuration for a [`ShardCoordinator`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of engine shards in the fleet (`>= 1`).
    pub shards: usize,
    /// Configuration applied to every per-shard engine.
    pub engine: EngineConfig,
    /// Optional per-unit deadline: each scattered sub-request carries
    /// `now + deadline`, so a wedged shard sheds its units instead of
    /// stalling the gather forever.
    pub deadline: Option<Duration>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { shards: 4, engine: EngineConfig::default(), deadline: None }
    }
}

/// Error returned by [`ShardCoordinator::route`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShardError {
    /// The permutation could not be block-decomposed.
    Decompose(DecomposeError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Decompose(e) => write!(f, "decomposition failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Decompose(e) => Some(e),
        }
    }
}

impl From<DecomposeError> for ShardError {
    fn from(e: DecomposeError) -> Self {
        Self::Decompose(e)
    }
}

/// Which stage of the three-stage factorization a routing unit belongs
/// to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: within the source block (`index` = source block).
    SourceBlock,
    /// Stage 2: between blocks (`index` = color).
    Between,
    /// Stage 3: within the destination block (`index` = destination
    /// block).
    DestBlock,
}

impl Stage {
    /// Stable lowercase name, used in metric labels and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::SourceBlock => "source",
            Self::Between => "between",
            Self::DestBlock => "dest",
        }
    }
}

/// The outcome of one scattered routing unit (one sub-permutation on
/// one shard).
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The factorization stage the unit implements.
    pub stage: Stage,
    /// Block index (stage 1/3) or color index (between stage).
    pub index: usize,
    /// The shard the unit was placed on.
    pub shard: usize,
    /// The engine's terminal result for the unit: the tier that served
    /// it, or why it failed/was shed.
    pub result: Result<Tier, EngineError>,
    /// Submit → completion latency on the owning shard.
    pub latency: Duration,
}

impl UnitOutcome {
    /// Whether the unit routed successfully.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }
}

/// The gathered result of routing one permutation across the fleet —
/// including partial completion when some shards degraded.
///
/// An element of the original permutation is *routed* iff all three of
/// its units completed: its source block's stage-1 unit, its color's
/// between-stage unit, and its destination block's stage-3 unit.
/// `routed_elements` counts exactly those elements, so degraded mode is
/// quantified rather than all-or-nothing.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Index width of the routed permutation (`2^n` elements).
    pub n: u32,
    /// Block width used (`2^r`-element blocks).
    pub block_bits: u32,
    /// Per-unit outcomes, in scatter order (stage 1 blocks, between
    /// colors, stage 3 blocks).
    pub units: Vec<UnitOutcome>,
    /// Total elements in the permutation (`2^n`).
    pub total_elements: u64,
    /// Elements whose full three-stage path completed.
    pub routed_elements: u64,
    /// Source blocks with at least one unrouted element — the blast
    /// radius of whatever failed, in units the caller can re-submit.
    pub degraded_blocks: Vec<usize>,
    /// `true` iff every unit completed **and** the recombined stages
    /// reproduce the original permutation bitwise.
    pub verified: bool,
}

impl ShardOutcome {
    /// Whether every routing unit completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.units.iter().all(UnitOutcome::is_ok)
    }

    /// Whether any element went unrouted.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.routed_elements < self.total_elements
    }

    /// The units that failed or were shed.
    #[must_use]
    pub fn failed_units(&self) -> Vec<&UnitOutcome> {
        self.units.iter().filter(|u| !u.is_ok()).collect()
    }

    /// The shards that owned at least one failed unit.
    #[must_use]
    pub fn failed_shards(&self) -> Vec<usize> {
        let mut shards: Vec<usize> =
            self.units.iter().filter(|u| !u.is_ok()).map(|u| u.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "n={} r={} units={} ok={} routed={}/{} verified={}",
            self.n,
            self.block_bits,
            self.units.len(),
            self.units.iter().filter(|u| u.is_ok()).count(),
            self.routed_elements,
            self.total_elements,
            self.verified,
        )
    }
}

/// Block-decomposition coordinator over a fleet of engine shards.
///
/// See the [module docs](self) for placement and fault-domain
/// semantics.
pub struct ShardCoordinator {
    config: ShardConfig,
    backends: Vec<Box<dyn Backend>>,
}

impl ShardCoordinator {
    /// Builds an all-local fleet: `config.shards` in-process engines,
    /// each from its own copy of `config.engine`. A caller that needs
    /// the engines themselves (to arm chaos, inject faults or read
    /// breakers) builds them and passes [`LocalShard`]s to
    /// [`ShardCoordinator::with_backends`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0` (a fleet needs at least one
    /// shard).
    #[must_use]
    pub fn new(config: ShardConfig) -> Self {
        assert!(config.shards > 0, "shard fleet needs at least one engine");
        let backends = (0..config.shards)
            .map(|_| {
                let engine = Arc::new(Engine::new(config.engine.clone()));
                Box::new(LocalShard::new(engine)) as Box<dyn Backend>
            })
            .collect();
        Self { config, backends }
    }

    /// Builds a fleet over explicit backends — mix in-process
    /// [`LocalShard`]s and remote [`crate::remote::RemoteShard`]s
    /// freely; placement and fault-domain semantics are identical.
    ///
    /// # Panics
    ///
    /// Panics if `backends` is empty.
    #[must_use]
    pub fn with_backends(mut config: ShardConfig, backends: Vec<Box<dyn Backend>>) -> Self {
        assert!(!backends.is_empty(), "shard fleet needs at least one backend");
        config.shards = backends.len();
        Self { config, backends }
    }

    /// The coordinator's configuration.
    #[must_use]
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// Number of shards (backends) in the fleet.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.backends.len()
    }

    /// Direct access to one shard backend.
    #[must_use]
    pub fn backend(&self, shard: usize) -> &dyn Backend {
        self.backends[shard].as_ref()
    }

    /// The shard that owns block `b`'s stage-1 and stage-3 units.
    #[must_use]
    pub fn shard_for_block(&self, block: usize) -> usize {
        block % self.backends.len()
    }

    /// The shard that owns color `c`'s between-stage unit.
    #[must_use]
    pub fn shard_for_color(&self, color: usize) -> usize {
        color % self.backends.len()
    }

    /// Routes `pi` across the fleet: decompose → scatter → gather →
    /// recombine-verify. Partial failures do not error; they surface in
    /// the returned [`ShardOutcome`].
    ///
    /// # Errors
    ///
    /// Only decomposition can fail (`pi` not a power of two, or too
    /// small to split); everything after scatter reaches a terminal
    /// per-unit outcome.
    pub fn route(&self, pi: &Permutation) -> Result<ShardOutcome, ShardError> {
        let d = self.decompose_for(pi)?;
        let deadline = self.config.deadline.map(|d| Instant::now() + d);
        let tickets = self.scatter(&d, deadline);
        let units = gather(tickets);
        Ok(self.recombine(pi, &d, units))
    }

    /// Runs just the decomposition step this coordinator would use for
    /// `pi`: the balanced block width `r = ⌈n/2⌉`, so both stage
    /// networks are as small as they can be.
    ///
    /// # Errors
    ///
    /// Propagates [`DecomposeError`] for unservable lengths.
    pub fn decompose_for(&self, pi: &Permutation) -> Result<Decomposition, ShardError> {
        let n = pi.log2_len().ok_or(DecomposeError::NotPowerOfTwo { len: pi.len() })?;
        if n < 2 {
            return Err(DecomposeError::TooSmall { len: pi.len() }.into());
        }
        Ok(decompose(pi, balanced_block_bits(n))?)
    }

    /// Per-backend lifecycle + resilience ledgers for the whole fleet —
    /// local and remote shards alike — with the fleet-level retry,
    /// failover, hedge and health exposition.
    #[must_use]
    pub fn fleet_stats(&self) -> FleetStats {
        FleetStats::new(self.backends.iter().map(|b| (b.describe(), b.ledger())).collect())
    }

    /// Drains every shard against the same deadline, returning each
    /// backend's report in shard order. Remote shards get a `Drain`
    /// frame over the wire (bounded — a dead process reports
    /// `unreachable` instead of hanging the fleet). After this, the
    /// coordinator no longer routes.
    pub fn drain_all(&self, deadline: Instant) -> Vec<BackendDrain> {
        self.backends.iter().map(|b| b.drain(deadline)).collect()
    }

    /// Scatters the decomposition's units to their shards — one
    /// [`Backend::submit_batch`] per shard carrying that shard's whole
    /// share — and tags each ticket with its stage/index/shard for the
    /// gather, in scatter order (stage 1 blocks, between colors,
    /// stage 3 blocks).
    fn scatter(
        &self,
        d: &Decomposition,
        deadline: Option<Instant>,
    ) -> Vec<(Stage, usize, usize, UnitTicket)> {
        let placed: Vec<(Stage, usize, usize, &Permutation)> =
            (d.stage1().iter().enumerate())
                .map(|(b, p)| (Stage::SourceBlock, b, self.shard_for_block(b), p))
                .chain(
                    d.between()
                        .iter()
                        .enumerate()
                        .map(|(c, p)| (Stage::Between, c, self.shard_for_color(c), p)),
                )
                .chain(
                    d.stage3()
                        .iter()
                        .enumerate()
                        .map(|(b, p)| (Stage::DestBlock, b, self.shard_for_block(b), p)),
                )
                .collect();
        let mut shares = vec![Vec::new(); self.backends.len()];
        for &(_, _, shard, p) in &placed {
            shares[shard].push(p.clone());
        }
        // Backends resolve rejected/unreachable admissions to
        // already-terminal tickets themselves, so this never blocks
        // gather.
        let mut tickets: Vec<_> = shares
            .into_iter()
            .zip(&self.backends)
            .map(|(share, backend)| backend.submit_batch(share, deadline).into_iter())
            .collect();
        placed
            .into_iter()
            .map(|(stage, index, shard, _)| {
                let ticket = tickets[shard].next().expect("one ticket per unit");
                (stage, index, shard, ticket)
            })
            .collect()
    }

    /// Counts routed elements and verifies recombination.
    fn recombine(
        &self,
        pi: &Permutation,
        d: &Decomposition,
        units: Vec<UnitOutcome>,
    ) -> ShardOutcome {
        let blocks = d.block_count();
        let size = d.block_size();
        let r = d.block_bits();
        let mut source_ok = vec![false; blocks];
        let mut color_ok = vec![false; size];
        let mut dest_ok = vec![false; blocks];
        for u in &units {
            let ok = u.is_ok();
            match u.stage {
                Stage::SourceBlock => source_ok[u.index] = ok,
                Stage::Between => color_ok[u.index] = ok,
                Stage::DestBlock => dest_ok[u.index] = ok,
            }
        }
        let mut routed = 0u64;
        let mut block_degraded = vec![false; blocks];
        for x in 0..pi.len() {
            let b = x >> r;
            let c = d.stage1()[b].destination(x & (size - 1)) as usize;
            let db = d.between()[c].destination(b) as usize;
            if source_ok[b] && color_ok[c] && dest_ok[db] {
                routed += 1;
            } else {
                block_degraded[b] = true;
            }
        }
        let complete = units.iter().all(UnitOutcome::is_ok);
        ShardOutcome {
            n: d.n(),
            block_bits: r,
            total_elements: pi.len() as u64,
            routed_elements: routed,
            degraded_blocks: block_degraded
                .iter()
                .enumerate()
                .filter_map(|(b, &bad)| bad.then_some(b))
                .collect(),
            verified: complete && d.recombines_to(pi),
            units,
        }
    }
}

impl fmt::Debug for ShardCoordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardCoordinator")
            .field("shards", &self.backends.len())
            .finish_non_exhaustive()
    }
}

/// Waits out every ticket, preserving scatter order. Backends guarantee
/// every ticket resolves (rejections and unreachable backends are
/// already-terminal tickets), so gather always returns.
fn gather(tickets: Vec<(Stage, usize, usize, UnitTicket)>) -> Vec<UnitOutcome> {
    tickets
        .into_iter()
        .map(|(stage, index, shard, ticket)| {
            let reply = ticket.wait();
            UnitOutcome {
                stage,
                index,
                shard,
                result: reply.result,
                latency: reply.latency,
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use benes_engine::chaos::ChaosConfig;
    use benes_engine::workload::{random_permutation, Rng64};

    fn small_engine() -> EngineConfig {
        EngineConfig { workers: 2, ..EngineConfig::default() }
    }

    /// A fleet of `shards` local engines built from `engine`, with the
    /// engines handed back for chaos arming and breaker inspection.
    pub(crate) fn local_fleet(
        shards: usize,
        engine: &EngineConfig,
    ) -> (ShardCoordinator, Vec<Arc<Engine>>) {
        let engines: Vec<_> =
            (0..shards).map(|_| Arc::new(Engine::new(engine.clone()))).collect();
        let backends = engines
            .iter()
            .map(|e| Box::new(LocalShard::new(Arc::clone(e))) as Box<dyn Backend>)
            .collect();
        (ShardCoordinator::with_backends(ShardConfig::default(), backends), engines)
    }

    fn coordinator(shards: usize) -> ShardCoordinator {
        ShardCoordinator::new(ShardConfig {
            shards,
            engine: small_engine(),
            ..ShardConfig::default()
        })
    }

    #[test]
    fn routes_and_verifies_small_permutations() {
        let coord = coordinator(3);
        for n in 2..=10u32 {
            let pi = random_permutation(&mut Rng64::new(u64::from(n)), 1usize << n);
            let out = coord.route(&pi).unwrap();
            assert!(out.is_complete(), "n={n}: {}", out.summary());
            assert!(out.verified, "n={n}: {}", out.summary());
            assert_eq!(out.routed_elements, out.total_elements);
            assert!(out.degraded_blocks.is_empty());
        }
        let fleet = coord.fleet_stats();
        assert!(fleet.conserves_requests(), "{}", fleet.report());
        assert!(fleet.per_shard().iter().all(|(_, l)| l.requests.failed == 0));
    }

    #[test]
    fn rejects_unservable_lengths() {
        let coord = coordinator(2);
        let three = Permutation::from_destinations(vec![2, 0, 1]).unwrap();
        assert!(matches!(
            coord.route(&three),
            Err(ShardError::Decompose(DecomposeError::NotPowerOfTwo { len: 3 }))
        ));
        let two = Permutation::identity(2);
        assert!(matches!(
            coord.route(&two),
            Err(ShardError::Decompose(DecomposeError::TooSmall { len: 2 }))
        ));
    }

    #[test]
    fn placement_is_deterministic_round_robin() {
        let coord = coordinator(3);
        let pi = random_permutation(&mut Rng64::new(9), 1 << 6);
        // Balanced blocks: r = ⌈n/2⌉ at odd and even n.
        assert_eq!(coord.decompose_for(&pi).unwrap().block_bits(), 3);
        let odd = random_permutation(&mut Rng64::new(9), 1 << 5);
        assert_eq!(coord.decompose_for(&odd).unwrap().block_bits(), 3);
        let out = coord.route(&pi).unwrap();
        for u in &out.units {
            let expect = match u.stage {
                Stage::SourceBlock | Stage::DestBlock => coord.shard_for_block(u.index),
                Stage::Between => coord.shard_for_color(u.index),
            };
            assert_eq!(u.shard, expect);
        }
    }

    #[test]
    fn chaos_on_one_shard_degrades_only_its_units() {
        // The satellite-6 regression: a failpoint armed on shard 0 must
        // not touch any unit placed on shards 1..k. Breakers may open on
        // shard 0 (that is the point — its fault domain), so failures
        // there can be FaultDetected, Injected, or BreakerOpen; what
        // matters is *where* they land.
        let (coord, engines) = local_fleet(4, &small_engine());
        engines[0].set_chaos(ChaosConfig::always_fail(7));
        let pi = random_permutation(&mut Rng64::new(3), 1 << 10);
        let out = coord.route(&pi).unwrap();
        assert!(!out.is_complete());
        assert!(out.is_degraded());
        assert!(!out.verified);
        assert_eq!(out.failed_shards(), vec![0], "failures leaked: {}", out.summary());
        for u in &out.units {
            if u.shard != 0 {
                assert!(u.is_ok(), "unit on shard {} failed: {:?}", u.shard, u.result);
            }
        }
        // Partial completion, not collapse: with 1 of 4 shards dark,
        // elements whose three units all dodge shard 0 still route
        // (~(3/4)^3 of them), and accounting stays element-exact.
        assert!(out.routed_elements > 0, "{}", out.summary());
        assert!(out.routed_elements < out.total_elements);
        assert!(!out.degraded_blocks.is_empty());
        // Recovery: disarm chaos and the same permutation verifies.
        engines[0].clear_chaos();
        let healed = coord.route(&pi).unwrap();
        assert!(healed.verified, "post-heal: {}", healed.summary());
        // Other shards never saw a failure in their own ledgers either.
        let fleet = coord.fleet_stats();
        let ledgers: Vec<_> = fleet.per_shard().iter().map(|(_, l)| l.requests).collect();
        for shard in 1..4 {
            assert_eq!(ledgers[shard].failed, 0);
        }
        assert!(ledgers[0].failed > 0);
        assert!(fleet.conserves_requests());
    }

    #[test]
    fn breaker_open_shard_degrades_only_its_own_units() {
        // Satellite regression: enable per-shard breakers, hammer shard
        // 2 with a failpoint until its breaker opens, and check the
        // open breaker's shedding stays inside shard 2's fault domain.
        use benes_engine::{BreakerConfig, BreakerState};
        let (coord, engines) = local_fleet(
            4,
            &EngineConfig {
                workers: 2,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    base_backoff: Duration::from_secs(30),
                    ..BreakerConfig::default()
                },
                ..EngineConfig::default()
            },
        );
        engines[2].set_chaos(ChaosConfig::always_fail(13));
        let pi = random_permutation(&mut Rng64::new(17), 1 << 10);
        let first = coord.route(&pi).unwrap();
        assert_eq!(first.failed_shards(), vec![2]);
        // r = 5 → shard 2 serves order-5 units; its breaker must now be
        // open (threshold 2, far more failures than that).
        assert_eq!(engines[2].breaker_state(5), Some(BreakerState::Open));
        // Chaos off, breaker still open (30s backoff): shard 2 sheds
        // with BreakerOpen, every other shard still completes.
        engines[2].clear_chaos();
        let second = coord.route(&pi).unwrap();
        assert_eq!(second.failed_shards(), vec![2], "{}", second.summary());
        assert!(second
            .failed_units()
            .iter()
            .all(|u| matches!(u.result, Err(EngineError::BreakerOpen))));
        assert!(second.routed_elements > 0);
        let fleet = coord.fleet_stats();
        assert!(fleet.conserves_requests());
        for shard in [0usize, 1, 3] {
            let ledger = fleet.per_shard()[shard].1.requests;
            assert_eq!(ledger.failed, 0);
            assert_eq!(ledger.shed, 0);
        }
    }

    #[test]
    fn deadline_config_still_routes_healthy_fleet() {
        let coord = ShardCoordinator::new(ShardConfig {
            shards: 2,
            engine: small_engine(),
            deadline: Some(Duration::from_secs(30)),
        });
        let pi = random_permutation(&mut Rng64::new(11), 1 << 8);
        let out = coord.route(&pi).unwrap();
        assert!(out.verified, "{}", out.summary());
    }

    #[test]
    fn drain_all_stops_the_fleet() {
        let coord = coordinator(2);
        let pi = random_permutation(&mut Rng64::new(1), 1 << 6);
        assert!(coord.route(&pi).unwrap().verified);
        let reports = coord.drain_all(Instant::now() + Duration::from_secs(5));
        assert_eq!(reports.len(), 2);
    }
}
