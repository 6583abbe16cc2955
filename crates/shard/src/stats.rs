//! Fleet-wide statistics: [`FleetStats`], one [`BackendLedger`] per
//! shard — local and remote alike — rolled up into the `benes_fleet_*`
//! exposition (lifecycle counts per shard; retries, failovers, hedges,
//! reconnects and health fleet-wide).
//!
//! Per-unit tiers and latencies are not here: every routed permutation
//! carries them in its [`crate::ShardOutcome::units`]. A shard's own
//! engine statistics live with its engine — in-process, read them from
//! the `Arc<Engine>` the shard was built from; remote, scrape the
//! daemon.

use benes_obs::ledger::push_states;
use benes_obs::{Exposition, MetricKind, Sample};

use crate::backend::BackendLedger;

/// Backend-level statistics for the whole fleet: one
/// [`BackendLedger`] per shard (local or remote) plus its description,
/// rolled up into the `benes_fleet_*` exposition — the resilience
/// counters (`retries`, `failovers`, `hedges`, `reconnects`) and the
/// per-shard health gauge the fleet gate greps for.
#[derive(Debug, Clone)]
pub struct FleetStats {
    per_shard: Vec<(String, BackendLedger)>,
}

impl FleetStats {
    /// Wraps one `(description, ledger)` pair per shard (index = shard
    /// id).
    #[must_use]
    pub fn new(per_shard: Vec<(String, BackendLedger)>) -> Self {
        Self { per_shard }
    }

    /// The per-shard ledgers, indexed by shard id.
    #[must_use]
    pub fn per_shard(&self) -> &[(String, BackendLedger)] {
        &self.per_shard
    }

    /// Number of shards (backends) in the fleet.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    fn total(&self, f: impl Fn(&BackendLedger) -> u64) -> u64 {
        self.per_shard.iter().map(|(_, l)| f(l)).sum()
    }

    /// Total unit re-sends after transport failures, fleet-wide.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.total(|l| l.retries)
    }

    /// Total primary→spare failovers, fleet-wide.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.total(|l| l.failovers)
    }

    /// Total hedged duplicate sends, fleet-wide.
    #[must_use]
    pub fn hedges(&self) -> u64 {
        self.total(|l| l.hedges)
    }

    /// Total reconnections after the first connect, fleet-wide.
    #[must_use]
    pub fn reconnects(&self) -> u64 {
        self.total(|l| l.reconnects)
    }

    /// Whether **every** shard's lifecycle ledger balances
    /// (`completed + failed + shed + canceled == submitted`, per shard —
    /// a fleet-level sum could hide two shards miscounting in opposite
    /// directions).
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.per_shard.iter().all(|(_, l)| l.requests.conserves_requests())
    }

    /// The shards whose latest health verdict is "down".
    #[must_use]
    pub fn unhealthy_shards(&self) -> Vec<usize> {
        self.per_shard
            .iter()
            .enumerate()
            .filter_map(|(i, (_, l))| (!l.healthy).then_some(i))
            .collect()
    }

    /// Multi-line human report: one line per backend plus the fleet
    /// aggregate (stable prefixes; `scripts/fleet.sh` greps these).
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (i, (desc, l)) in self.per_shard.iter().enumerate() {
            out.push_str(&format!(
                "fleet shard {i} [{desc}]: submitted={} completed={} failed={} shed={} \
                 canceled={} retries={} failovers={} hedges={} reconnects={} healthy={} \
                 conserved={}\n",
                l.requests.submitted,
                l.requests.completed,
                l.requests.failed,
                l.requests.shed,
                l.requests.canceled,
                l.retries,
                l.failovers,
                l.hedges,
                l.reconnects,
                l.healthy,
                l.requests.conserves_requests(),
            ));
        }
        out.push_str(&format!(
            "fleet: shards={} retries={} failovers={} hedges={} reconnects={} \
             unhealthy={:?} conserved={}\n",
            self.shard_count(),
            self.retries(),
            self.failovers(),
            self.hedges(),
            self.reconnects(),
            self.unhealthy_shards(),
            self.conserves_requests(),
        ));
        out
    }

    /// The `benes_fleet_*` exposition: resilience counters fleet-wide,
    /// plus a per-shard health gauge and per-shard lifecycle counters
    /// labeled by shard id and backend kind.
    #[must_use]
    pub fn exposition(&self) -> Exposition {
        let mut expo = Exposition::new();
        expo.describe(
            "benes_fleet_size",
            MetricKind::Gauge,
            "Number of shard backends in the fleet.",
        );
        expo.push(Sample::new("benes_fleet_size", self.shard_count() as f64));
        for (name, help, v) in [
            (
                "benes_fleet_retries_total",
                "Unit re-sends after a transport failure or timeout.",
                self.retries(),
            ),
            (
                "benes_fleet_failovers_total",
                "Units moved from an unreachable or breaker-open primary to its spare.",
                self.failovers(),
            ),
            (
                "benes_fleet_hedges_total",
                "Duplicate sends racing the primary's tail latency on the spare.",
                self.hedges(),
            ),
            (
                "benes_fleet_reconnects_total",
                "Connections re-established after the first.",
                self.reconnects(),
            ),
        ] {
            expo.describe(name, MetricKind::Counter, help);
            expo.push(Sample::new(name, v as f64));
        }
        expo.describe(
            "benes_fleet_shard_healthy",
            MetricKind::Gauge,
            "Per-shard health verdict (1 = last heartbeat probe succeeded).",
        );
        expo.describe(
            "benes_fleet_requests_total",
            MetricKind::Counter,
            "Per-shard unit lifecycle counts by terminal state.",
        );
        for (i, (_, l)) in self.per_shard.iter().enumerate() {
            expo.push(
                Sample::new("benes_fleet_shard_healthy", f64::from(u8::from(l.healthy)))
                    .label("shard", i.to_string())
                    .label("kind", l.kind),
            );
            // The fleet family has always exported five states, and the
            // scrape golden pins them, so it stops before `rejected`.
            // Only a local backend can carry a non-zero `rejected`: its
            // engine refuses admission while draining.
            let template = Sample::new("benes_fleet_requests_total", 0.0)
                .label("shard", i.to_string())
                .label("kind", l.kind);
            push_states(&mut expo, &template, &l.requests.states()[..5]);
        }
        expo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use benes_obs::{parse_prometheus, Ledger};

    #[test]
    fn fleet_ledger_exposition_carries_resilience_counters_and_health() {
        let healthy = BackendLedger {
            kind: "remote",
            requests: Ledger { submitted: 10, completed: 9, shed: 1, ..Ledger::default() },
            retries: 2,
            healthy: true,
            ..BackendLedger::default()
        };
        let dead = BackendLedger {
            kind: "remote",
            requests: Ledger { submitted: 4, failed: 4, ..Ledger::default() },
            failovers: 3,
            hedges: 1,
            reconnects: 5,
            ..BackendLedger::default()
        };
        let fleet = FleetStats::new(vec![
            ("remote 127.0.0.1:1".into(), healthy),
            ("remote 127.0.0.1:2".into(), dead),
        ]);
        assert_eq!(fleet.retries(), 2);
        assert_eq!(fleet.failovers(), 3);
        assert_eq!(fleet.hedges(), 1);
        assert_eq!(fleet.reconnects(), 5);
        assert!(fleet.conserves_requests());
        assert_eq!(fleet.unhealthy_shards(), vec![1]);
        assert!(fleet.report().contains("fleet: shards=2"));

        let text = fleet.exposition().to_prometheus();
        let parsed = parse_prometheus(&text).expect("fleet exposition must parse");
        let failovers = parsed
            .iter()
            .find(|s| s.name == "benes_fleet_failovers_total")
            .expect("failover counter");
        assert_eq!(failovers.value, 3.0);
        let gauge = parsed
            .iter()
            .find(|s| {
                s.name == "benes_fleet_shard_healthy"
                    && s.labels.contains(&("shard".into(), "1".into()))
            })
            .expect("shard 1 health gauge");
        assert_eq!(gauge.value, 0.0);
    }
}
