//! Fleet-wide statistics: per-shard [`EngineStats`] rolled up into
//! aggregate counters, a merged latency histogram, and a combined
//! exposition that keeps the per-shard breakdown as a `shard` label —
//! plus [`FleetStats`], the backend-level transport ledger roll-up
//! (`benes_fleet_*`: retries, failovers, hedges, reconnects, health).

use std::ops::Add;

use benes_engine::EngineStats;
use benes_obs::ledger::push_states;
use benes_obs::{Exposition, HistogramSnapshot, Ledger, MetricKind, Sample};

use crate::backend::BackendLedger;

/// Statistics for a whole shard fleet.
///
/// The per-shard snapshots are preserved verbatim — aggregation never
/// discards the fault-domain breakdown, because "which shard is
/// degraded" is the question this subsystem exists to answer.
#[derive(Debug, Clone)]
pub struct ShardStats {
    per_shard: Vec<EngineStats>,
}

impl ShardStats {
    /// Wraps one snapshot per shard (index = shard id).
    #[must_use]
    pub fn new(per_shard: Vec<EngineStats>) -> Self {
        Self { per_shard }
    }

    /// The per-shard snapshots, indexed by shard id.
    #[must_use]
    pub fn per_shard(&self) -> &[EngineStats] {
        &self.per_shard
    }

    /// Number of shards in the fleet.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// The fleet-wide request ledger: every shard's ledger summed.
    #[must_use]
    pub fn ledger(&self) -> Ledger {
        self.per_shard.iter().map(EngineStats::ledger).fold(Ledger::default(), Add::add)
    }

    /// Whether **every** shard's lifecycle ledger balances
    /// (`completed + failed + shed + canceled == submitted`,
    /// per shard — a fleet-level sum could hide two shards
    /// miscounting in opposite directions).
    #[must_use]
    pub fn conserves_requests(&self) -> bool {
        self.per_shard.iter().all(EngineStats::conserves_requests)
    }

    /// Whether any shard is serving around injected/detected faults.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.per_shard.iter().any(EngineStats::is_degraded)
    }

    /// Fleet-wide completed-request latency: every shard's histogram
    /// merged into one snapshot (log-bucketed, so the merge is exact).
    #[must_use]
    pub fn latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for s in &self.per_shard {
            merged.merge(&s.latency);
        }
        merged
    }

    /// Multi-line human report: one line per shard plus the fleet
    /// aggregate.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.per_shard.iter().enumerate() {
            out.push_str(&format!(
                "shard {i}: submitted={} completed={} failed={} shed={} canceled={}{}\n",
                s.submitted,
                s.completed,
                s.failed,
                s.shed,
                s.canceled,
                if s.is_degraded() { " DEGRADED" } else { "" },
            ));
        }
        let lat = self.latency();
        let l = self.ledger();
        out.push_str(&format!(
            "fleet: shards={} submitted={} completed={} failed={} shed={} canceled={} \
             p50={}ns p99={}ns conserved={}\n",
            self.shard_count(),
            l.submitted,
            l.completed,
            l.failed,
            l.shed,
            l.canceled,
            lat.quantile(0.5),
            lat.quantile(0.99),
            self.conserves_requests(),
        ));
        out
    }

    /// Combined exposition: fleet-level `benes_shard_*` families plus
    /// every shard's full engine exposition re-emitted with a
    /// `shard="<id>"` label, so one scrape answers both "how is the
    /// fleet" and "which shard is sick".
    #[must_use]
    pub fn exposition(&self) -> Exposition {
        let mut expo = Exposition::new();
        expo.describe(
            "benes_shard_fleet_size",
            MetricKind::Gauge,
            "Number of engine shards in the fleet.",
        );
        expo.push(Sample::new("benes_shard_fleet_size", self.shard_count() as f64));
        expo.describe(
            "benes_shard_requests_total",
            MetricKind::Counter,
            "Fleet-wide request lifecycle counts by terminal state.",
        );
        push_states(
            &mut expo,
            &Sample::new("benes_shard_requests_total", 0.0),
            &self.ledger().states(),
        );
        expo.describe(
            "benes_shard_degraded",
            MetricKind::Gauge,
            "Per-shard degraded flag (1 = serving around faults).",
        );
        for (i, s) in self.per_shard.iter().enumerate() {
            expo.push(
                Sample::new("benes_shard_degraded", f64::from(u8::from(s.is_degraded())))
                    .label("shard", i.to_string()),
            );
        }
        let lat = self.latency();
        expo.describe(
            "benes_shard_latency_ns",
            MetricKind::Summary,
            "Fleet-wide completed-request latency (merged across shards).",
        );
        if !lat.is_empty() {
            for q in [0.5, 0.9, 0.99] {
                expo.push(
                    Sample::new("benes_shard_latency_ns", lat.quantile(q) as f64)
                        .label("quantile", format!("{q}")),
                );
            }
        }
        expo.push(Sample::new("benes_shard_latency_ns_sum", lat.sum() as f64));
        expo.push(Sample::new("benes_shard_latency_ns_count", lat.count() as f64));
        // Per-shard drill-down: the full engine exposition, labeled.
        for (i, s) in self.per_shard.iter().enumerate() {
            for sample in s.exposition().samples() {
                expo.push(sample.clone().label("shard", i.to_string()));
            }
        }
        expo
    }
}

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

    /// Whether **every** shard's lifecycle ledger balances (per shard,
    /// never just fleet-wide — exactly like
    /// [`ShardStats::conserves_requests`]).
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
    use benes_engine::workload::mixed_workload;
    use benes_engine::{Engine, EngineConfig};
    use benes_obs::parse_prometheus;

    fn fleet_stats() -> ShardStats {
        let stats = (0..2)
            .map(|seed| {
                let e = Engine::new(EngineConfig { workers: 2, ..Default::default() });
                let outcomes = e.run_batch(mixed_workload(4, 20, seed));
                assert!(outcomes.iter().all(|o| o.result.is_ok()));
                e.stats()
            })
            .collect();
        ShardStats::new(stats)
    }

    #[test]
    fn aggregates_sum_per_shard_counters() {
        let stats = fleet_stats();
        assert_eq!(stats.shard_count(), 2);
        let ledger = stats.ledger();
        assert_eq!(ledger.submitted, 40);
        assert_eq!(ledger.completed, 40);
        assert_eq!(ledger.failed, 0);
        assert!(stats.conserves_requests());
        assert!(!stats.is_degraded());
        assert_eq!(stats.latency().count(), 40);
        assert!(stats.report().contains("fleet: shards=2"));
    }

    #[test]
    fn exposition_round_trips_and_labels_shards() {
        let stats = fleet_stats();
        let expo = stats.exposition();
        let text = expo.to_prometheus();
        let parsed = parse_prometheus(&text).expect("own exposition must parse");
        assert_eq!(parsed.len(), expo.samples().len());
        // Fleet aggregate present...
        let submitted = parsed
            .iter()
            .find(|s| {
                s.name == "benes_shard_requests_total"
                    && s.labels.contains(&("state".into(), "submitted".into()))
                    && !s.labels.iter().any(|(k, _)| k == "shard")
            })
            .expect("fleet submitted sample");
        assert_eq!(submitted.value, 40.0);
        // ...and every engine sample is re-emitted with its shard id.
        for shard in ["0", "1"] {
            let per = parsed
                .iter()
                .find(|s| {
                    s.name == "benes_requests_total"
                        && s.labels.contains(&("state".into(), "submitted".into()))
                        && s.labels.contains(&("shard".into(), (*shard).into()))
                })
                .unwrap_or_else(|| panic!("shard {shard} drill-down sample"));
            assert_eq!(per.value, 20.0);
        }
    }

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
