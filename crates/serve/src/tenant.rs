//! Per-tenant fair scheduling: deficit round-robin (DRR) over one
//! bounded backlog queue per tenant.
//!
//! The server decodes Route frames faster than the engine admits them
//! when a tenant floods, so *which* pending request gets the next
//! engine slot decides fairness. Classic DRR: active tenants sit in a
//! round-robin ring; each visit tops the tenant's deficit up by one
//! quantum, and the tenant serves requests while its deficit covers
//! their cost (here: the permutation length, capped at the quantum so
//! no single request can starve the ring). A flooding tenant therefore
//! gets exactly its round share, not the whole engine.
//!
//! Quotas are enforced at [`DrrScheduler::enqueue`]: a tenant whose
//! backlog is at its quota is refused immediately (the caller surfaces
//! [`crate::proto::Status::QuotaExceeded`]) — bounded memory per
//! tenant, no matter how hard it floods.

use std::collections::{HashMap, VecDeque};

/// One queued unit of work, tagged with the cost DRR charges for it.
#[derive(Debug)]
struct Entry<T> {
    cost: u32,
    item: T,
}

/// Deficit-round-robin scheduler over per-tenant FIFO backlogs.
#[derive(Debug)]
pub struct DrrScheduler<T> {
    /// Per-tenant backlog; removed when drained.
    queues: HashMap<u64, VecDeque<Entry<T>>>,
    /// Per-tenant accumulated serving credit.
    deficits: HashMap<u64, u32>,
    /// Round-robin ring of tenants with queued work.
    ring: VecDeque<u64>,
    /// Credit added per ring visit; also the per-request cost cap.
    quantum: u32,
    /// Max queued entries per tenant before `enqueue` refuses.
    quota: usize,
    /// Total queued entries across all tenants.
    len: usize,
}

/// `enqueue` refusal: the tenant's backlog is at quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaExceeded;

impl<T> DrrScheduler<T> {
    /// A scheduler serving `quantum` cost units per tenant per round,
    /// refusing tenants whose backlog reaches `quota` entries.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` or `quota` is zero.
    #[must_use]
    pub fn new(quantum: u32, quota: usize) -> Self {
        assert!(quantum > 0, "quantum must be at least 1");
        assert!(quota > 0, "quota must be at least 1");
        Self {
            queues: HashMap::new(),
            deficits: HashMap::new(),
            ring: VecDeque::new(),
            quantum,
            quota,
            len: 0,
        }
    }

    /// Whether no work is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` for tenant `tenant` at `cost` (clamped to
    /// `[1, quantum]` so every entry is eventually servable).
    ///
    /// # Errors
    ///
    /// [`QuotaExceeded`] when the tenant's backlog is at quota; the
    /// item is returned untouched inside the error path by value — the
    /// caller still owns it.
    pub fn enqueue(
        &mut self,
        tenant: u64,
        cost: u32,
        item: T,
    ) -> Result<(), (QuotaExceeded, T)> {
        let queue = self.queues.entry(tenant).or_default();
        if queue.len() >= self.quota {
            return Err((QuotaExceeded, item));
        }
        if queue.is_empty() && !self.ring.contains(&tenant) {
            self.ring.push_back(tenant);
        }
        queue.push_back(Entry { cost: cost.clamp(1, self.quantum), item });
        self.len += 1;
        Ok(())
    }

    /// The next item under DRR order, with its tenant, or `None` when
    /// nothing is queued.
    pub fn dequeue(&mut self) -> Option<(u64, u32, T)> {
        // Each ring visit either serves (returns) or rotates the tenant
        // with a fresh quantum; since cost ≤ quantum, a tenant is
        // always servable by its second visit, so the loop is bounded
        // by 2 · |ring|.
        let mut visits = self.ring.len().saturating_mul(2);
        while let Some(&tenant) = self.ring.front() {
            let Some(queue) = self.queues.get_mut(&tenant) else {
                self.ring.pop_front();
                continue;
            };
            let Some(head) = queue.front() else {
                self.ring.pop_front();
                self.queues.remove(&tenant);
                self.deficits.remove(&tenant);
                continue;
            };
            let deficit = self.deficits.entry(tenant).or_insert(0);
            if *deficit >= head.cost {
                *deficit -= head.cost;
                let entry = queue.pop_front().expect("head exists");
                self.len -= 1;
                if queue.is_empty() {
                    self.ring.pop_front();
                    self.queues.remove(&tenant);
                    self.deficits.remove(&tenant);
                }
                return Some((tenant, entry.cost, entry.item));
            }
            // Not enough credit: grant a quantum and rotate. The credit
            // does not survive an emptied queue (removed above), so an
            // idle tenant cannot bank an unbounded burst allowance.
            *deficit = deficit.saturating_add(self.quantum);
            self.ring.rotate_left(1);
            visits = visits.saturating_sub(1);
            if visits == 0 {
                break;
            }
        }
        None
    }

    /// Drains every queued entry (for shutdown: each gets a Draining
    /// reply), in no particular order.
    pub fn drain_all(&mut self) -> Vec<(u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        for (tenant, queue) in self.queues.drain() {
            for entry in queue {
                out.push((tenant, entry.item));
            }
        }
        self.ring.clear();
        self.deficits.clear();
        self.len = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tenant_is_fifo() {
        let mut s = DrrScheduler::new(16, 100);
        for i in 0..5 {
            s.enqueue(1, 4, i).unwrap();
        }
        let order: Vec<i32> =
            std::iter::from_fn(|| s.dequeue().map(|(_, _, x)| x)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn flooding_tenant_cannot_starve_the_other() {
        // Tenant 1 floods 100 entries; tenant 2 queues 10. Equal costs
        // mean DRR must interleave them ~1:1 until tenant 2 drains.
        let mut s = DrrScheduler::new(8, 1000);
        for i in 0..100 {
            s.enqueue(1, 8, ("flood", i)).unwrap();
        }
        for i in 0..10 {
            s.enqueue(2, 8, ("steady", i)).unwrap();
        }
        let mut first20 = Vec::new();
        for _ in 0..20 {
            let (tenant, _, _) = s.dequeue().unwrap();
            first20.push(tenant);
        }
        let steady_share = first20.iter().filter(|&&t| t == 2).count();
        assert!(
            steady_share >= 9,
            "tenant 2 got only {steady_share}/10 slots in the first 20: {first20:?}"
        );
    }

    #[test]
    fn costs_weight_the_shares() {
        // Tenant 1's entries cost a full quantum, tenant 2's a quarter:
        // tenant 2 must serve ~4 entries per tenant-1 entry.
        let mut s = DrrScheduler::new(8, 1000);
        for i in 0..10 {
            s.enqueue(1, 8, i).unwrap();
        }
        for i in 0..40 {
            s.enqueue(2, 2, i).unwrap();
        }
        let mut served = (0usize, 0usize);
        for _ in 0..25 {
            match s.dequeue().unwrap().0 {
                1 => served.0 += 1,
                _ => served.1 += 1,
            }
        }
        assert!(served.1 >= 3 * served.0, "cheap tenant must serve ~4x: got {served:?}");
    }

    #[test]
    fn quota_refuses_and_returns_the_item() {
        let mut s = DrrScheduler::new(4, 2);
        s.enqueue(5, 1, "a").unwrap();
        s.enqueue(5, 1, "b").unwrap();
        let (QuotaExceeded, item) = s.enqueue(5, 1, "c").unwrap_err();
        assert_eq!(item, "c");
        // Another tenant is unaffected by 5's full backlog.
        s.enqueue(6, 1, "d").unwrap();
        let mut queued: Vec<_> = std::iter::from_fn(|| s.dequeue().map(|e| e.2)).collect();
        queued.sort_unstable();
        assert_eq!(queued, ["a", "b", "d"]);
    }

    #[test]
    fn drain_all_empties_everything() {
        let mut s = DrrScheduler::new(4, 10);
        s.enqueue(1, 1, 10).unwrap();
        s.enqueue(2, 1, 20).unwrap();
        s.enqueue(2, 1, 21).unwrap();
        let mut drained = s.drain_all();
        drained.sort_unstable();
        assert_eq!(drained, vec![(1, 10), (2, 20), (2, 21)]);
        assert!(s.is_empty());
        assert!(s.dequeue().is_none());
    }

    #[test]
    fn oversized_cost_is_clamped_to_the_quantum() {
        // cost > quantum would starve forever under strict DRR; the
        // clamp keeps every entry servable.
        let mut s = DrrScheduler::new(4, 10);
        s.enqueue(1, 1000, "big").unwrap();
        assert_eq!(s.dequeue().unwrap().2, "big");
    }
}
