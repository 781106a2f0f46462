//! FIFO-served shared resources with queueing delay.
//!
//! The cluster simulator models two kinds of contended resources exactly as
//! the paper does: the split-transaction memory bus inside each SMP node and
//! the network interface (NI) of each node's cluster device ("we model
//! contention at the network interfaces accurately").  Both are modeled as
//! single servers with FIFO service: a request arriving while the server is
//! busy waits until the in-flight requests drain.
//!
//! The model is intentionally simple — `busy_until` bookkeeping rather than
//! an explicit event calendar — because requests are presented to each
//! resource in nondecreasing time order by the simulator's global event
//! loop.

use crate::cycles::Cycles;

/// Occupancy statistics accumulated by a [`Resource`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Number of acquisitions.
    pub requests: u64,
    /// Total service time (occupancy) charged, in cycles.
    pub busy: Cycles,
    /// Total time requests spent queued behind earlier requests.
    pub queued: Cycles,
    /// Latest completion time observed.
    pub last_completion: Cycles,
}

impl ResourceStats {
    /// Mean queueing delay per request, in cycles (0 if no requests).
    pub fn mean_queue_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queued.raw() as f64 / self.requests as f64
        }
    }

    /// Utilization relative to an observation window ending at
    /// `self.last_completion` (0 if nothing happened).
    pub fn utilization(&self) -> f64 {
        if self.last_completion.is_zero() {
            0.0
        } else {
            self.busy.raw() as f64 / self.last_completion.raw() as f64
        }
    }
}

/// A single-server FIFO resource.
///
/// `acquire(now, service)` returns the interval `[start, finish)` during
/// which the request holds the resource, where `start >= now` accounts for
/// queueing behind earlier requests and `finish = start + service`.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    name: String,
    busy_until: Cycles,
    stats: ResourceStats,
}

/// The grant returned by [`Resource::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service actually starts (>= request time).
    pub start: Cycles,
    /// When service completes and the resource becomes free again.
    pub finish: Cycles,
    /// How long the request waited behind earlier traffic.
    pub queue_delay: Cycles,
}

impl Resource {
    /// Create a named resource (the name is only used for reporting).
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            busy_until: Cycles::ZERO,
            stats: ResourceStats::default(),
        }
    }

    /// The resource's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Time at which the server becomes idle.
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Acquire the resource at time `now` for `service` cycles, FIFO behind
    /// any earlier unfinished request.
    pub fn acquire(&mut self, now: Cycles, service: Cycles) -> Grant {
        let start = now.max(self.busy_until);
        let queue_delay = start - now;
        let finish = start + service;
        self.busy_until = finish;
        self.stats.requests += 1;
        self.stats.busy += service;
        self.stats.queued += queue_delay;
        self.stats.last_completion = self.stats.last_completion.max(finish);
        Grant {
            start,
            finish,
            queue_delay,
        }
    }

    /// Peek at the completion time a request issued at `now` with the given
    /// `service` would observe, without actually occupying the resource.
    pub fn probe(&self, now: Cycles, service: Cycles) -> Cycles {
        now.max(self.busy_until) + service
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ResourceStats {
        &self.stats
    }

    /// Reset occupancy and statistics (used between experiment runs).
    pub fn reset(&mut self) {
        self.busy_until = Cycles::ZERO;
        self.stats = ResourceStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_requests_start_immediately() {
        let mut bus = Resource::new("bus");
        let g = bus.acquire(Cycles::new(100), Cycles::new(6));
        assert_eq!(g.start, Cycles::new(100));
        assert_eq!(g.finish, Cycles::new(106));
        assert_eq!(g.queue_delay, Cycles::ZERO);
    }

    #[test]
    fn back_to_back_requests_queue_fifo() {
        let mut bus = Resource::new("bus");
        bus.acquire(Cycles::new(0), Cycles::new(10));
        // Second request arrives at t=4 while the first is still in service.
        let g = bus.acquire(Cycles::new(4), Cycles::new(10));
        assert_eq!(g.start, Cycles::new(10));
        assert_eq!(g.finish, Cycles::new(20));
        assert_eq!(g.queue_delay, Cycles::new(6));
    }

    #[test]
    fn idle_gap_does_not_accumulate_delay() {
        let mut ni = Resource::new("ni");
        ni.acquire(Cycles::new(0), Cycles::new(5));
        let g = ni.acquire(Cycles::new(100), Cycles::new(5));
        assert_eq!(g.start, Cycles::new(100));
        assert_eq!(g.queue_delay, Cycles::ZERO);
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut r = Resource::new("r");
        r.acquire(Cycles::new(0), Cycles::new(8));
        let before = r.busy_until();
        let t = r.probe(Cycles::new(2), Cycles::new(3));
        assert_eq!(t, Cycles::new(11));
        assert_eq!(r.busy_until(), before);
        assert_eq!(r.stats().requests, 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = Resource::new("r");
        r.acquire(Cycles::new(0), Cycles::new(10));
        r.acquire(Cycles::new(0), Cycles::new(10));
        r.acquire(Cycles::new(50), Cycles::new(10));
        let s = r.stats();
        assert_eq!(s.requests, 3);
        assert_eq!(s.busy, Cycles::new(30));
        assert_eq!(s.queued, Cycles::new(10));
        assert_eq!(s.last_completion, Cycles::new(60));
        assert!((s.mean_queue_delay() - 10.0 / 3.0).abs() < 1e-9);
        assert!((s.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("r");
        r.acquire(Cycles::new(0), Cycles::new(10));
        r.reset();
        assert_eq!(r.busy_until(), Cycles::ZERO);
        assert_eq!(r.stats().requests, 0);
    }

    #[test]
    fn empty_stats_have_zero_rates() {
        let s = ResourceStats::default();
        assert_eq!(s.mean_queue_delay(), 0.0);
        assert_eq!(s.utilization(), 0.0);
    }
}
