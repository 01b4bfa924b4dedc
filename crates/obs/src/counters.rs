//! The counter catalogue and the lock-free aggregation hub.
//!
//! Each subsystem (backend engine, every event port, each OS thread,
//! each frontend) owns an [`CounterBlock`] — a fixed array of relaxed
//! `AtomicU64`s it alone increments — registered with the run's
//! [`ObsHub`]. Nothing is shared on the hot path; the hub walks the
//! blocks once at the end of the run and sums them into a
//! [`CounterSnapshot`]. Increments on an owned cache line with relaxed
//! ordering cost a handful of cycles; hook sites additionally gate on an
//! `Option` so a disabled run pays only the branch.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The fixed counter catalogue. The numeric value is the slot index in a
/// [`CounterBlock`]; the catalogue is append-only so exported reports
/// stay comparable across versions. A counter whose mechanism is deleted
/// is retired, not renumbered: its slot stays reserved (see
/// [`RETIRED`]) and the next survivor carries an explicit index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Memory-reference events serviced by the backend.
    EventsMemRef,
    /// Synchronisation events (locks/barriers) serviced.
    EventsSync,
    /// Device-command events serviced.
    EventsDev,
    /// Control events (start/exit/block/shm/map…) serviced.
    EventsCtl,
    /// Scheduler dispatches (a process installed on a CPU).
    SchedDispatches,
    /// Quantum-expiry preemptions delivered.
    SchedPreemptions,
    /// Page faults taken (soft faults + demand fills).
    PageFaults,
    /// TLB misses charged by address translation.
    TlbMisses,
    /// DSM page transfers/invalidations (CC-NUMA/COMA/SW-DSM modes).
    DsmTransfers,
    /// Interval-timer ticks serviced by the backend.
    TimerTicks,
    /// Interrupts dispatched to the bottom-half daemon.
    IrqDispatches,
    /// Replies delivered to blocked posters.
    Replies,
    /// Progress snapshots emitted.
    ProgressSnapshots,
    /// Blocking posts through an event ring.
    RingPosts,
    /// Events published in batched (credit) mode.
    RingBatched,
    /// Doorbell notifications raised on empty→non-empty transitions.
    RingNotifies,
    /// Posts that found the consumer idle and had to park the poster
    /// past the fast spin (a full thread park = one stall).
    RingStalls,
    /// Posts answered with `Aborted` because the ring was poisoned.
    RingAborts,
    /// Sum of ring occupancy sampled at each pop (divide by
    /// [`Ctr::PortOccSamples`] for mean batch depth actually seen).
    PortOccSum,
    /// Number of occupancy samples.
    PortOccSamples,
    /// System calls dispatched by OS threads.
    OsCalls,
    /// Pseudo-interrupt requests handled by OS threads.
    OsPseudoIrqs,
    /// Events posted by frontends (app processes).
    FrontendPosts,
    /// Wall-clock ns frontends spent generating events (thread lifetime
    /// minus communication wait).
    FrontendGenNs,
    /// Wall-clock ns frontends spent blocked in the communicator.
    CommWaitNs,
    /// Wall-clock ns the backend spent servicing events.
    BackendActiveNs,
    /// Wall-clock ns the backend spent waiting for posts.
    BackendWaitNs,
    /// Trace records dropped because the ring was full.
    TraceDropped,
    /// Memory references resolved locally by a frontend's L1/TLB mirror
    /// (charged the fixed L1-hit latency without a port rendezvous).
    RefsFiltered,
    /// Mirror refreshes forced by a stale per-CPU epoch.
    EpochRefreshes,
    /// Filtered-reference log flushes pushed through a port.
    FilterFlushes,
    /// Replayed filtered references whose true latency differed from the
    /// frontend's pre-charged L1-hit latency (mirror mispredictions).
    FilterMispredicts,
    /// Blocking posts answered during the bounded reply spin, avoiding a
    /// full thread park.
    RingSpinsAvoidedPark,
    /// Syscall replies that aggregated work instead of round-tripping per
    /// event: each `DoneBatch` result beyond the first, plus each `Done`
    /// whose kernel context left batched events for credit to settle.
    OsBatchedReplies = 36,
    /// Device completion wake events scheduled (disk completions and
    /// network deliveries entered into the engine's task heap).
    DeviceWakeEvents = 38,
    /// Interval-timer polls skipped because the target CPU was idle (the
    /// tick disarms instead of rescheduling).
    DevicePollsEliminated,
    /// Disk/NIC completion deliveries that woke the blocked OS bottom-half
    /// daemon (wake-driven, not polled).
    DiskWakeEvents,
    /// Device-queue probes (blocked-daemon checks and handler drain
    /// passes) the postbox due-time summary answered without a lock
    /// acquisition or queue scan.
    DiskPollsEliminated,
    // Slot 42 is retired: the next counter appended here needs `= 43`.
}

/// Slots of retired counters, as `(slot, former name)`. They stay
/// reserved so no surviving counter is renumbered; nothing increments,
/// reports or exports them. Slots 33–35 counted the sharded backend's
/// window protocol, 37 and 42 the kernel reference filter — both
/// mechanisms are deleted (see DESIGN.md, "Removed mechanisms").
pub const RETIRED: [(usize, &str); 5] = [
    (33, "shard_private_jobs"),
    (34, "shard_stalls"),
    (35, "shard_staged_events"),
    (37, "kernel_refs_filtered"),
    (42, "kernel_mirror_refreshes"),
];

/// Number of slots in a [`CounterBlock`]: every live counter plus the
/// retired slots, so the catalogue never shrinks.
pub const CTR_COUNT: usize = Ctr::ALL.len() + RETIRED.len();

impl Ctr {
    /// Every live counter, in slot order.
    pub const ALL: [Ctr; 38] = [
        Ctr::EventsMemRef,
        Ctr::EventsSync,
        Ctr::EventsDev,
        Ctr::EventsCtl,
        Ctr::SchedDispatches,
        Ctr::SchedPreemptions,
        Ctr::PageFaults,
        Ctr::TlbMisses,
        Ctr::DsmTransfers,
        Ctr::TimerTicks,
        Ctr::IrqDispatches,
        Ctr::Replies,
        Ctr::ProgressSnapshots,
        Ctr::RingPosts,
        Ctr::RingBatched,
        Ctr::RingNotifies,
        Ctr::RingStalls,
        Ctr::RingAborts,
        Ctr::PortOccSum,
        Ctr::PortOccSamples,
        Ctr::OsCalls,
        Ctr::OsPseudoIrqs,
        Ctr::FrontendPosts,
        Ctr::FrontendGenNs,
        Ctr::CommWaitNs,
        Ctr::BackendActiveNs,
        Ctr::BackendWaitNs,
        Ctr::TraceDropped,
        Ctr::RefsFiltered,
        Ctr::EpochRefreshes,
        Ctr::FilterFlushes,
        Ctr::FilterMispredicts,
        Ctr::RingSpinsAvoidedPark,
        Ctr::OsBatchedReplies,
        Ctr::DeviceWakeEvents,
        Ctr::DevicePollsEliminated,
        Ctr::DiskWakeEvents,
        Ctr::DiskPollsEliminated,
    ];

    /// True for counters that measure the *host* transport mechanics
    /// (posts, replies, parks, doorbells, occupancy, wall-clock ns,
    /// mirror-filter hits) rather than the simulated machine. Two runs
    /// of the same configuration produce bit-identical simulated
    /// counters, but the host set races: mirror filtering depends on
    /// the backend-epoch-vs-frontend interleaving (a ref filtered in
    /// one run posts in another, shifting every post/reply/pop count
    /// downstream), and parks/stalls/ns are wall-clock by definition —
    /// even though `BackendStats` stays bit-identical throughout.
    /// Report generators (the fleet runner's aggregate JSON) segregate
    /// these so reports stay byte-comparable modulo the host.
    pub fn host_timing(self) -> bool {
        // Inverted match: the *simulated-machine* counters — event,
        // syscall, fault, dispatch, and device-wake counts driven
        // purely by simulated time — are the reproducible set.
        !matches!(
            self,
            Ctr::EventsMemRef
                | Ctr::EventsSync
                | Ctr::EventsDev
                | Ctr::EventsCtl
                | Ctr::SchedDispatches
                | Ctr::SchedPreemptions
                | Ctr::PageFaults
                | Ctr::TlbMisses
                | Ctr::DsmTransfers
                | Ctr::TimerTicks
                | Ctr::IrqDispatches
                | Ctr::OsCalls
                | Ctr::OsPseudoIrqs
                | Ctr::DeviceWakeEvents
                | Ctr::DevicePollsEliminated
                | Ctr::DiskWakeEvents
                | Ctr::DiskPollsEliminated
        )
    }

    /// Reverse of [`Ctr::name`].
    pub fn by_name(name: &str) -> Option<Ctr> {
        Ctr::ALL.iter().copied().find(|c| c.name() == name)
    }

    /// Stable snake_case name used in reports and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::EventsMemRef => "events_memref",
            Ctr::EventsSync => "events_sync",
            Ctr::EventsDev => "events_dev",
            Ctr::EventsCtl => "events_ctl",
            Ctr::SchedDispatches => "sched_dispatches",
            Ctr::SchedPreemptions => "sched_preemptions",
            Ctr::PageFaults => "page_faults",
            Ctr::TlbMisses => "tlb_misses",
            Ctr::DsmTransfers => "dsm_transfers",
            Ctr::TimerTicks => "timer_ticks",
            Ctr::IrqDispatches => "irq_dispatches",
            Ctr::Replies => "replies",
            Ctr::ProgressSnapshots => "progress_snapshots",
            Ctr::RingPosts => "ring_posts",
            Ctr::RingBatched => "ring_batched",
            Ctr::RingNotifies => "ring_notifies",
            Ctr::RingStalls => "ring_stalls",
            Ctr::RingAborts => "ring_aborts",
            Ctr::PortOccSum => "port_occ_sum",
            Ctr::PortOccSamples => "port_occ_samples",
            Ctr::OsCalls => "os_calls",
            Ctr::OsPseudoIrqs => "os_pseudo_irqs",
            Ctr::FrontendPosts => "frontend_posts",
            Ctr::FrontendGenNs => "frontend_gen_ns",
            Ctr::CommWaitNs => "comm_wait_ns",
            Ctr::BackendActiveNs => "backend_active_ns",
            Ctr::BackendWaitNs => "backend_wait_ns",
            Ctr::TraceDropped => "trace_dropped",
            Ctr::RefsFiltered => "refs_filtered",
            Ctr::EpochRefreshes => "epoch_refreshes",
            Ctr::FilterFlushes => "filter_flushes",
            Ctr::FilterMispredicts => "filter_mispredicts",
            Ctr::RingSpinsAvoidedPark => "ring_spins_avoided_park",
            Ctr::OsBatchedReplies => "os_batched_replies",
            Ctr::DeviceWakeEvents => "device_wake_events",
            Ctr::DevicePollsEliminated => "device_polls_eliminated",
            Ctr::DiskWakeEvents => "disk_wake_events",
            Ctr::DiskPollsEliminated => "disk_polls_eliminated",
        }
    }
}

/// One subsystem's counters: a fixed array of relaxed atomics. The owner
/// increments; the hub reads at merge time.
pub struct CounterBlock {
    slots: [AtomicU64; CTR_COUNT],
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBlock {
    /// A zeroed block.
    pub fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, c: Ctr, n: u64) {
        self.slots[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&self, c: Ctr) {
        self.add(c, 1);
    }

    /// Current value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.slots[c as usize].load(Ordering::Relaxed)
    }
}

/// Merged totals across every registered block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    totals: [u64; CTR_COUNT],
}

impl CounterSnapshot {
    /// Value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.totals[c as usize]
    }

    /// Every live counter with its stable name, in catalogue order.
    pub fn all(&self) -> Vec<(&'static str, u64)> {
        Ctr::ALL.iter().map(|c| (c.name(), self.get(*c))).collect()
    }
}

/// The per-run registry of counter blocks. Registration happens during
/// setup (mutex-protected, cold); merging happens once after the run.
#[derive(Default)]
pub struct ObsHub {
    blocks: Mutex<Vec<(String, Arc<CounterBlock>)>>,
}

impl ObsHub {
    /// A fresh hub.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers and returns a new block for `label` (labels are for
    /// debugging; duplicates are fine — blocks merge by summing).
    pub fn register(&self, label: &str) -> Arc<CounterBlock> {
        let block = Arc::new(CounterBlock::new());
        self.blocks
            .lock()
            .push((label.to_string(), Arc::clone(&block)));
        block
    }

    /// Sums every registered block.
    pub fn merge(&self) -> CounterSnapshot {
        let mut totals = [0u64; CTR_COUNT];
        for (_, block) in self.blocks.lock().iter() {
            for (i, slot) in totals.iter_mut().enumerate() {
                *slot += block.slots[i].load(Ordering::Relaxed);
            }
        }
        CounterSnapshot { totals }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_consistent() {
        // Every slot is exactly one live counter or one retired slot.
        let mut slots: Vec<usize> = Ctr::ALL.iter().map(|&c| c as usize).collect();
        slots.extend(RETIRED.iter().map(|&(i, _)| i));
        slots.sort_unstable();
        assert_eq!(slots, (0..CTR_COUNT).collect::<Vec<_>>());
        for w in Ctr::ALL.windows(2) {
            assert!((w[0] as usize) < (w[1] as usize), "ALL out of slot order");
        }
        let mut names: Vec<_> = Ctr::ALL.iter().map(|c| c.name()).collect();
        names.extend(RETIRED.iter().map(|&(_, n)| n));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CTR_COUNT, "duplicate counter name");
    }

    /// The catalogue as it stood before the sharded backend and the
    /// kernel reference filter were deleted: `(slot, name)` for every
    /// counter, in slot order. Consumers read counters by name
    /// (perfbench, the fleet JSON) or by slot (`CounterBlock`), so a
    /// survivor must keep both.
    const HISTORICAL: [(usize, &str); 43] = [
        (0, "events_memref"),
        (1, "events_sync"),
        (2, "events_dev"),
        (3, "events_ctl"),
        (4, "sched_dispatches"),
        (5, "sched_preemptions"),
        (6, "page_faults"),
        (7, "tlb_misses"),
        (8, "dsm_transfers"),
        (9, "timer_ticks"),
        (10, "irq_dispatches"),
        (11, "replies"),
        (12, "progress_snapshots"),
        (13, "ring_posts"),
        (14, "ring_batched"),
        (15, "ring_notifies"),
        (16, "ring_stalls"),
        (17, "ring_aborts"),
        (18, "port_occ_sum"),
        (19, "port_occ_samples"),
        (20, "os_calls"),
        (21, "os_pseudo_irqs"),
        (22, "frontend_posts"),
        (23, "frontend_gen_ns"),
        (24, "comm_wait_ns"),
        (25, "backend_active_ns"),
        (26, "backend_wait_ns"),
        (27, "trace_dropped"),
        (28, "refs_filtered"),
        (29, "epoch_refreshes"),
        (30, "filter_flushes"),
        (31, "filter_mispredicts"),
        (32, "ring_spins_avoided_park"),
        (33, "shard_private_jobs"),
        (34, "shard_stalls"),
        (35, "shard_staged_events"),
        (36, "os_batched_replies"),
        (37, "kernel_refs_filtered"),
        (38, "device_wake_events"),
        (39, "device_polls_eliminated"),
        (40, "disk_wake_events"),
        (41, "disk_polls_eliminated"),
        (42, "kernel_mirror_refreshes"),
    ];

    #[test]
    fn retiring_counters_renumbers_nothing_and_exports_nothing() {
        assert!(CTR_COUNT >= HISTORICAL.len(), "the catalogue shrank");
        for &(slot, name) in &HISTORICAL {
            match Ctr::by_name(name) {
                Some(c) => assert_eq!(c as usize, slot, "{name} moved"),
                None => assert!(
                    RETIRED.contains(&(slot, name)),
                    "{name} vanished without being retired"
                ),
            }
        }
        // Retired slots are dead even if something wrote to them: a
        // snapshot's export lists live counters only.
        let hub = ObsHub::new();
        let block = hub.register("x");
        for c in Ctr::ALL {
            block.inc(c);
        }
        for &(slot, _) in &RETIRED {
            block.slots[slot].fetch_add(1, Ordering::Relaxed);
        }
        let exported = hub.merge().all();
        assert_eq!(exported.len(), Ctr::ALL.len());
        for &(_, name) in &RETIRED {
            assert!(
                exported.iter().all(|&(n, _)| n != name),
                "retired {name} exported"
            );
        }
    }

    #[test]
    fn names_round_trip_and_classify() {
        for c in Ctr::ALL {
            assert_eq!(Ctr::by_name(c.name()), Some(c), "{c:?}");
        }
        assert_eq!(Ctr::by_name("no_such_counter"), None);
        // Wall-clock measurements, ring traffic, and mirror-filter hits
        // are host timing; simulated event/syscall/device counts are
        // reproducible.
        assert!(Ctr::FrontendGenNs.host_timing());
        assert!(Ctr::RingNotifies.host_timing());
        assert!(Ctr::RefsFiltered.host_timing());
        assert!(Ctr::Replies.host_timing());
        assert!(!Ctr::EventsMemRef.host_timing());
        assert!(!Ctr::OsCalls.host_timing());
        assert!(!Ctr::DiskWakeEvents.host_timing());
    }

    #[test]
    fn hub_merges_across_blocks() {
        let hub = ObsHub::new();
        let a = hub.register("backend");
        let b = hub.register("port-0");
        a.add(Ctr::EventsMemRef, 3);
        b.inc(Ctr::EventsMemRef);
        b.inc(Ctr::RingNotifies);
        let snap = hub.merge();
        assert_eq!(snap.get(Ctr::EventsMemRef), 4);
        assert_eq!(snap.get(Ctr::RingNotifies), 1);
        assert_eq!(snap.get(Ctr::OsCalls), 0);
        assert_eq!(snap.all().len(), Ctr::ALL.len());
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let hub = ObsHub::new();
        let block = hub.register("x");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&block);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        b.inc(Ctr::FrontendPosts);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(hub.merge().get(Ctr::FrontendPosts), 40_000);
    }
}
