//! Cooperative scan budgets: fuel + wall-clock deadline.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vbadet_metrics::MetricsSink;

/// How many charges pass between wall-clock reads. `Instant::now()` costs
/// tens of nanoseconds; one fuel unit represents roughly a kilobyte of
/// parsing work, so checking every 64th charge bounds deadline overshoot
/// to ~64 KiB of work while keeping the clean-path overhead to a couple
/// of branches per charge.
const CLOCK_PERIOD: u32 = 64;

/// Why a [`Budget`] refused further work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The fuel allowance was spent.
    Fuel,
    /// The per-scan memory ceiling was crossed (see [`Budget::new_guarded`]).
    Memory,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "wall-clock deadline exceeded"),
            BudgetExceeded::Fuel => write!(f, "fuel budget exhausted"),
            BudgetExceeded::Memory => write!(f, "memory ceiling exceeded"),
        }
    }
}

impl Error for BudgetExceeded {}

/// `tripped` encoding: the breach reason as a small atomic.
const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_FUEL: u8 = 2;
const TRIP_MEMORY: u8 = 3;

fn decode_trip(raw: u8) -> Option<BudgetExceeded> {
    match raw {
        TRIP_DEADLINE => Some(BudgetExceeded::Deadline),
        TRIP_FUEL => Some(BudgetExceeded::Fuel),
        TRIP_MEMORY => Some(BudgetExceeded::Memory),
        _ => None,
    }
}

fn encode_trip(why: BudgetExceeded) -> u8 {
    match why {
        BudgetExceeded::Deadline => TRIP_DEADLINE,
        BudgetExceeded::Fuel => TRIP_FUEL,
        BudgetExceeded::Memory => TRIP_MEMORY,
    }
}

/// A cooperative memory guard: `probe` reports the current live allocation
/// (typically the scanning thread's, from a tracking global allocator);
/// the budget trips [`BudgetExceeded::Memory`] when growth over the
/// baseline captured at construction exceeds `ceiling` bytes.
#[derive(Debug, Clone, Copy)]
struct MemCeiling {
    probe: fn() -> u64,
    baseline: u64,
    ceiling: u64,
}

impl MemCeiling {
    fn breached(&self) -> bool {
        (self.probe)().saturating_sub(self.baseline) > self.ceiling
    }
}

#[derive(Debug)]
struct BudgetState {
    /// Absolute cut-off; `None` means no wall-clock bound.
    deadline: Option<Instant>,
    /// Remaining fuel units; only consulted when `metered`.
    fuel: AtomicU64,
    /// Whether fuel accounting is active.
    metered: bool,
    /// Optional live-allocation ceiling, probed on the same amortized
    /// cadence as the wall clock.
    mem: Option<MemCeiling>,
    /// Fast-path gate: false for unlimited budgets.
    active: bool,
    /// Charges remaining until the next wall-clock read.
    clock_countdown: AtomicU32,
    /// Sticky breach: once a budget trips, every later charge fails with
    /// the same reason, so the layers after the one that tripped it (a
    /// salvage sweep after a failed parse, say) fail fast instead of
    /// re-running to the deadline.
    tripped: AtomicU8,
    /// Observability handle riding along with the budget so every layer
    /// the budget already reaches (zip, ole, ovba, extract) can record
    /// counters without new plumbing. Disabled (free) by default.
    metrics: MetricsSink,
}

/// A cooperative cancellation token threaded through parser hot loops.
///
/// Cloning is cheap and clones **share** state (one allowance per
/// document, however many layers charge against it). One fuel unit
/// corresponds to roughly a kilobyte of parsing work — a sector read, an
/// MS-OVBA chunk, a kilobyte of inflated output — deliberately coarse so
/// the charge itself stays a few branches.
///
/// A `Budget` is `Send` and `Sync` (`Arc` + relaxed atomics): the parallel
/// batch engine mints one per document on whichever worker thread claims
/// it. Its fuel and deadline are shared by every clone, but its memory
/// ceiling is only as wide as its probe (see [`Budget::new_guarded`]), and
/// the scanner's probe counts the calling thread's allocations. Such a
/// budget is charged on the thread that minted it: a charge from another
/// thread would compare that thread's count against the minting thread's
/// baseline. Scanning is parallel across documents, never within one, so
/// the atomics are uncontended in practice.
#[derive(Debug, Clone)]
pub struct Budget(Arc<BudgetState>);

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    fn build(
        deadline: Option<Instant>,
        fuel: Option<u64>,
        mem: Option<MemCeiling>,
        metrics: MetricsSink,
    ) -> Self {
        Budget(Arc::new(BudgetState {
            deadline,
            fuel: AtomicU64::new(fuel.unwrap_or(u64::MAX)),
            metered: fuel.is_some(),
            mem,
            active: deadline.is_some() || fuel.is_some() || mem.is_some(),
            clock_countdown: AtomicU32::new(CLOCK_PERIOD),
            tripped: AtomicU8::new(TRIP_NONE),
            metrics,
        }))
    }

    /// A budget that never trips. Charging it is a single branch.
    pub fn unlimited() -> Self {
        Budget::build(None, None, None, MetricsSink::disabled())
    }

    /// A budget bounded by fuel only.
    pub fn with_fuel(fuel: u64) -> Self {
        Budget::build(None, Some(fuel), None, MetricsSink::disabled())
    }

    /// A budget with an optional deadline, optional fuel and an optional
    /// memory ceiling, carrying a [`MetricsSink`] so the parser layers the
    /// budget traverses can record pipeline counters (`None, None, None`
    /// with a disabled sink is [`Budget::unlimited`]). `mem` is a
    /// `(probe, ceiling_bytes)` pair where `probe` reports the current live
    /// allocation (from a tracking global allocator; a per-thread probe
    /// must be read on the thread that minted the budget). The
    /// baseline is read at construction; once live allocation grows more
    /// than `ceiling_bytes` past it, charges fail with
    /// [`BudgetExceeded::Memory`]. Enforcement is cooperative — the probe
    /// is read on the same amortized cadence as the wall clock — so a
    /// single giant allocation is the caller's job to pre-check; what this
    /// catches is cumulative blowup across parsing loops.
    pub fn new_guarded(
        deadline: Option<Duration>,
        fuel: Option<u64>,
        mem: Option<(fn() -> u64, u64)>,
        metrics: MetricsSink,
    ) -> Self {
        let mem = mem.map(|(probe, ceiling)| MemCeiling {
            probe,
            baseline: probe(),
            ceiling,
        });
        Budget::build(deadline.map(|d| Instant::now() + d), fuel, mem, metrics)
    }

    /// The metrics handle riding with this budget (disabled unless the
    /// budget was built via [`Budget::new_guarded`] with an enabled sink).
    #[inline]
    pub fn metrics(&self) -> &MetricsSink {
        &self.0.metrics
    }

    fn trip(&self, why: BudgetExceeded) -> BudgetExceeded {
        self.0.tripped.store(encode_trip(why), Ordering::Relaxed);
        why
    }

    /// Records `cost` units of work.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the fuel allowance is spent or the
    /// wall-clock deadline has passed — and, stickily, on every charge
    /// after the first breach.
    #[inline]
    pub fn charge(&self, cost: u64) -> Result<(), BudgetExceeded> {
        let s = &*self.0;
        if !s.active {
            return Ok(());
        }
        if let Some(why) = decode_trip(s.tripped.load(Ordering::Relaxed)) {
            return Err(why);
        }
        if s.metered
            && s.fuel
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |fuel| {
                    fuel.checked_sub(cost)
                })
                .is_err()
        {
            s.fuel.store(0, Ordering::Relaxed);
            return Err(self.trip(BudgetExceeded::Fuel));
        }
        if s.deadline.is_some() || s.mem.is_some() {
            let countdown = s
                .clock_countdown
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                    Some(if c <= 1 { CLOCK_PERIOD } else { c - 1 })
                })
                .unwrap_or(CLOCK_PERIOD);
            if countdown <= 1 {
                if let Some(deadline) = s.deadline {
                    if Instant::now() >= deadline {
                        return Err(self.trip(BudgetExceeded::Deadline));
                    }
                }
                if let Some(mem) = &s.mem {
                    if mem.breached() {
                        return Err(self.trip(BudgetExceeded::Memory));
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads the wall clock *now* (ignoring the amortization countdown)
    /// and reports whether the budget is still good. Used at coarse
    /// boundaries — e.g. between container layers — where an immediate
    /// answer matters more than the saved clock read.
    ///
    /// # Errors
    ///
    /// As [`Budget::charge`].
    pub fn checkpoint(&self) -> Result<(), BudgetExceeded> {
        let s = &*self.0;
        if !s.active {
            return Ok(());
        }
        if let Some(why) = decode_trip(s.tripped.load(Ordering::Relaxed)) {
            return Err(why);
        }
        if let Some(deadline) = s.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(BudgetExceeded::Deadline));
            }
        }
        if let Some(mem) = &s.mem {
            if mem.breached() {
                return Err(self.trip(BudgetExceeded::Memory));
            }
        }
        Ok(())
    }

    /// Whether this budget has already tripped (and on what).
    pub fn tripped(&self) -> Option<BudgetExceeded> {
        decode_trip(self.0.tripped.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(u64::MAX).unwrap();
        }
        b.checkpoint().unwrap();
        assert_eq!(b.tripped(), None);
    }

    #[test]
    fn fuel_is_spent_and_sticky() {
        let b = Budget::with_fuel(100);
        assert!(b.charge(60).is_ok());
        assert!(b.charge(40).is_ok());
        assert_eq!(b.charge(1), Err(BudgetExceeded::Fuel));
        // Sticky: even a free charge now fails.
        assert_eq!(b.charge(0), Err(BudgetExceeded::Fuel));
        assert_eq!(b.checkpoint(), Err(BudgetExceeded::Fuel));
        assert_eq!(b.tripped(), Some(BudgetExceeded::Fuel));
    }

    #[test]
    fn clones_share_one_allowance() {
        let a = Budget::with_fuel(10);
        let b = a.clone();
        for _ in 0..10 {
            a.charge(1).unwrap();
        }
        assert_eq!(b.charge(1), Err(BudgetExceeded::Fuel));
    }

    #[test]
    fn budget_is_send_and_sync() {
        // The parallel batch engine mints budgets on worker threads; the
        // compiler must agree they may cross (and be shared across)
        // thread boundaries.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Budget>();
    }

    #[test]
    fn clones_share_one_allowance_across_threads() {
        let a = Budget::with_fuel(1000);
        let b = a.clone();
        std::thread::spawn(move || {
            for _ in 0..600 {
                let _ = b.charge(1);
            }
        })
        .join()
        .unwrap();
        for _ in 0..400 {
            a.charge(1).unwrap();
        }
        assert_eq!(a.charge(1), Err(BudgetExceeded::Fuel));
    }

    #[test]
    fn expired_deadline_trips_within_one_clock_period() {
        let b = Budget::new_guarded(Some(Duration::ZERO), None, None, MetricsSink::disabled());
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = false;
        for _ in 0..(CLOCK_PERIOD as usize + 1) {
            if b.charge(1).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(
            tripped,
            "deadline breach must surface within CLOCK_PERIOD charges"
        );
        assert_eq!(b.tripped(), Some(BudgetExceeded::Deadline));
    }

    #[test]
    fn checkpoint_sees_expired_deadline_immediately() {
        let b = Budget::new_guarded(Some(Duration::ZERO), None, None, MetricsSink::disabled());
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(b.checkpoint(), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn metered_budget_carries_its_sink_through_clones() {
        use vbadet_metrics::Counter;
        let sink = MetricsSink::enabled();
        let a = Budget::new_guarded(None, Some(100), None, sink.clone());
        let b = a.clone();
        a.metrics().count(Counter::OleSectors, 2);
        b.metrics().count(Counter::OleSectors, 3);
        assert_eq!(sink.snapshot().unwrap().counter("ole.sectors"), 5);
        // Plain constructors carry a disabled sink.
        assert!(!Budget::unlimited().metrics().is_enabled());
        assert!(!Budget::with_fuel(1).metrics().is_enabled());
    }

    #[test]
    fn memory_ceiling_trips_and_sticks() {
        static LIVE: AtomicU64 = AtomicU64::new(0);
        fn probe() -> u64 {
            LIVE.load(Ordering::Relaxed)
        }
        LIVE.store(1_000, Ordering::Relaxed);
        let b = Budget::new_guarded(None, None, Some((probe, 500)), MetricsSink::disabled());
        // Growth within the ceiling: fine, even past CLOCK_PERIOD charges.
        LIVE.store(1_400, Ordering::Relaxed);
        for _ in 0..(2 * CLOCK_PERIOD as usize) {
            b.charge(1).unwrap();
        }
        b.checkpoint().unwrap();
        // Growth beyond baseline + ceiling: checkpoint sees it at once,
        // and the trip is sticky.
        LIVE.store(1_501, Ordering::Relaxed);
        assert_eq!(b.checkpoint(), Err(BudgetExceeded::Memory));
        LIVE.store(0, Ordering::Relaxed);
        assert_eq!(b.charge(0), Err(BudgetExceeded::Memory));
        assert_eq!(b.tripped(), Some(BudgetExceeded::Memory));
    }

    #[test]
    fn memory_breach_surfaces_within_one_clock_period_of_charges() {
        static LIVE: AtomicU64 = AtomicU64::new(0);
        fn probe() -> u64 {
            LIVE.load(Ordering::Relaxed)
        }
        LIVE.store(0, Ordering::Relaxed);
        let b = Budget::new_guarded(None, None, Some((probe, 100)), MetricsSink::disabled());
        LIVE.store(10_000, Ordering::Relaxed);
        let mut tripped = false;
        for _ in 0..(CLOCK_PERIOD as usize + 1) {
            if b.charge(1) == Err(BudgetExceeded::Memory) {
                tripped = true;
                break;
            }
        }
        assert!(
            tripped,
            "memory breach must surface within CLOCK_PERIOD charges"
        );
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::new_guarded(
            Some(Duration::from_secs(3600)),
            Some(1_000_000),
            None,
            MetricsSink::disabled(),
        );
        for _ in 0..1000 {
            b.charge(1).unwrap();
        }
        assert_eq!(b.tripped(), None);
    }
}
