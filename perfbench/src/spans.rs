//! Host-clock span recorder.
//!
//! The simulator emits `SpanBegin`/`SpanEnd` events around its layer
//! boundaries (fault, promotion scan, compaction, daemon tick, zero
//! fill). Their `ns` field is *modeled* time; this recorder ignores it
//! and stamps each event with the host clock as it arrives, so a span's
//! duration is the host time the simulator spent inside that layer. It
//! also counts the layer events the per-layer metrics need.

use std::any::Any;
use std::time::{Duration, Instant};

use trident_obs::{DynRecorder, Event, Recorder, SpanKind};

/// Number of span kinds (`SpanKind::ALL`).
pub const KINDS: usize = SpanKind::ALL.len();

#[derive(Debug, Clone)]
struct Open {
    kind: SpanKind,
    start: Instant,
    children: Duration,
}

/// Per-kind host time and layer-event counts folded from one run's
/// event stream.
#[derive(Debug, Clone, Default)]
pub struct SpanClock {
    stack: Vec<Open>,
    /// Inclusive host time per span kind (indexed by `kind as usize`).
    pub inclusive: [Duration; KINDS],
    /// Self time per span kind: inclusive minus the time covered by its
    /// child spans.
    pub self_time: [Duration; KINDS],
    /// Closed spans per kind.
    pub count: [u64; KINDS],
    /// Host time covered by outermost spans.
    pub root_time: Duration,
    /// Ends without a matching begin, or ends of another kind than the
    /// innermost open span.
    pub mismatched: u64,
    /// Spans whose children covered more host time than the span itself.
    pub overfull: u64,
    /// Buddy-allocator block splits.
    pub buddy_splits: u64,
    /// Buddy-allocator merges.
    pub buddy_coalesces: u64,
    /// Promotions to a larger page size.
    pub promotions: u64,
    /// Compaction passes.
    pub compaction_runs: u64,
    /// Compaction passes that produced the requested free block.
    pub compaction_ok: u64,
    /// Bytes migrated by compaction.
    pub compaction_moved_bytes: u64,
}

impl SpanClock {
    /// Folds one event observed at host time `now`.
    pub fn observe(&mut self, event: Event, now: Instant) {
        match event {
            Event::SpanBegin { kind } => self.stack.push(Open {
                kind,
                start: now,
                children: Duration::ZERO,
            }),
            Event::SpanEnd { kind, .. } => match self.stack.pop() {
                Some(open) if open.kind == kind => {
                    let total = now.saturating_duration_since(open.start);
                    self.overfull += u64::from(open.children > total);
                    let k = kind as usize;
                    self.inclusive[k] += total;
                    self.self_time[k] += total.saturating_sub(open.children);
                    self.count[k] += 1;
                    match self.stack.last_mut() {
                        Some(parent) => parent.children += total,
                        None => self.root_time += total,
                    }
                }
                Some(open) => {
                    self.mismatched += 1;
                    self.stack.push(open);
                }
                None => self.mismatched += 1,
            },
            Event::BuddySplit { .. } => self.buddy_splits += 1,
            Event::BuddyCoalesce { .. } => self.buddy_coalesces += 1,
            Event::Promote { .. } => self.promotions += 1,
            Event::CompactionRun { succeeded, .. } => {
                self.compaction_runs += 1;
                self.compaction_ok += u64::from(succeeded);
            }
            Event::CompactionMove { bytes } => self.compaction_moved_bytes += bytes,
            _ => {}
        }
    }

    /// Whether every span closed in order, and no span's children
    /// outlasted it.
    pub fn balanced(&self) -> bool {
        self.stack.is_empty() && self.mismatched == 0 && self.overfull == 0
    }

    /// Closed `kind` spans.
    pub fn count_of(&self, kind: SpanKind) -> u64 {
        self.count[kind as usize]
    }
}

impl Recorder for SpanClock {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: Event) {
        self.observe(event, Instant::now());
    }
}

impl DynRecorder for SpanClock {
    fn clone_box(&self) -> Box<dyn DynRecorder> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    fn begin(kind: SpanKind) -> Event {
        Event::SpanBegin { kind }
    }

    fn end(kind: SpanKind) -> Event {
        Event::SpanEnd { kind, ns: 0 }
    }

    #[test]
    fn nested_spans_split_into_self_and_child_time() {
        let t = Instant::now();
        let mut c = SpanClock::default();
        c.observe(begin(SpanKind::DaemonTick), at(t, 0));
        c.observe(begin(SpanKind::PromoScan), at(t, 2));
        c.observe(begin(SpanKind::Compaction), at(t, 3));
        c.observe(end(SpanKind::Compaction), at(t, 7));
        c.observe(end(SpanKind::PromoScan), at(t, 8));
        c.observe(end(SpanKind::DaemonTick), at(t, 10));
        assert!(c.balanced());
        let ms = |d: Duration| d.as_millis();
        assert_eq!(ms(c.inclusive[SpanKind::DaemonTick as usize]), 10);
        assert_eq!(ms(c.self_time[SpanKind::DaemonTick as usize]), 4);
        assert_eq!(ms(c.self_time[SpanKind::PromoScan as usize]), 2);
        assert_eq!(ms(c.self_time[SpanKind::Compaction as usize]), 4);
        assert_eq!(c.self_time.iter().sum::<Duration>(), c.root_time);
        // A child never exceeds its parent.
        for (child, parent) in [
            (SpanKind::PromoScan, SpanKind::DaemonTick),
            (SpanKind::Compaction, SpanKind::PromoScan),
        ] {
            assert!(c.inclusive[child as usize] <= c.inclusive[parent as usize]);
        }
    }

    #[test]
    fn unbalanced_streams_are_detected() {
        let t = Instant::now();
        let mut open = SpanClock::default();
        open.observe(begin(SpanKind::Fault), t);
        assert!(!open.balanced());

        let mut stray = SpanClock::default();
        stray.observe(end(SpanKind::Fault), t);
        assert!(!stray.balanced());

        let mut crossed = SpanClock::default();
        crossed.observe(begin(SpanKind::Fault), t);
        crossed.observe(end(SpanKind::Compaction), t);
        crossed.observe(end(SpanKind::Fault), t);
        assert_eq!(crossed.mismatched, 1);
        assert!(!crossed.balanced());

        // A child stamped as outlasting its parent.
        let mut overfull = SpanClock::default();
        overfull.observe(begin(SpanKind::DaemonTick), at(t, 5));
        overfull.observe(begin(SpanKind::PromoScan), at(t, 0));
        overfull.observe(end(SpanKind::PromoScan), at(t, 9));
        overfull.observe(end(SpanKind::DaemonTick), at(t, 6));
        assert_eq!(overfull.overfull, 1);
        assert!(!overfull.balanced());
    }

    #[test]
    fn layer_events_are_counted() {
        let t = Instant::now();
        let mut c = SpanClock::default();
        c.observe(
            Event::CompactionRun {
                smart: true,
                succeeded: true,
            },
            t,
        );
        c.observe(
            Event::CompactionRun {
                smart: true,
                succeeded: false,
            },
            t,
        );
        c.observe(Event::CompactionMove { bytes: 4096 }, t);
        c.observe(
            Event::BuddySplit {
                from_order: 3,
                to_order: 0,
            },
            t,
        );
        assert_eq!((c.compaction_runs, c.compaction_ok), (2, 1));
        assert_eq!(c.compaction_moved_bytes, 4096);
        assert_eq!(c.buddy_splits, 1);
    }
}
