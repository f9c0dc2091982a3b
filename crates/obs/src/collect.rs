//! The collector: per-thread event buffers drained by one background
//! thread, the process wall-clock epoch, and the [`Trace`] it produces.
//!
//! The emit path is deliberately contention-free: each producing thread
//! appends to its **own** buffer (an `Arc<Mutex<Vec<Event>>>` that only
//! the collector thread ever locks besides the owner), and sequence
//! numbers come from one relaxed `fetch_add`. The collector thread wakes
//! every few milliseconds, swaps every registered buffer empty, and
//! accumulates the events; `finish` performs a final drain and sorts by
//! sequence number. Compared to sending each event over a shared mpsc
//! channel under a global lock, this keeps the per-event cost to one
//! uncontended lock and a `Vec` push — which is what lets full-span
//! tracing ride the serve layer's microsecond-scale SLO path.
//!
//! Sequence numbers respect causality: the counter's modification order
//! is total, and any cross-thread happens-before edge (an mpsc send, a
//! mutex hand-off) orders the two threads' subsequent `fetch_add`s.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::event::{Event, Phase};
use crate::{export, registry, set_level, Level};

type Buffer = Arc<Mutex<Vec<Event>>>;

/// Buffers registered by producing threads for the current generation.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
/// The live collector's generation; 0 means none is live. Bumped on every
/// [`install`], so a stale thread-local buffer from an older collector is
/// recognized and re-registered instead of polluting the new trace.
static ACTIVE_GEN: AtomicU64 = AtomicU64::new(0);
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);
static SEQ: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// How often the collector thread sweeps the per-thread buffers.
const DRAIN_TICK: Duration = Duration::from_millis(5);

thread_local! {
    /// This thread's buffer, tagged with the generation it registered for.
    static LOCAL: RefCell<Option<(u64, Buffer)>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds of wall clock since the process epoch.
pub(crate) fn wall_us_now() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// `instant` as microseconds since the process epoch (0 if it predates it).
pub(crate) fn wall_us_of(instant: Instant) -> u64 {
    instant
        .checked_duration_since(epoch())
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// `Instant::now()` when spans record, else `None` — the cheap way for a
/// producer to stamp work another thread will close with
/// [`crate::complete`].
pub fn now_if_spans() -> Option<Instant> {
    if crate::enabled(Level::Spans) {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records one event into this thread's buffer, assigning its sequence
/// number. Callers have already passed the level gate; without a live
/// collector this drops the event.
pub(crate) fn emit(mut event: Event) {
    let gen = ACTIVE_GEN.load(Ordering::Acquire);
    if gen == 0 {
        return;
    }
    event.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = match local.as_ref() {
            Some((g, buffer)) if *g == gen => buffer,
            // First event of this generation on this thread: register a
            // fresh buffer with the collector. Once per thread per
            // install — never on the steady-state path.
            _ => {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
                BUFFERS
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(Arc::clone(&buffer));
                *local = Some((gen, buffer));
                &local.as_ref().expect("just set").1
            }
        };
        buffer.lock().unwrap_or_else(|p| p.into_inner()).push(event);
    });
}

/// Moves every registered buffer's contents into `into` — but only while
/// `gen` is still the live generation, so a lingering collector from a
/// replaced install cannot steal its successor's events. A buffer whose
/// only holder is the registry belongs to a thread that has exited: it is
/// drained one last time and dropped, so short-lived threads (a tick's
/// planning threads) do not pile up registrations.
fn drain_buffers(gen: u64, into: &mut Vec<Event>) {
    let live = ACTIVE_GEN.load(Ordering::Acquire);
    if live != gen && live != 0 {
        return;
    }
    let mut buffers: Vec<Buffer> = Vec::new();
    BUFFERS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .retain(|buffer| {
            // Under the registry lock no thread can take a new reference
            // to a registered buffer, so a count of 1 stays 1.
            let live = Arc::strong_count(buffer) > 1;
            buffers.push(Arc::clone(buffer));
            live
        });
    for buffer in buffers {
        let mut guard = buffer.lock().unwrap_or_else(|p| p.into_inner());
        into.append(&mut guard);
    }
}

/// A live collector: finish it to get the [`Trace`].
pub struct Collector {
    gen: u64,
    stop: Sender<()>,
    thread: JoinHandle<Vec<Event>>,
}

/// Pins the epoch, resets the metrics registry and sequence counter,
/// spawns the collector thread, and raises the level. One collector at a
/// time; installing another replaces it (the older collector's `finish`
/// then only returns what its thread had already drained).
pub fn install(level: Level) -> Collector {
    epoch();
    registry::reset();
    let gen = NEXT_GEN.fetch_add(1, Ordering::Relaxed);
    {
        // Discard any buffers of a replaced generation: their owning
        // threads re-register on their next event.
        let mut buffers = BUFFERS.lock().unwrap_or_else(|p| p.into_inner());
        buffers.clear();
    }
    SEQ.store(0, Ordering::Relaxed);
    let (stop, stop_rx) = channel::<()>();
    let thread = std::thread::Builder::new()
        .name("wisedb-obs-collector".to_string())
        .spawn(move || {
            let mut events = Vec::new();
            loop {
                match stop_rx.recv_timeout(DRAIN_TICK) {
                    Err(RecvTimeoutError::Timeout) => drain_buffers(gen, &mut events),
                    // Stop requested (or the Collector was leaked and its
                    // sender dropped): one final sweep, then hand back.
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => {
                        drain_buffers(gen, &mut events);
                        return events;
                    }
                }
            }
        })
        .expect("collector thread spawns");
    ACTIVE_GEN.store(gen, Ordering::Release);
    set_level(level);
    Collector { gen, stop, thread }
}

impl Collector {
    /// Lowers the level to [`Level::Off`], stops the collector thread
    /// (which sweeps the buffers one last time), and returns the trace,
    /// ordered by sequence number.
    pub fn finish(self) -> Trace {
        set_level(Level::Off);
        // Only clear the live generation if it is still ours — finishing
        // a replaced collector must not mute its successor.
        let _ = ACTIVE_GEN.compare_exchange(self.gen, 0, Ordering::AcqRel, Ordering::Acquire);
        let _ = self.stop.send(());
        let mut events = self.thread.join().unwrap_or_default();
        events.sort_by_key(|e| e.seq);
        Trace { events }
    }
}

/// Everything one collector recorded.
pub struct Trace {
    /// The events, in sequence order.
    pub events: Vec<Event>,
}

/// Aggregate extent of one span name in a [`Trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Closed spans observed (Begin/End pairs plus Complete events).
    pub count: u64,
    /// Total microseconds across those spans.
    pub total_us: u64,
}

impl Trace {
    /// Renders Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`).
    pub fn to_chrome(&self) -> String {
        export::chrome_trace(&self.events)
    }

    /// Renders the JSONL structured event log: one JSON object per line,
    /// in sequence order.
    pub fn to_jsonl(&self) -> String {
        export::jsonl(&self.events)
    }

    /// Sums closed-span extents per name, matching Begin/End pairs on a
    /// per-thread stack (unbalanced leftovers are ignored) and adding
    /// Complete events directly. This is what the loadgen's span-coverage
    /// report is computed from.
    pub fn span_totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        let mut stacks: BTreeMap<u64, Vec<(&'static str, u64)>> = BTreeMap::new();
        for event in &self.events {
            match event.phase {
                Phase::Begin => {
                    stacks
                        .entry(event.tid)
                        .or_default()
                        .push((event.name, event.wall_us));
                }
                Phase::End => {
                    if let Some(stack) = stacks.get_mut(&event.tid) {
                        if let Some(pos) = stack.iter().rposition(|(n, _)| *n == event.name) {
                            let (_, begin_us) = stack.remove(pos);
                            let t = totals.entry(event.name).or_default();
                            t.count += 1;
                            t.total_us += event.wall_us.saturating_sub(begin_us);
                        }
                    }
                }
                Phase::Complete { dur_us } => {
                    let t = totals.entry(event.name).or_default();
                    t.count += 1;
                    t.total_us += dur_us;
                }
                Phase::Instant => {}
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{instant, span, test_lock};

    #[test]
    fn cross_thread_events_all_arrive_in_sequence_order() {
        let _hold = test_lock::hold();
        let collector = install(Level::Spans);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let _s = span("worker");
                    }
                });
            }
        });
        let trace = collector.finish();
        assert_eq!(trace.events.len(), 4 * 25 * 2);
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
        let totals = trace.span_totals();
        assert_eq!(totals["worker"].count, 100);
    }

    fn registered() -> usize {
        BUFFERS.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    #[test]
    fn buffers_of_exited_threads_are_collected_then_dropped() {
        let _hold = test_lock::hold();
        let collector = install(Level::Spans);
        instant("main").emit();
        for _ in 0..100 {
            std::thread::spawn(|| {
                instant("short").emit();
                let _s = span("short");
            })
            .join()
            .unwrap();
        }
        let trace = collector.finish();
        assert_eq!(trace.events.len(), 1 + 100 * 3);
        assert_eq!(trace.span_totals()["short"].count, 100);
        // The sweeps collected every exited thread's events, then dropped
        // its buffer: only this thread's registration is left.
        assert_eq!(registered(), 1);
    }

    #[test]
    fn finish_disables_recording_and_later_events_are_dropped() {
        let _hold = test_lock::hold();
        let collector = install(Level::Counters);
        instant("before").emit();
        let trace = collector.finish();
        assert_eq!(crate::level(), Level::Off);
        instant("after").emit(); // gated off, and no sender either way
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "before");
    }
}
