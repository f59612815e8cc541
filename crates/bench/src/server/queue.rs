//! The coalescer: a bounded queue that releases plane-sized batches, and
//! the job and reply messages that travel through it.
//!
//! The queue is plane-shaped: it holds a deque of [`Plane`]s, each up to
//! `max_batch` jobs plus the reply routes of their connections. A submit
//! appends to the tail plane (starting one from a spare buffer when the
//! tail is full) and attaches its connection's writer to it whenever the
//! plane's previous job came from another connection; a worker takes the
//! front plane whole by swapping buffers under the lock and hands its old,
//! emptied buffer back as a spare. So no job is moved while the lock is
//! held, and the reply route costs one sender clone per run of a
//! connection's jobs in a plane, never more than one per request.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

use super::{FrameError, Key};
use crate::metrics::millis_u64;

/// A short sequence of `Copy` items: up to `N` (at most 255) inline, on
/// the heap past that. A queued job keeps its id and keys in it, so a
/// request of the common shape crosses the queue without a heap
/// allocation.
#[derive(Clone, Debug)]
pub(super) enum InlineVec<T: Copy, const N: usize> {
    /// At most `N` items; the slots past `len` hold filler.
    Inline {
        /// Items in use.
        len: u8,
        /// The items, then filler.
        items: [T; N],
    },
    /// More than `N` items.
    Heap(Vec<T>),
}

/// A value that pads the unused inline slots of an [`InlineVec`].
pub(super) trait Filler: Copy {
    /// The padding value; never read as an item.
    const FILLER: Self;
}

impl Filler for u8 {
    const FILLER: u8 = 0;
}

impl Filler for u64 {
    const FILLER: u64 = 0;
}

impl Filler for Key {
    /// The width-1 key `0`: a valid value, so no `Key` ever breaks the
    /// valid-string invariant.
    const FILLER: Key = Key {
        can_zero: 1,
        can_one: 0,
        rank: 0,
        width: 1,
    };
}

impl<T: Filler, const N: usize> InlineVec<T, N> {
    /// The empty sequence.
    pub(super) fn new() -> InlineVec<T, N> {
        InlineVec::Inline {
            len: 0,
            items: [T::FILLER; N],
        }
    }

    /// The empty sequence, with room for `capacity` items without a
    /// further allocation.
    pub(super) fn with_capacity(capacity: usize) -> InlineVec<T, N> {
        if capacity > N {
            InlineVec::Heap(Vec::with_capacity(capacity))
        } else {
            InlineVec::new()
        }
    }

    /// A copy of `items`.
    pub(super) fn from_slice(items: &[T]) -> InlineVec<T, N> {
        if items.len() > N {
            return InlineVec::Heap(items.to_vec());
        }
        let mut inline = [T::FILLER; N];
        inline[..items.len()].copy_from_slice(items);
        InlineVec::Inline {
            len: items.len() as u8,
            items: inline,
        }
    }

    /// Appends `item`, moving to the heap once the inline slots are full.
    pub(super) fn push(&mut self, item: T) {
        match self {
            InlineVec::Inline { len, items } if usize::from(*len) < N => {
                items[usize::from(*len)] = item;
                *len += 1;
            }
            InlineVec::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend_from_slice(items);
                heap.push(item);
                *self = InlineVec::Heap(heap);
            }
            InlineVec::Heap(heap) => heap.push(item),
        }
    }

    /// The items.
    pub(super) fn as_slice(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, items } => &items[..usize::from(*len)],
            InlineVec::Heap(heap) => heap,
        }
    }

    /// Number of items.
    pub(super) fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// Id bytes a job holds inline: short request tokens stay off the heap.
pub(super) const INLINE_ID: usize = 30;
/// Keys a job holds inline: a full request of an 8-channel cell.
pub(super) const INLINE_KEYS: usize = 8;
/// The key buffer of a job, which the frame parser fills.
pub(super) type JobKeys = InlineVec<Key, INLINE_KEYS>;

/// One queued request on its way to a plane: the parsed keys plus the
/// connection and sequence number its response is delivered by. The id
/// and keys are held inline up to 30 bytes and 8 keys, on the heap past
/// that. The connection's writer travels with the job's plane, not the
/// job.
#[derive(Debug)]
pub struct Job {
    /// The connection the job came from; replies are grouped per
    /// connection.
    pub(super) conn: u64,
    /// Index of the job's reply route in its plane's `routes`, set when
    /// the job joins a plane.
    pub(super) route: usize,
    /// Per-connection sequence number; the connection writer re-orders
    /// responses by it.
    pub(super) seq: u64,
    /// Client id echoed on the response (UTF-8: built from a `&str`).
    pub(super) id: InlineVec<u8, INLINE_ID>,
    /// The keys to sort.
    pub(super) keys: JobKeys,
    /// Arrival time (linger, timeout, queue wait and end-to-end latency
    /// are all measured from it).
    pub(super) enqueued: Instant,
}

impl Job {
    /// A job of connection `conn` with sequence number `seq`, arriving
    /// now.
    pub fn new(conn: u64, seq: u64, id: &str, keys: &[Key]) -> Job {
        Job::parsed(conn, seq, id, InlineVec::from_slice(keys))
    }

    /// [`Job::new`] of keys the frame parser already put in a job's key
    /// buffer.
    pub(super) fn parsed(conn: u64, seq: u64, id: &str, keys: JobKeys) -> Job {
        Job {
            conn,
            route: 0,
            seq,
            id: InlineVec::from_slice(id.as_bytes()),
            keys,
            enqueued: Instant::now(),
        }
    }

    /// [`Job::new`] with an explicit arrival time, so queue tests can
    /// back-date arrivals instead of sleeping.
    #[cfg(test)]
    pub(super) fn arrived(conn: u64, seq: u64, id: &str, keys: &[Key], enqueued: Instant) -> Job {
        Job {
            enqueued,
            ..Job::new(conn, seq, id, keys)
        }
    }

    /// Per-connection sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Client id.
    pub fn id(&self) -> &str {
        // Always UTF-8: the bytes are copied whole from a `&str`.
        std::str::from_utf8(self.id.as_slice()).unwrap_or_default()
    }

    /// The keys to sort.
    pub fn keys(&self) -> &[Key] {
        self.keys.as_slice()
    }
}

/// Queue times a [`Reply`] holds inline: a short run's stamps stay off
/// the heap.
pub(super) const INLINE_AGES: usize = 8;

/// A run of formatted response lines on its way to the re-sequencing
/// writer: consecutive sequence numbers of one connection, carrying the
/// timing context the writer needs to close out each request's `write`
/// and `e2e` stages. A worker sends one per run of a connection's jobs in
/// a plane.
#[derive(Debug)]
pub struct Reply {
    /// Sequence number of the first line.
    pub seq: u64,
    /// Lines in the run.
    pub lines: usize,
    /// The lines, each ending in `\n`.
    pub text: Vec<u8>,
    /// Per line, how long its request had been queued when the run was
    /// `sent`, in nanoseconds: the writer's `e2e` is `written − sent` plus
    /// this. Empty for lines that never went through the queue (parse
    /// rejections, control-frame answers), which therefore have no
    /// end-to-end latency to record.
    pub(super) ages: InlineVec<u64, INLINE_AGES>,
    /// When the run was handed to the writer channel.
    pub sent: Instant,
}

impl Reply {
    /// One line (without its newline) that never went through the queue,
    /// stamped "sent now".
    pub fn line(seq: u64, line: &str) -> Reply {
        let mut text = Vec::with_capacity(line.len() + 1);
        text.extend_from_slice(line.as_bytes());
        text.push(b'\n');
        Reply {
            seq,
            lines: 1,
            text,
            ages: InlineVec::new(),
            sent: Instant::now(),
        }
    }
}

/// One plane on its way from the queue to a worker: up to `max_batch`
/// jobs in arrival order, and the reply routes of their connections. A
/// submit attaches its connection's writer unless the plane's previous
/// job came from the same connection, and each job keeps the index of its
/// route, so neither side searches: one sender clone per run of a
/// connection's jobs in the plane, one per request only when connections
/// take turns job by job. A connection's writer ends once its last sender
/// is dropped, which is when the reader is done and every plane holding
/// its route has been answered.
#[derive(Debug, Default)]
pub(super) struct Plane {
    /// The jobs.
    pub(super) jobs: Vec<Job>,
    /// The writers the jobs' replies go to, indexed by [`Job::route`].
    pub(super) routes: Vec<Sender<Reply>>,
}

impl Plane {
    /// Appends `job`, routed to `reply`, its connection's writer; returns
    /// the jobs in the plane.
    fn push(&mut self, mut job: Job, reply: &Sender<Reply>) -> usize {
        if self.jobs.last().map_or(true, |last| last.conn != job.conn) {
            self.routes.push(reply.clone());
        }
        job.route = self.routes.len() - 1;
        self.jobs.push(job);
        self.jobs.len()
    }

    /// Empties the plane, dropping its jobs and reply senders but keeping
    /// the buffers.
    pub(super) fn clear(&mut self) {
        self.jobs.clear();
        self.routes.clear();
    }
}

pub(super) struct QueueState {
    /// Queued planes, oldest first. Every plane but the last is full.
    planes: VecDeque<Plane>,
    /// Emptied planes, whose buffers the next tail planes reuse.
    spare: Vec<Plane>,
    /// Jobs in `planes`.
    queued: usize,
    closed: bool,
    /// Workers blocked in [`CoalescerQueue::next_batch`]: a wake with
    /// nobody to wake is skipped.
    idle: usize,
    /// The latest arrival stamp seen; `None` before the first push.
    last_arrival: Option<Instant>,
    /// Moving average (weight 1/8) of the gaps between arrival stamps;
    /// `None` before the second push.
    gap_ewma: Option<Duration>,
}

impl QueueState {
    /// The oldest queued job: the first of the front plane.
    fn oldest(&self) -> Option<&Job> {
        self.planes.front().and_then(|plane| plane.jobs.first())
    }
}

/// Recovers the queue guard from a poisoned lock or wait. Sound because
/// every critical section changes [`QueueState`] by one push, one plane
/// swap, one flag store or one idle count, so a thread that panicked while
/// holding the lock cannot have left it half-updated; one panicking worker
/// must not take down serving for everyone else.
fn unpoison<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The bounded request queue with plane-fill/linger batching semantics —
/// the heart of the serving layer, exposed so tests can pin its contract
/// without sockets or timing races.
///
/// A plane leaves when it is full, when the queue closes, or when its
/// oldest job has waited `max_linger`, the hard cap. A partial plane also
/// leaves early when it cannot fill in time at the measured arrival rate:
/// when the average gap between arrivals times the missing lanes exceeds
/// what is left of the oldest job's linger. Before the second arrival
/// there is no gap estimate, and a partial plane waits out the linger.
pub struct CoalescerQueue {
    pub(super) state: Mutex<QueueState>,
    /// Signals workers: jobs arrived or the queue closed.
    nonempty: Condvar,
    /// Signals blocked producers: space freed or the queue closed.
    space: Condvar,
    depth: usize,
    max_batch: usize,
    max_linger: Duration,
}

impl CoalescerQueue {
    /// A queue bounded at `depth` requests, dispatching `max_batch`-lane
    /// planes, holding partial planes at most `max_linger`.
    pub fn new(depth: usize, max_batch: usize, max_linger: Duration) -> CoalescerQueue {
        CoalescerQueue {
            state: Mutex::new(QueueState {
                planes: VecDeque::new(),
                spare: Vec::new(),
                queued: 0,
                closed: false,
                idle: 0,
                last_arrival: None,
                gap_ewma: None,
            }),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            depth,
            max_batch: max_batch.max(1),
            max_linger,
        }
    }

    /// Requests currently queued (racy snapshot, for reporting).
    pub fn queued(&self) -> usize {
        unpoison(self.state.lock()).queued
    }

    /// Socket-mode submission: **rejects** when the queue is at its bound
    /// (returning the job, boxed, so the caller can format the error
    /// response) — backpressure by typed refusal, never by unbounded
    /// buffering. `reply` is the connection's writer; the job's plane gets
    /// a clone of it unless the plane's previous job is of the same
    /// connection.
    ///
    /// # Errors
    ///
    /// [`FrameError::Overloaded`] with a retry hint when full,
    /// [`FrameError::ShuttingDown`] after [`CoalescerQueue::close`].
    pub fn try_submit(
        &self,
        job: Job,
        reply: &Sender<Reply>,
    ) -> Result<(), (Box<Job>, FrameError)> {
        let mut state = unpoison(self.state.lock());
        if state.closed {
            return Err((Box::new(job), FrameError::ShuttingDown));
        }
        if state.queued >= self.depth {
            let e = FrameError::Overloaded {
                queued: state.queued,
                depth: self.depth,
                // One linger window is how long a full queue needs to turn
                // into at least one dispatched plane.
                retry_ms: millis_u64(self.max_linger).max(1),
            };
            return Err((Box::new(job), e));
        }
        self.push(&mut state, job, reply);
        Ok(())
    }

    /// Pipe-mode submission: **blocks** until space frees (the producer is
    /// a pipe — slowing it down *is* the backpressure). `reply` as for
    /// [`CoalescerQueue::try_submit`].
    ///
    /// # Errors
    ///
    /// [`FrameError::ShuttingDown`] (with the job handed back) if the
    /// queue closes while waiting.
    pub fn submit_blocking(
        &self,
        job: Job,
        reply: &Sender<Reply>,
    ) -> Result<(), (Box<Job>, FrameError)> {
        let mut state = unpoison(self.state.lock());
        loop {
            if state.closed {
                return Err((Box::new(job), FrameError::ShuttingDown));
            }
            if state.queued < self.depth {
                self.push(&mut state, job, reply);
                return Ok(());
            }
            state = unpoison(self.space.wait(state));
        }
    }

    /// Appends `job` to the tail plane, starting a new one from a spare
    /// buffer when the tail is full, routed to `reply` (see [`Plane`]),
    /// and folds the job's arrival stamp into the gap estimate (no clock
    /// read of its own).
    ///
    /// An idle worker is woken only when the push starts a linger clock
    /// (the queue was empty), completes a `max_batch` plane, or forms the
    /// first gap estimate and that estimate sends the pending plane off
    /// early (the worker timing its linger slept on no estimate at all):
    /// one wake per plane, not per request.
    /// [`CoalescerQueue::next_batch`] passes the wake on when it leaves
    /// jobs behind.
    fn push(&self, state: &mut QueueState, job: Job, reply: &Sender<Reply>) {
        let arrived = job.enqueued;
        let no_estimate_yet = state.gap_ewma.is_none();
        if let Some(last) = state.last_arrival {
            let gap = arrived.saturating_duration_since(last);
            state.gap_ewma = Some(state.gap_ewma.map_or(gap, |ewma| ewma - ewma / 8 + gap / 8));
        }
        state.last_arrival = Some(state.last_arrival.map_or(arrived, |last| last.max(arrived)));
        let filled = match state.planes.back_mut() {
            Some(tail) if tail.jobs.len() < self.max_batch => tail.push(job, reply),
            _ => {
                let mut plane = state.spare.pop().unwrap_or_default();
                plane.jobs.reserve(self.max_batch.min(self.depth));
                let filled = plane.push(job, reply);
                state.planes.push_back(plane);
                filled
            }
        };
        state.queued += 1;
        if state.idle > 0
            && (state.queued == 1
                || filled == self.max_batch
                || no_estimate_yet && self.leaves_early(state, arrived))
        {
            self.nonempty.notify_one();
        }
    }

    /// Whether the partial plane queued in `state` should leave at `now`
    /// although it is not full: the average arrival gap times the missing
    /// lanes exceeds what is left of the oldest job's linger. `false`
    /// without a gap estimate.
    fn leaves_early(&self, state: &QueueState, now: Instant) -> bool {
        let (Some(gap), Some(oldest)) = (state.gap_ewma, state.oldest()) else {
            return false;
        };
        let missing = self.max_batch.saturating_sub(state.queued);
        let fill = gap.saturating_mul(u32::try_from(missing).unwrap_or(u32::MAX));
        let left = self
            .max_linger
            .saturating_sub(now.saturating_duration_since(oldest.enqueued));
        fill > left
    }

    /// Workers blocked in [`CoalescerQueue::next_batch`].
    #[cfg(test)]
    pub(super) fn idle_workers(&self) -> usize {
        unpoison(self.state.lock()).idle
    }

    /// Closes the queue: producers are refused from now on, workers drain
    /// what is already queued and then see `None`.
    pub fn close(&self) {
        let mut state = unpoison(self.state.lock());
        state.closed = true;
        self.nonempty.notify_all();
        self.space.notify_all();
    }

    /// Blocks until a batch is ready and pops it: a full `max_batch` plane
    /// immediately, a partial plane once it cannot fill in time at the
    /// measured arrival rate or once its oldest job has lingered
    /// `max_linger`, every plane left once the queue closes. `None` when
    /// closed and empty — the worker's exit signal.
    pub fn next_batch(&self) -> Option<Vec<Job>> {
        let mut plane = Plane::default();
        self.next_batch_into(&mut plane).then_some(plane.jobs)
    }

    /// [`CoalescerQueue::next_batch`] into a plane the caller owns and
    /// reuses: `plane` is cleared, then swapped with the front plane, and
    /// its emptied buffers become a spare for a later tail plane; `false`
    /// (and `plane` empty) when the queue is closed and empty. Clearing
    /// comes before the lock, so the previous plane's reply senders are
    /// gone before any wait: a connection's writer ends only once every
    /// sender is.
    pub(super) fn next_batch_into(&self, plane: &mut Plane) -> bool {
        plane.clear();
        let mut state = unpoison(self.state.lock());
        loop {
            if state.queued >= self.max_batch || state.closed {
                break;
            }
            // What is left of the oldest job's linger, unless its plane
            // should leave now; `None` on an empty queue.
            let linger = match state.oldest() {
                Some(oldest) => {
                    let now = Instant::now();
                    match self
                        .max_linger
                        .checked_sub(now.saturating_duration_since(oldest.enqueued))
                    {
                        Some(left) if !left.is_zero() && !self.leaves_early(&state, now) => {
                            Some(left)
                        }
                        _ => break,
                    }
                }
                None => None,
            };
            state.idle += 1;
            state = match linger {
                Some(left) => unpoison(self.nonempty.wait_timeout(state, left)).0,
                None => unpoison(self.nonempty.wait(state)),
            };
            state.idle -= 1;
        }
        let Some(front) = state.planes.pop_front() else {
            debug_assert!(state.closed);
            return false;
        };
        state.queued -= front.jobs.len();
        let emptied = std::mem::replace(plane, front);
        state.spare.push(emptied);
        if state.idle > 0 && state.queued > 0 {
            // The pushes of what is left may have woken no one: hand a full
            // plane to another worker now, or let one time a partial
            // plane's linger.
            self.nonempty.notify_one();
        }
        self.space.notify_all();
        true
    }
}
