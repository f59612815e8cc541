//! The coalescer: a bounded queue that releases plane-sized batches, and
//! the job and reply messages that travel through it.

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
/// routing information needed to deliver the response. The id and keys
/// are held inline up to 30 bytes and 8 keys, on the heap past that.
#[derive(Debug)]
pub struct Job {
    /// The connection the job came from; replies are grouped per
    /// connection.
    pub(super) conn: u64,
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
    /// The connection's writer, where the formatted response goes.
    pub(super) reply: Sender<Reply>,
}

impl Job {
    /// A job of connection `conn` with sequence number `seq`, arriving
    /// now.
    pub fn new(conn: u64, seq: u64, id: &str, keys: &[Key], reply: Sender<Reply>) -> Job {
        Job {
            conn,
            seq,
            id: InlineVec::from_slice(id.as_bytes()),
            keys: InlineVec::from_slice(keys),
            enqueued: Instant::now(),
            reply,
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

/// A run of formatted response lines on its way to the re-sequencing
/// writer: consecutive sequence numbers of one connection, carrying the
/// timing context the writer needs to close out each request's `write`
/// and `e2e` stages. A worker sends one per connection and plane.
#[derive(Debug)]
pub struct Reply {
    /// Sequence number of the first line.
    pub seq: u64,
    /// Lines in the run.
    pub lines: usize,
    /// The lines, each ending in `\n`.
    pub text: Vec<u8>,
    /// Per line, when its request entered the queue; empty for lines that
    /// never went through it (parse rejections, control-frame answers),
    /// which therefore have no end-to-end latency to record.
    pub enqueued: Vec<Instant>,
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
            enqueued: Vec::new(),
            sent: Instant::now(),
        }
    }
}

pub(super) struct QueueState {
    jobs: std::collections::VecDeque<Job>,
    closed: bool,
    /// Workers blocked in [`CoalescerQueue::next_batch`]: a wake with
    /// nobody to wake is skipped.
    idle: usize,
}

/// Recovers the queue guard from a poisoned lock or wait. Sound because
/// every critical section changes [`QueueState`] by one push, one drain,
/// one flag store or one idle count, so a thread that panicked while
/// holding the lock cannot have left it half-updated; one panicking worker
/// must not take down serving for everyone else.
fn unpoison<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// The bounded request queue with plane-fill/linger batching semantics —
/// the heart of the serving layer, exposed so tests can pin its contract
/// without sockets or timing races.
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
                jobs: std::collections::VecDeque::new(),
                closed: false,
                idle: 0,
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
        unpoison(self.state.lock()).jobs.len()
    }

    /// Socket-mode submission: **rejects** when the queue is at its bound
    /// (returning the job, boxed, so the caller can format the error
    /// response) — backpressure by typed refusal, never by unbounded
    /// buffering.
    ///
    /// # Errors
    ///
    /// [`FrameError::Overloaded`] with a retry hint when full,
    /// [`FrameError::ShuttingDown`] after [`CoalescerQueue::close`].
    pub fn try_submit(&self, job: Job) -> Result<(), (Box<Job>, FrameError)> {
        let mut state = unpoison(self.state.lock());
        if state.closed {
            return Err((Box::new(job), FrameError::ShuttingDown));
        }
        if state.jobs.len() >= self.depth {
            let e = FrameError::Overloaded {
                queued: state.jobs.len(),
                depth: self.depth,
                // One linger window is how long a full queue needs to turn
                // into at least one dispatched plane.
                retry_ms: millis_u64(self.max_linger).max(1),
            };
            return Err((Box::new(job), e));
        }
        self.push(&mut state, job);
        Ok(())
    }

    /// Pipe-mode submission: **blocks** until space frees (the producer is
    /// a pipe — slowing it down *is* the backpressure).
    ///
    /// # Errors
    ///
    /// [`FrameError::ShuttingDown`] (with the job handed back) if the
    /// queue closes while waiting.
    pub fn submit_blocking(&self, job: Job) -> Result<(), (Box<Job>, FrameError)> {
        let mut state = unpoison(self.state.lock());
        loop {
            if state.closed {
                return Err((Box::new(job), FrameError::ShuttingDown));
            }
            if state.jobs.len() < self.depth {
                self.push(&mut state, job);
                return Ok(());
            }
            state = unpoison(self.space.wait(state));
        }
    }

    /// Queues `job`, waking an idle worker only when that starts a linger
    /// clock (the queue was empty) or completes a `max_batch` plane: one
    /// wake per plane, not per request. [`CoalescerQueue::next_batch`]
    /// passes the wake on when it leaves jobs behind.
    fn push(&self, state: &mut QueueState, job: Job) {
        state.jobs.push_back(job);
        let queued = state.jobs.len();
        if state.idle > 0 && (queued == 1 || queued % self.max_batch == 0) {
            self.nonempty.notify_one();
        }
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
    /// immediately, a partial plane once its oldest job has lingered
    /// `max_linger`, everything left once the queue closes. `None` when
    /// closed and empty — the worker's exit signal.
    pub fn next_batch(&self) -> Option<Vec<Job>> {
        let mut state = unpoison(self.state.lock());
        loop {
            if state.jobs.len() >= self.max_batch || state.closed {
                break;
            }
            // What is left of the oldest job's linger; `None` on an empty
            // queue.
            let linger = match state.jobs.front() {
                Some(oldest) => match self.max_linger.checked_sub(oldest.enqueued.elapsed()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => break,
                },
                None => None,
            };
            state.idle += 1;
            state = match linger {
                Some(left) => unpoison(self.nonempty.wait_timeout(state, left)).0,
                None => unpoison(self.nonempty.wait(state)),
            };
            state.idle -= 1;
        }
        if state.jobs.is_empty() {
            debug_assert!(state.closed);
            return None;
        }
        let take = state.jobs.len().min(self.max_batch);
        let batch: Vec<Job> = state.jobs.drain(..take).collect();
        if state.idle > 0 && !state.jobs.is_empty() {
            // The pushes of what is left may have woken no one: hand a full
            // plane to another worker now, or let one time a partial
            // plane's linger.
            self.nonempty.notify_one();
        }
        self.space.notify_all();
        Some(batch)
    }
}
