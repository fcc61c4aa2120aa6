//! The completion buffer every incremental engine shares.
//!
//! An engine pushes a [`Completion`] the moment a request's data is
//! returned. Before a driver may drain it, the completion is routed
//! through the driver's [`ReactiveSource`] (closed-loop feedback), which
//! may submit follow-up requests. [`CompletionLog`] keeps that cursor and
//! hands completions over without copying them.

use crate::controller::Completion;
use crate::reactive::{NewRequest, ReactiveSource};

/// Completions an engine has produced since the last drain, split at the
/// feedback cursor: the first `fed` have been routed through the reactive
/// source and may be drained; the rest have not and stay behind.
///
/// # Example
///
/// ```
/// use fp_path_oram::{Completion, CompletionLog, NoFeedback};
///
/// let mut log = CompletionLog::default();
/// log.push(Completion {
///     id: 0,
///     addr: 3,
///     data: vec![7],
///     arrival_ps: 0,
///     done_ps: 10,
///     tag: 0,
/// });
/// assert!(log.drain().is_empty(), "unfed completions are kept");
/// while let Some(follow_ups) = log.feed_next(&mut NoFeedback) {
///     assert!(follow_ups.is_empty());
/// }
/// assert_eq!(log.drain().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct CompletionLog {
    buf: Vec<Completion>,
    /// Completions before this index have been fed to the reactive source.
    fed: usize,
}

impl CompletionLog {
    /// Appends a completion; it becomes drainable once fed.
    pub fn push(&mut self, completion: Completion) {
        self.buf.push(completion);
    }

    /// Whether some completion has not been routed through feedback yet.
    pub fn has_unfed(&self) -> bool {
        self.fed < self.buf.len()
    }

    /// Feeds the oldest unfed completion to `source` by reference and
    /// returns the follow-up requests it produced, or `None` once every
    /// completion has been fed. The engine submits the follow-ups itself
    /// (submitting may push new completions), then calls again until
    /// `None`.
    // fp-lint: hot-path
    pub fn feed_next<S: ReactiveSource + ?Sized>(
        &mut self,
        source: &mut S,
    ) -> Option<Vec<NewRequest>> {
        let completion = self.buf.get(self.fed)?;
        self.fed += 1;
        Some(source.on_complete(completion))
    }

    /// Hands over every fed completion, oldest first. When all of them
    /// have been fed — the common case — the buffer itself is handed over
    /// and nothing is copied; otherwise the unfed tail stays behind for a
    /// later drain.
    pub fn drain(&mut self) -> Vec<Completion> {
        let fed = std::mem::take(&mut self.fed);
        if fed == self.buf.len() {
            return std::mem::take(&mut self.buf);
        }
        let unfed = self.buf.split_off(fed);
        std::mem::replace(&mut self.buf, unfed)
    }

    /// Moves every fed completion onto the end of `out`, oldest first,
    /// keeping the unfed tail. Both buffers keep their capacity, so a
    /// driver that drains often into one reused buffer allocates nothing
    /// in steady state.
    pub fn drain_into(&mut self, out: &mut Vec<Completion>) {
        out.extend(self.buf.drain(..self.fed));
        self.fed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Op;
    use crate::reactive::NoFeedback;

    fn completion(id: u64) -> Completion {
        Completion {
            id,
            addr: id,
            data: vec![id as u8; 4],
            arrival_ps: 0,
            done_ps: id,
            tag: id,
        }
    }

    /// Records the ids it is fed and asks for one follow-up per even id.
    #[derive(Default)]
    struct Recorder(Vec<u64>);

    impl ReactiveSource for Recorder {
        fn on_complete(&mut self, c: &Completion) -> Vec<NewRequest> {
            self.0.push(c.id);
            if c.id.is_multiple_of(2) {
                vec![NewRequest {
                    addr: c.addr,
                    op: Op::Read,
                    data: Vec::new(),
                    arrival_ps: c.done_ps,
                    tag: c.tag,
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn feeds_in_order_and_returns_follow_ups() {
        let mut log = CompletionLog::default();
        for id in 0..3 {
            log.push(completion(id));
        }
        let mut rec = Recorder::default();
        let mut follow_ups = 0;
        while let Some(reqs) = log.feed_next(&mut rec) {
            follow_ups += reqs.len();
        }
        assert_eq!(rec.0, vec![0, 1, 2]);
        assert_eq!(follow_ups, 2);
        assert!(!log.has_unfed());
    }

    #[test]
    fn partial_drain_keeps_unfed_completions() {
        let mut log = CompletionLog::default();
        for id in 0..4 {
            log.push(completion(id));
        }
        log.feed_next(&mut NoFeedback);
        log.feed_next(&mut NoFeedback);
        let first: Vec<u64> = log.drain().iter().map(|c| c.id).collect();
        assert_eq!(first, vec![0, 1]);
        assert!(log.has_unfed());
        while log.feed_next(&mut NoFeedback).is_some() {}
        let rest: Vec<u64> = log.drain().iter().map(|c| c.id).collect();
        assert_eq!(rest, vec![2, 3]);
        assert!(log.drain().is_empty());
    }

    #[test]
    fn full_drain_hands_the_buffer_over() {
        let mut log = CompletionLog::default();
        for id in 0..8 {
            log.push(completion(id));
        }
        while log.feed_next(&mut NoFeedback).is_some() {}
        let ptr = log.buf.as_ptr();
        let done = log.drain();
        assert_eq!(done.as_ptr(), ptr, "no copy on a full drain");
        assert_eq!(done.len(), 8);
        assert!(!log.has_unfed());
    }

    #[test]
    fn drain_into_appends_fed_and_keeps_unfed() {
        let mut log = CompletionLog::default();
        for id in 0..3 {
            log.push(completion(id));
        }
        log.feed_next(&mut NoFeedback);
        log.feed_next(&mut NoFeedback);
        let mut out = vec![completion(9)];
        log.drain_into(&mut out);
        let ids: Vec<u64> = out.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![9, 0, 1]);
        assert!(log.has_unfed());
        log.feed_next(&mut NoFeedback);
        out.clear();
        log.drain_into(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 2);
    }
}
