//! The workspace's one worker pool and its one panic decoder.
//!
//! [`scope`] runs a body against scoped workers draining one shared
//! queue. [`Pool::submit`] moves a task onto the queue (one send, one
//! reply channel, no boxing) and returns a [`Handle`] to its reply. Every
//! task runs under [`catch`], so a panic yields `Err(message)` and the
//! worker moves on. Waiting on handles in submission order reassembles
//! results in declaration order, whatever order the workers finish in.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::Instant;

/// What a task yields: its result (or panic message) and its run time in
/// nanoseconds.
type Reply<R> = (Result<R, String>, u64);

/// Run `f`, turning a panic into `Err` with the panic's message.
pub fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload: Box<dyn Any + Send>| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// The submitting side of a running pool; see [`scope`].
pub struct Pool<T, R> {
    queue: mpsc::Sender<(T, mpsc::Sender<Reply<R>>)>,
}

/// The pending reply of one submitted task.
pub struct Handle<R> {
    reply: mpsc::Receiver<Reply<R>>,
}

impl<T, R> Pool<T, R> {
    /// Queue `task` for the next free worker.
    pub fn submit(&self, task: T) -> Handle<R> {
        let (reply, rx) = mpsc::channel();
        // Workers outlive the pool, so the send cannot fail; were it to,
        // the dropped reply sender surfaces through `Handle::wait`.
        let _ = self.queue.send((task, reply));
        Handle { reply: rx }
    }
}

impl<R> Handle<R> {
    /// Block until the task has run: its result, or its panic message,
    /// and its run time in nanoseconds.
    pub fn wait(self) -> (Result<R, String>, u64) {
        self.reply
            .recv()
            .unwrap_or_else(|_| (Err("its worker died".into()), 0))
    }
}

/// Run `body` against a pool of `workers` (at least one) scoped threads
/// that apply `run` to each submitted task. Returns once `body` has
/// returned and the workers have drained the queue and exited.
pub fn scope<T, R, O>(
    workers: usize,
    run: impl Fn(T) -> R + Sync,
    body: impl FnOnce(&Pool<T, R>) -> O,
) -> O
where
    T: Send,
    R: Send,
{
    let (queue, rx) = mpsc::channel::<(T, mpsc::Sender<Reply<R>>)>();
    let rx = Mutex::new(rx);
    let (rx, run) = (&rx, &run);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(move || loop {
                // Only pickup holds the lock: the guard drops at the end of
                // this statement, before the task runs. A receive leaves the
                // receiver valid, so a poisoned lock is safe to reuse.
                let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok((task, reply)) = next else { return };
                let start = Instant::now();
                let result = catch(|| run(task));
                let _ = reply.send((result, start.elapsed().as_nanos() as u64));
            });
        }
        // Dropping the pool closes the queue; the workers exit once it is
        // empty and the scope joins them.
        body(&Pool { queue })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Task 0 cannot finish before task 3 has run on the other worker.
        let (open, gate) = mpsc::channel();
        let gate = Mutex::new(gate);
        let run = |x: u64| {
            match x {
                0 => gate.lock().unwrap().recv().unwrap(),
                3 => open.send(()).unwrap(),
                _ => {}
            }
            x * 2
        };
        let out: Vec<_> = scope(2, run, |pool| {
            let handles: Vec<_> = (0..4).map(|x| pool.submit(x)).collect();
            handles.into_iter().map(|h| h.wait().0).collect()
        });
        assert_eq!(out, [Ok(0), Ok(2), Ok(4), Ok(6)]);
    }

    #[test]
    fn a_panicking_task_yields_its_payload_and_the_worker_serves_on() {
        let boom = |x: u32| {
            assert!(x != 0, "task {x} exploded");
            x
        };
        let (a, b) = scope(1, boom, |pool| {
            (pool.submit(0).wait(), pool.submit(7).wait())
        });
        assert_eq!((a.0, b.0), (Err("task 0 exploded".into()), Ok(7)));
        assert_eq!(catch(|| panic!("static")), Err::<(), _>("static".into()));
    }

    #[test]
    fn zero_and_one_task_work() {
        assert_eq!(scope(2, |x: u8| x, |_| 0), 0);
        assert_eq!(
            scope(0, |x: u8| x + 1, |pool| pool.submit(7).wait().0),
            Ok(8)
        );
    }
}
