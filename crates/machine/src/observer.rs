//! The [`Observer`] trait: the machine's one I/O event sink.
//!
//! A [`crate::MachineCore`] carries one sink and calls it after every
//! *successful* metered operation, on every internal-memory change that is
//! not an I/O (`discard`, `reserve`) and on the `phase_enter`/`phase_exit`
//! hooks. Failed operations call nothing, so a sink sees exactly the
//! program the meter charged. Every recorder in the workspace is a sink:
//! an event-level [`crate::Trace`], the compiled schedule behind
//! `--backend trace` ([`crate::CompiledTrace`]) and `aem-obs`'s run
//! recorder. Sinks compose as pairs, so one run can feed two of them.
//!
//! The unit sink `()` ignores everything; the plain machines carry it, so
//! an unobserved run compiles to the bare meter.

use crate::block::BlockId;
use crate::config::AemConfig;
use crate::trace::IoEvent;

/// A bulk data run ([`crate::AemAccess::read_run`] /
/// [`crate::AemAccess::write_run`]) handed to a sink as one event.
///
/// Sinks that price whole runs read the fields; per-block recorders walk
/// [`IoRun::events`], which rebuilds the events and occupancies the
/// equivalent per-block loop would have produced.
pub struct IoRun<'a> {
    /// `true` for a write run, `false` for a read run.
    pub write: bool,
    /// First block of the run.
    pub first: BlockId,
    /// Number of block transfers.
    pub blocks: usize,
    /// Total elements moved.
    pub elems: usize,
    /// Internal-memory occupancy after the whole run.
    pub internal_used: usize,
    /// Occupancy of the run's `i`-th block.
    pub(crate) block_len: &'a dyn Fn(usize) -> usize,
}

impl IoRun<'_> {
    /// The run as per-block events, each with the internal-memory
    /// occupancy after that block: what `blocks` single-block operations
    /// would have reported.
    pub fn events(&self) -> impl Iterator<Item = (IoEvent, usize)> + '_ {
        let mut used = if self.write {
            self.internal_used + self.elems
        } else {
            self.internal_used - self.elems
        };
        (0..self.blocks).map(move |i| {
            let (block, len) = (BlockId(self.first.index() + i), (self.block_len)(i));
            let ev = if self.write {
                used -= len;
                IoEvent::Write {
                    block,
                    len,
                    aux: false,
                }
            } else {
                used += len;
                IoEvent::Read {
                    block,
                    len,
                    aux: false,
                }
            };
            (ev, used)
        })
    }
}

/// Receives the metered event stream of one machine.
///
/// All callbacks default to no-ops (a bulk run defaults to its per-block
/// events), so implementors override only what they need.
pub trait Observer {
    /// A fresh sink for a machine configured with `cfg`.
    fn new_sink(cfg: AemConfig) -> Self
    where
        Self: Sized;

    /// Called after every successful single-block I/O, with the event and
    /// the internal-memory occupancy (elements) *after* the operation.
    fn on_io(&mut self, ev: &IoEvent, internal_used: usize) {
        let _ = (ev, internal_used);
    }

    /// Called after every successful bulk run.
    fn on_run(&mut self, run: &IoRun<'_>) {
        for (ev, used) in run.events() {
            self.on_io(&ev, used);
        }
    }

    /// Called after a successful `discard` or `reserve` with the new
    /// occupancy.
    fn on_mem(&mut self, internal_used: usize) {
        let _ = internal_used;
    }

    /// Called when the algorithm opens a named phase.
    fn on_phase_enter(&mut self, name: &str, internal_used: usize) {
        let _ = (name, internal_used);
    }

    /// Called when the algorithm closes its innermost phase.
    fn on_phase_exit(&mut self) {}

    /// Called by [`crate::MachineCore::reset`]: drop what was recorded.
    fn on_reset(&mut self) {}
}

impl Observer for () {
    fn new_sink(_: AemConfig) {}

    #[inline]
    fn on_run(&mut self, _: &IoRun<'_>) {}
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    fn new_sink(cfg: AemConfig) -> Self {
        (A::new_sink(cfg), B::new_sink(cfg))
    }
    fn on_io(&mut self, ev: &IoEvent, internal_used: usize) {
        self.0.on_io(ev, internal_used);
        self.1.on_io(ev, internal_used);
    }
    fn on_run(&mut self, run: &IoRun<'_>) {
        self.0.on_run(run);
        self.1.on_run(run);
    }
    fn on_mem(&mut self, internal_used: usize) {
        self.0.on_mem(internal_used);
        self.1.on_mem(internal_used);
    }
    fn on_phase_enter(&mut self, name: &str, internal_used: usize) {
        self.0.on_phase_enter(name, internal_used);
        self.1.on_phase_enter(name, internal_used);
    }
    fn on_phase_exit(&mut self) {
        self.0.on_phase_exit();
        self.1.on_phase_exit();
    }
    fn on_reset(&mut self) {
        self.0.on_reset();
        self.1.on_reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AemConfig {
        AemConfig::new(16, 4, 8).unwrap()
    }

    #[derive(Default)]
    struct CountingObserver {
        ios: usize,
        mems: usize,
        enters: usize,
        exits: usize,
    }

    impl Observer for CountingObserver {
        fn new_sink(_: AemConfig) -> Self {
            Self::default()
        }
        fn on_io(&mut self, _ev: &IoEvent, _iu: usize) {
            self.ios += 1;
        }
        fn on_mem(&mut self, _iu: usize) {
            self.mems += 1;
        }
        fn on_phase_enter(&mut self, _name: &str, _iu: usize) {
            self.enters += 1;
        }
        fn on_phase_exit(&mut self) {
            self.exits += 1;
        }
    }

    struct DefaultObserver;
    impl Observer for DefaultObserver {
        fn new_sink(_: AemConfig) -> Self {
            DefaultObserver
        }
    }

    // Ten elements over B = 4: blocks of 4, 4 and 2.
    fn lens(i: usize) -> usize {
        [4, 4, 2][i]
    }

    fn run(write: bool) -> IoRun<'static> {
        IoRun {
            write,
            first: BlockId(3),
            blocks: 3,
            elems: 10,
            internal_used: if write { 1 } else { 11 },
            block_len: &lens,
        }
    }

    #[test]
    fn default_methods_are_no_ops() {
        let mut o = DefaultObserver::new_sink(cfg());
        o.on_io(
            &IoEvent::Read {
                block: BlockId(0),
                len: 1,
                aux: false,
            },
            1,
        );
        o.on_run(&run(false));
        o.on_mem(0);
        o.on_phase_enter("x", 0);
        o.on_phase_exit();
        o.on_reset();
    }

    #[test]
    fn overridden_methods_receive_calls() {
        let mut o: (CountingObserver, ()) = Observer::new_sink(cfg());
        o.on_phase_enter("p", 0);
        o.on_io(
            &IoEvent::Write {
                block: BlockId(1),
                len: 4,
                aux: true,
            },
            0,
        );
        o.on_run(&run(true));
        o.on_mem(3);
        o.on_phase_exit();
        let c = &o.0;
        assert_eq!((c.ios, c.mems, c.enters, c.exits), (4, 1, 1, 1));
    }

    #[test]
    fn run_events_rebuild_the_per_block_occupancies() {
        let reads: Vec<(usize, usize)> = run(false)
            .events()
            .map(|(ev, iu)| (ev.block().index(), iu))
            .collect();
        assert_eq!(reads, vec![(3, 5), (4, 9), (5, 11)]);
        let writes: Vec<(IoEvent, usize)> = run(true).events().collect();
        assert_eq!(writes.iter().map(|w| w.1).collect::<Vec<_>>(), [7, 3, 1]);
        assert!(writes.iter().all(|w| w.0.is_write()));
        assert_eq!(writes[2].0.len(), 2);
    }
}
