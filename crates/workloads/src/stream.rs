//! The arming helper both load generators share: an open-loop arrival
//! process holds one pending event, not one per arrival of its window.

use ofc_simtime::{Sim, SimTime};

/// A tenant's arrival process, stepped one arrival at a time.
pub(crate) trait Stream: 'static {
    /// Fires the arrival due now and returns the next arrival instant, or
    /// `None` once that instant falls past the window's end.
    fn fire(&mut self, sim: &mut Sim) -> Option<SimTime>;
}

/// Schedules `stream`'s arrival at `at`; the event re-arms the stream at
/// the instant [`Stream::fire`] returns until the window closes. The state
/// stays in its one `Box`, so each re-arm moves a pointer, not the state.
pub(crate) fn arm<S: Stream>(sim: &mut Sim, at: SimTime, mut stream: Box<S>) {
    sim.schedule_at(at, move |sim| {
        if let Some(next) = stream.fire(sim) {
            arm(sim, next, stream);
        }
    });
}
