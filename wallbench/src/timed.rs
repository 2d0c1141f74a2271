//! Timing decorators for the traced run: they delegate every call to the
//! real checker or index and wrap the layer boundary in a span, so the
//! plan they take part in is bit-identical to an undecorated one.

use std::cell::RefCell;

use moped_collision::{CollisionChecker, CollisionLedger};
use moped_core::NeighborIndex;
use moped_geometry::{Config, InterpolationSteps, OpCount};
use moped_robot::Robot;

use crate::trace::Recorder;

/// One collision query a planner issued.
#[derive(Clone, Copy, Debug)]
pub enum Query {
    /// A `motion_free` call.
    Motion(Config, Config, InterpolationSteps),
    /// A direct `config_free` call (the connect engines' probes).
    Pose(Config),
}

/// The collision queries of one plan, in issue order.
pub type EdgeLog = RefCell<Vec<Query>>;

/// Wraps `motion_free` (not `config_free`: a span per pose would cost
/// more than the pose check it measures).
pub struct TimedChecker<'a, C> {
    inner: &'a C,
    rec: &'a Recorder,
    edges: &'a EdgeLog,
}

impl<'a, C: CollisionChecker> TimedChecker<'a, C> {
    /// Decorates `inner`; every collision query is also appended to
    /// `edges` for kernel replay.
    pub fn new(inner: &'a C, rec: &'a Recorder, edges: &'a EdgeLog) -> Self {
        TimedChecker { inner, rec, edges }
    }
}

impl<C: CollisionChecker> CollisionChecker for TimedChecker<'_, C> {
    fn config_free(&self, robot: &Robot, q: &Config, ledger: &mut CollisionLedger) -> bool {
        // Only direct pose probes land here: the inner `motion_free`
        // calls the inner checker's `config_free`, not this one.
        self.edges.borrow_mut().push(Query::Pose(*q));
        let _span = self.rec.span("collision.pose");
        self.inner.config_free(robot, q, ledger)
    }

    fn motion_free(
        &self,
        robot: &Robot,
        from: &Config,
        to: &Config,
        steps: &InterpolationSteps,
        ledger: &mut CollisionLedger,
    ) -> bool {
        self.edges
            .borrow_mut()
            .push(Query::Motion(*from, *to, *steps));
        let _span = self.rec.span("collision.motion");
        self.inner.motion_free(robot, from, to, steps, ledger)
    }

    fn begin_plan(&self) {
        self.inner.begin_plan();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps the three neighbor-index queries of a planning round.
pub struct TimedIndex<'a, N> {
    /// The decorated index (read after planning for its own statistics).
    pub inner: N,
    rec: &'a Recorder,
}

impl<'a, N: NeighborIndex> TimedIndex<'a, N> {
    /// Decorates `inner`.
    pub fn new(inner: N, rec: &'a Recorder) -> Self {
        TimedIndex { inner, rec }
    }
}

impl<N: NeighborIndex> NeighborIndex for TimedIndex<'_, N> {
    fn insert(&mut self, id: u64, q: Config, near_hint: Option<u64>, ops: &mut OpCount) {
        let _span = self.rec.span("simbr.insert");
        self.inner.insert(id, q, near_hint, ops);
    }

    fn nearest(&self, q: &Config, ops: &mut OpCount) -> Option<(u64, f64)> {
        let _span = self.rec.span("simbr.nearest");
        self.inner.nearest(q, ops)
    }

    fn neighborhood(
        &self,
        anchor: u64,
        q: &Config,
        radius: f64,
        ops: &mut OpCount,
    ) -> Vec<(u64, Config)> {
        let _span = self.rec.span("simbr.neighborhood");
        self.inner.neighborhood(anchor, q, radius, ops)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn fresh(&self) -> Self {
        TimedIndex {
            inner: self.inner.fresh(),
            rec: self.rec,
        }
    }
}
