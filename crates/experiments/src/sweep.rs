//! The (defense system × sweep point) grid driver.
//!
//! Every comparison figure of the paper is a grid: each system from a list
//! runs the same scenario at each sweep point (sender count, capacity pair,
//! on-off period, …). [`SweepGrid`] owns that iteration — build it from the
//! systems and points, hand it a `spec` closure mapping one cell to a
//! [`ScenarioSpec`], and get back one [`Cell`] per combination, in
//! deterministic (point-major) order regardless of how many worker threads
//! execute the cells.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::defense::DefenseKind;
use crate::record::Record;
use crate::runner::Runner;
use crate::spec::ScenarioSpec;

/// One executed cell of the grid.
#[derive(Debug, Clone)]
pub struct Cell<P> {
    /// The sweep point.
    pub point: P,
    /// The defense system that ran.
    pub system: DefenseKind,
    /// The run's outcome.
    pub record: Record,
}

/// A (system × point) sweep.
#[derive(Debug, Clone)]
pub struct SweepGrid<P> {
    systems: Vec<DefenseKind>,
    points: Vec<P>,
}

impl<P: Clone> SweepGrid<P> {
    /// A grid over `systems` × `points`.
    pub fn new(systems: impl Into<Vec<DefenseKind>>, points: impl Into<Vec<P>>) -> Self {
        SweepGrid { systems: systems.into(), points: points.into() }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.systems.len() * self.points.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells in point-major order (all systems at point 0, then all
    /// systems at point 1, …) — the row order the paper's tables use.
    fn cells(&self) -> Vec<(P, DefenseKind)> {
        let mut v = Vec::with_capacity(self.len());
        for p in &self.points {
            for &s in &self.systems {
                v.push((p.clone(), s));
            }
        }
        v
    }

    /// Run every cell sequentially.
    pub fn run(&self, spec: impl Fn(DefenseKind, &P) -> ScenarioSpec) -> Vec<Cell<P>> {
        self.cells()
            .into_iter()
            .map(|(point, system)| {
                let record = Runner::new(spec(system, &point)).run();
                Cell { point, system, record }
            })
            .collect()
    }

    /// Run the cells on `threads` worker threads (scoped `std::thread`; the
    /// workspace deliberately has no rayon dependency — see `DESIGN.md`).
    /// Results come back in the same deterministic order as [`run`]: each
    /// cell's simulation is fully independent and seeds come from its spec,
    /// so the schedule cannot leak into the records.
    ///
    /// [`run`]: SweepGrid::run
    pub fn run_parallel(
        &self,
        threads: usize,
        spec: impl Fn(DefenseKind, &P) -> ScenarioSpec + Sync,
    ) -> Vec<Cell<P>>
    where
        P: Send + Sync,
    {
        let cells = self.cells();
        let threads = threads.max(1).min(cells.len().max(1));
        if threads <= 1 {
            return self.run(spec);
        }
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<Option<Cell<P>>>> =
            Mutex::new((0..cells.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((point, system)) = cells.get(i) else { break };
                    let record = Runner::new(spec(*system, point)).run();
                    done.lock().unwrap()[i] =
                        Some(Cell { point: point.clone(), system: *system, record });
                });
            }
        });
        done.into_inner().unwrap().into_iter().map(|c| c.expect("cell executed")).collect()
    }

    /// Run with one worker per available CPU (capped by the cell count).
    pub fn run_auto(&self, spec: impl Fn(DefenseKind, &P) -> ScenarioSpec + Sync) -> Vec<Cell<P>>
    where
        P: Send + Sync,
    {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.run_parallel(threads, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Scale, TrafficSpec};
    use netfence_sim::time::SEC;

    fn tiny_spec(system: DefenseKind, fair_share: &u64) -> ScenarioSpec {
        ScenarioSpec::dumbbell(Scale { src_ases: 2, hosts_per_as: 2, sim_time: 4 * SEC, seed: 9 })
            .defense(system)
            .fair_share(*fair_share)
            .users(TrafficSpec::LongRunningTcp)
    }

    #[test]
    fn grid_covers_every_cell_in_point_major_order() {
        let grid = SweepGrid::new([DefenseKind::None, DefenseKind::Fq], [50_000u64, 100_000]);
        assert_eq!(grid.len(), 4);
        let cells = grid.run(tiny_spec);
        let got: Vec<(u64, DefenseKind)> = cells.iter().map(|c| (c.point, c.system)).collect();
        assert_eq!(
            got,
            vec![
                (50_000, DefenseKind::None),
                (50_000, DefenseKind::Fq),
                (100_000, DefenseKind::None),
                (100_000, DefenseKind::Fq),
            ]
        );
    }

    #[test]
    fn parallel_run_matches_sequential_run() {
        let grid = SweepGrid::new([DefenseKind::None, DefenseKind::Fq], [50_000u64, 100_000]);
        let seq = grid.run(tiny_spec);
        let par = grid.run_parallel(4, tiny_spec);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.point, p.point);
            assert_eq!(s.system, p.system);
            assert_eq!(s.record, p.record, "parallel execution changed a record");
        }
    }
}
