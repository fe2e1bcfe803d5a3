//! Single-step machine-to-job assignments.
//!
//! A schedule assigns machines to jobs step by step. Within one step a
//! *feasible* assignment gives every machine at most one job
//! ([`Assignment`]); the pseudo-schedules of Definition 4.1 relax this and let
//! a machine be assigned to a *set* of jobs simultaneously
//! ([`MultiAssignment`]), which the random-delay step later flattens back into
//! feasible assignments.

use serde::{Deserialize, Serialize};

use crate::ids::{JobId, MachineId};

/// A feasible single-step assignment: each machine works on at most one job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// `targets[i]` is the job machine `i` works on this step, if any.
    targets: Vec<Option<JobId>>,
}

impl Assignment {
    /// An assignment in which every one of `num_machines` machines idles.
    #[must_use]
    pub fn idle(num_machines: usize) -> Self {
        Self {
            targets: vec![None; num_machines],
        }
    }

    /// Builds an assignment from an explicit target vector.
    #[must_use]
    pub fn from_targets(targets: Vec<Option<JobId>>) -> Self {
        Self { targets }
    }

    /// An assignment sending *every* machine to the same job.
    #[must_use]
    pub fn all_on(num_machines: usize, job: JobId) -> Self {
        Self {
            targets: vec![Some(job); num_machines],
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.targets.len()
    }

    /// Every machine's target, indexed by machine.
    #[must_use]
    pub(crate) fn targets(&self) -> &[Option<JobId>] {
        &self.targets
    }

    /// The job machine `machine` works on, if any.
    #[must_use]
    pub fn target(&self, machine: MachineId) -> Option<JobId> {
        self.targets[machine.0]
    }

    /// Assigns `machine` to `job` (replacing any previous target).
    pub fn assign(&mut self, machine: MachineId, job: JobId) {
        self.targets[machine.0] = Some(job);
    }

    /// Makes `machine` idle.
    pub fn unassign(&mut self, machine: MachineId) {
        self.targets[machine.0] = None;
    }

    /// Iterates over `(machine, job)` pairs of busy machines.
    pub fn busy_pairs(&self) -> impl Iterator<Item = (MachineId, JobId)> + '_ {
        self.targets
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|j| (MachineId(i), j)))
    }

    /// Machines assigned to `job` in this step.
    #[must_use]
    pub fn machines_on(&self, job: JobId) -> Vec<MachineId> {
        self.busy_pairs()
            .filter(|&(_, j)| j == job)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of idle machines.
    #[must_use]
    pub fn num_idle(&self) -> usize {
        self.targets.iter().filter(|t| t.is_none()).count()
    }

    /// Removes assignments to any job for which `keep` returns `false`
    /// (used when executing an oblivious schedule: machines assigned to
    /// already-finished or not-yet-eligible jobs idle instead).
    #[must_use]
    pub fn filtered(&self, mut keep: impl FnMut(JobId) -> bool) -> Self {
        Self {
            targets: self
                .targets
                .iter()
                .map(|t| t.filter(|&j| keep(j)))
                .collect(),
        }
    }
}

/// A single step of a pseudo-schedule: each machine is assigned to a *set* of
/// jobs (Definition 4.1). Not directly executable; see
/// `suu-algorithms::delay` for the flattening into feasible assignments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct MultiAssignment {
    /// `targets[i]` lists the jobs machine `i` is assigned to this step.
    targets: Vec<Vec<JobId>>,
}

impl MultiAssignment {
    /// A multi-assignment with every machine idle.
    #[must_use]
    pub fn idle(num_machines: usize) -> Self {
        Self {
            targets: vec![Vec::new(); num_machines],
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.targets.len()
    }

    /// Adds `job` to the set of jobs machine `machine` is assigned to.
    /// Duplicate additions are ignored.
    pub fn add(&mut self, machine: MachineId, job: JobId) {
        let list = &mut self.targets[machine.0];
        if !list.contains(&job) {
            list.push(job);
        }
    }

    /// Jobs assigned to `machine` this step.
    #[must_use]
    pub fn jobs_of(&self, machine: MachineId) -> &[JobId] {
        &self.targets[machine.0]
    }

    /// Number of jobs assigned to `machine` this step (its congestion).
    #[must_use]
    pub fn congestion(&self, machine: MachineId) -> usize {
        self.targets[machine.0].len()
    }

    /// The maximum congestion over all machines.
    #[must_use]
    pub fn max_congestion(&self) -> usize {
        self.targets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether every machine has at most one job (i.e. the step is already a
    /// feasible assignment).
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.max_congestion() <= 1
    }

    /// Converts to a feasible [`Assignment`] if possible.
    #[must_use]
    pub fn to_assignment(&self) -> Option<Assignment> {
        if !self.is_feasible() {
            return None;
        }
        Some(Assignment::from_targets(
            self.targets
                .iter()
                .map(|jobs| jobs.first().copied())
                .collect(),
        ))
    }

    /// Merges another multi-assignment into this one (union of job sets per
    /// machine).
    ///
    /// # Panics
    ///
    /// Panics if the machine counts differ.
    pub fn union_with(&mut self, other: &Self) {
        assert_eq!(
            self.targets.len(),
            other.targets.len(),
            "machine counts must match"
        );
        for (i, jobs) in other.targets.iter().enumerate() {
            for &j in jobs {
                self.add(MachineId(i), j);
            }
        }
    }

    /// Iterates over `(machine, job)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (MachineId, JobId)> + '_ {
        self.targets
            .iter()
            .enumerate()
            .flat_map(|(i, jobs)| jobs.iter().map(move |&j| (MachineId(i), j)))
    }
}

impl From<Assignment> for MultiAssignment {
    fn from(a: Assignment) -> Self {
        let mut out = Self::idle(a.num_machines());
        for (i, j) in a.busy_pairs() {
            out.add(i, j);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_assignment_has_no_busy_machines() {
        let a = Assignment::idle(3);
        assert_eq!(a.num_machines(), 3);
        assert_eq!(a.num_idle(), 3);
        assert_eq!(a.busy_pairs().count(), 0);
    }

    #[test]
    fn assign_and_unassign() {
        let mut a = Assignment::idle(2);
        a.assign(MachineId(0), JobId(5));
        assert_eq!(a.target(MachineId(0)), Some(JobId(5)));
        assert_eq!(a.num_idle(), 1);
        a.unassign(MachineId(0));
        assert_eq!(a.target(MachineId(0)), None);
    }

    #[test]
    fn all_on_assigns_every_machine() {
        let a = Assignment::all_on(4, JobId(2));
        assert_eq!(a.machines_on(JobId(2)).len(), 4);
        assert_eq!(a.num_idle(), 0);
    }

    #[test]
    fn machines_on_filters_by_job() {
        let mut a = Assignment::idle(3);
        a.assign(MachineId(0), JobId(1));
        a.assign(MachineId(2), JobId(1));
        a.assign(MachineId(1), JobId(0));
        assert_eq!(a.machines_on(JobId(1)), vec![MachineId(0), MachineId(2)]);
        assert_eq!(a.machines_on(JobId(7)), Vec::<MachineId>::new());
    }

    #[test]
    fn filtered_drops_unwanted_jobs() {
        let mut a = Assignment::idle(3);
        a.assign(MachineId(0), JobId(0));
        a.assign(MachineId(1), JobId(1));
        a.assign(MachineId(2), JobId(2));
        let f = a.filtered(|j| j.0 != 1);
        assert_eq!(f.target(MachineId(0)), Some(JobId(0)));
        assert_eq!(f.target(MachineId(1)), None);
        assert_eq!(f.target(MachineId(2)), Some(JobId(2)));
    }

    #[test]
    fn multi_assignment_tracks_congestion() {
        let mut m = MultiAssignment::idle(2);
        m.add(MachineId(0), JobId(0));
        m.add(MachineId(0), JobId(1));
        m.add(MachineId(0), JobId(1)); // duplicate ignored
        m.add(MachineId(1), JobId(2));
        assert_eq!(m.congestion(MachineId(0)), 2);
        assert_eq!(m.congestion(MachineId(1)), 1);
        assert_eq!(m.max_congestion(), 2);
        assert!(!m.is_feasible());
        assert!(m.to_assignment().is_none());
    }

    #[test]
    fn feasible_multi_assignment_converts() {
        let mut m = MultiAssignment::idle(2);
        m.add(MachineId(1), JobId(3));
        assert!(m.is_feasible());
        let a = m.to_assignment().unwrap();
        assert_eq!(a.target(MachineId(1)), Some(JobId(3)));
        assert_eq!(a.target(MachineId(0)), None);
    }

    #[test]
    fn union_merges_job_sets() {
        let mut a = MultiAssignment::idle(2);
        a.add(MachineId(0), JobId(0));
        let mut b = MultiAssignment::idle(2);
        b.add(MachineId(0), JobId(1));
        b.add(MachineId(1), JobId(0));
        a.union_with(&b);
        assert_eq!(a.congestion(MachineId(0)), 2);
        assert_eq!(a.congestion(MachineId(1)), 1);
        assert_eq!(a.pairs().count(), 3);
    }

    #[test]
    #[should_panic(expected = "machine counts")]
    fn union_with_mismatched_sizes_panics() {
        let mut a = MultiAssignment::idle(2);
        let b = MultiAssignment::idle(3);
        a.union_with(&b);
    }

    #[test]
    fn assignment_serde_roundtrip() {
        let mut a = Assignment::idle(3);
        a.assign(MachineId(0), JobId(2));
        a.assign(MachineId(2), JobId(0));
        let json = serde_json::to_string(&a).unwrap();
        let back: Assignment = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
        // Idle machines serialise as JSON null.
        assert!(json.contains("null"));
    }

    #[test]
    fn multi_assignment_serde_roundtrip() {
        let mut m = MultiAssignment::idle(2);
        m.add(MachineId(0), JobId(0));
        m.add(MachineId(0), JobId(1));
        m.add(MachineId(1), JobId(2));
        let json = serde_json::to_string(&m).unwrap();
        let back: MultiAssignment = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn assignment_converts_to_multi() {
        let mut a = Assignment::idle(3);
        a.assign(MachineId(2), JobId(1));
        let m: MultiAssignment = a.into();
        assert_eq!(m.jobs_of(MachineId(2)), &[JobId(1)]);
        assert_eq!(m.max_congestion(), 1);
    }
}
