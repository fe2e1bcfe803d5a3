//! Schedules: oblivious schedules, pseudo-schedules and scheduling policies.
//!
//! The paper distinguishes three kinds of schedule:
//!
//! * a general **schedule** (Definition 2.1) specifies an assignment for every
//!   step and every possible set of unfinished jobs;
//! * a **regimen** (Definition 2.2) depends only on the unfinished set;
//! * an **oblivious schedule** (Definition 2.3) depends only on the step
//!   number, so it is a plain sequence of assignments.
//!
//! In code the general/regimen cases are captured by the
//! [`SchedulingPolicy`] trait — a callback that produces the next assignment
//! from the step number and the unfinished set — while oblivious schedules
//! are concrete data ([`ObliviousSchedule`]) that also implement the trait.
//! **Pseudo-schedules** (Definition 4.1), where a machine may be assigned a
//! set of jobs in one step, are represented by [`PseudoSchedule`]; they are an
//! intermediate artefact of the LP rounding and are flattened into feasible
//! oblivious schedules by the random-delay step in `suu-algorithms`.

use serde::{Deserialize, Serialize};

use crate::assignment::{Assignment, MultiAssignment};
use crate::ids::{JobId, MachineId};

/// The set of unfinished jobs, tracked as a membership mask.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobSet {
    member: Vec<bool>,
    count: usize,
}

impl JobSet {
    /// The full set `{0, …, num_jobs−1}`.
    #[must_use]
    pub fn all(num_jobs: usize) -> Self {
        Self {
            member: vec![true; num_jobs],
            count: num_jobs,
        }
    }

    /// The empty set over a universe of `num_jobs` jobs.
    #[must_use]
    pub fn empty(num_jobs: usize) -> Self {
        Self {
            member: vec![false; num_jobs],
            count: 0,
        }
    }

    /// Builds a set from explicit members.
    #[must_use]
    pub fn from_members(num_jobs: usize, members: impl IntoIterator<Item = JobId>) -> Self {
        let mut set = Self::empty(num_jobs);
        for j in members {
            set.insert(j);
        }
        set
    }

    /// Size of the universe.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.member.len()
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether `job` is a member.
    #[must_use]
    pub fn contains(&self, job: JobId) -> bool {
        self.member[job.0]
    }

    /// Inserts `job`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, job: JobId) -> bool {
        if self.member[job.0] {
            false
        } else {
            self.member[job.0] = true;
            self.count += 1;
            true
        }
    }

    /// Removes `job`; returns `true` if it was present.
    pub fn remove(&mut self, job: JobId) -> bool {
        if self.member[job.0] {
            self.member[job.0] = false;
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.member
            .iter()
            .enumerate()
            .filter_map(|(j, &m)| m.then_some(JobId(j)))
    }

    /// A `finished[j]` mask: `true` for jobs *not* in the set. (The set is
    /// normally used to hold unfinished jobs.)
    #[must_use]
    pub fn complement_mask(&self) -> Vec<bool> {
        self.member.iter().map(|&m| !m).collect()
    }
}

/// A scheduling policy: given the step number and the current set of
/// unfinished jobs, produce the assignment for this step.
///
/// This is the executable form of the paper's schedules. Oblivious schedules
/// ignore the unfinished set; regimens ignore the step number; adaptive
/// algorithms (such as `SUU-I-ALG`, which reruns the greedy `MSM-ALG` on the
/// unfinished jobs every step) use both. The simulator in `suu-sim` drives any
/// `SchedulingPolicy` and takes care of ignoring assignments to finished or
/// not-yet-eligible jobs, as Definition 2.1 prescribes.
pub trait SchedulingPolicy {
    /// The assignment for step `step` (0-based) when `unfinished` is the set
    /// of unfinished jobs.
    fn assign(&mut self, step: usize, unfinished: &JobSet) -> Assignment;

    /// A short human-readable name for reports.
    fn name(&self) -> String {
        "policy".to_string()
    }
}

/// An oblivious schedule (Definition 2.3): one assignment per step,
/// independent of the execution history.
///
/// A finite oblivious schedule of length `T` is interpreted cyclically when
/// executed beyond `T` (the paper writes `Σ∞` for the infinite repetition of
/// `Σ`), which guarantees that every job keeps receiving machine-steps and the
/// expected makespan is finite.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObliviousSchedule {
    num_machines: usize,
    steps: Vec<Assignment>,
}

impl ObliviousSchedule {
    /// Creates an empty schedule for `num_machines` machines.
    #[must_use]
    pub fn new(num_machines: usize) -> Self {
        Self {
            num_machines,
            steps: Vec::new(),
        }
    }

    /// Creates a schedule from explicit steps.
    ///
    /// # Panics
    ///
    /// Panics if the steps do not all have `num_machines` machines.
    #[must_use]
    pub fn from_steps(num_machines: usize, steps: Vec<Assignment>) -> Self {
        assert!(
            steps.iter().all(|s| s.num_machines() == num_machines),
            "all steps must cover the same machines"
        );
        Self {
            num_machines,
            steps,
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Length `T` of the schedule (number of steps).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the schedule has no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Appends one step.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs.
    pub fn push_step(&mut self, step: Assignment) {
        assert_eq!(
            step.num_machines(),
            self.num_machines,
            "step must cover the same machines"
        );
        self.steps.push(step);
    }

    /// The assignment of step `t` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ len()`.
    #[must_use]
    pub fn step(&self, t: usize) -> &Assignment {
        &self.steps[t]
    }

    /// The assignment used at step `t` when the schedule is repeated
    /// indefinitely (`Σ∞`). Returns an idle assignment for an empty schedule.
    #[must_use]
    pub fn step_cyclic(&self, t: usize) -> Assignment {
        if self.steps.is_empty() {
            Assignment::idle(self.num_machines)
        } else {
            self.steps[t % self.steps.len()].clone()
        }
    }

    /// All steps.
    #[must_use]
    pub fn steps(&self) -> &[Assignment] {
        &self.steps
    }

    /// Concatenation `self ∘ other` (run `self` first, then `other`).
    ///
    /// # Panics
    ///
    /// Panics if the machine counts differ.
    #[must_use]
    pub fn concat(&self, other: &Self) -> Self {
        assert_eq!(self.num_machines, other.num_machines);
        let mut steps = self.steps.clone();
        steps.extend(other.steps.iter().cloned());
        Self {
            num_machines: self.num_machines,
            steps,
        }
    }

    /// Replicates every *step* `factor` times in place (the "schedule
    /// replication" operation of §4.1: each step's machine assignment is
    /// repeated σ times before moving on).
    #[must_use]
    pub fn replicate_steps(&self, factor: usize) -> Self {
        let mut steps = Vec::with_capacity(self.steps.len() * factor);
        for s in &self.steps {
            for _ in 0..factor {
                steps.push(s.clone());
            }
        }
        Self {
            num_machines: self.num_machines,
            steps,
        }
    }

    /// Repeats the whole schedule `times` times (`Σ` → `Σ ∘ Σ ∘ …`).
    #[must_use]
    pub fn repeat_whole(&self, times: usize) -> Self {
        let mut steps = Vec::with_capacity(self.steps.len() * times);
        for _ in 0..times {
            steps.extend(self.steps.iter().cloned());
        }
        Self {
            num_machines: self.num_machines,
            steps,
        }
    }

    /// Load of a machine: the number of steps in which it is busy.
    #[must_use]
    pub fn load(&self, machine: MachineId) -> usize {
        self.steps
            .iter()
            .filter(|s| s.target(machine).is_some())
            .count()
    }

    /// Maximum load over all machines.
    #[must_use]
    pub fn max_load(&self) -> usize {
        (0..self.num_machines)
            .map(|i| self.load(MachineId(i)))
            .max()
            .unwrap_or(0)
    }

    /// Appends this schedule's JSON to `out`: byte for byte what the serde
    /// derive renders (`{"num_machines":m,"steps":[{"targets":[…]},…]}`),
    /// written directly instead of through a `Value` tree, with the numbers
    /// going through the same [`serde::write_number`].
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"num_machines\":");
        serde::write_number(out, self.num_machines as f64);
        out.push_str(",\"steps\":[");
        for (t, step) in self.steps.iter().enumerate() {
            if t > 0 {
                out.push(',');
            }
            out.push_str("{\"targets\":[");
            for (i, target) in step.targets().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match target {
                    Some(job) => serde::write_number(out, job.0 as f64),
                    None => out.push_str("null"),
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
    }
}

impl SchedulingPolicy for ObliviousSchedule {
    fn assign(&mut self, step: usize, _unfinished: &JobSet) -> Assignment {
        self.step_cyclic(step)
    }

    fn name(&self) -> String {
        format!("oblivious(len={})", self.len())
    }
}

/// A pseudo-schedule (Definition 4.1): per step, each machine may be assigned
/// a *set* of jobs. Produced by the LP rounding of Theorem 4.1; not directly
/// executable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PseudoSchedule {
    num_machines: usize,
    steps: Vec<MultiAssignment>,
}

impl PseudoSchedule {
    /// Creates an empty pseudo-schedule.
    #[must_use]
    pub fn new(num_machines: usize) -> Self {
        Self {
            num_machines,
            steps: Vec::new(),
        }
    }

    /// Creates a pseudo-schedule of `length` idle steps.
    #[must_use]
    pub fn idle(num_machines: usize, length: usize) -> Self {
        Self {
            num_machines,
            steps: vec![MultiAssignment::idle(num_machines); length],
        }
    }

    /// Number of machines.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Length (number of steps).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether there are no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The multi-assignment of step `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t ≥ len()`.
    #[must_use]
    pub fn step(&self, t: usize) -> &MultiAssignment {
        &self.steps[t]
    }

    /// All steps.
    #[must_use]
    pub fn steps(&self) -> &[MultiAssignment] {
        &self.steps
    }

    /// Appends a step.
    ///
    /// # Panics
    ///
    /// Panics if the machine count differs.
    pub fn push_step(&mut self, step: MultiAssignment) {
        assert_eq!(step.num_machines(), self.num_machines);
        self.steps.push(step);
    }

    /// Ensures the schedule has at least `length` steps by appending idle
    /// steps.
    pub fn extend_to(&mut self, length: usize) {
        while self.steps.len() < length {
            self.steps.push(MultiAssignment::idle(self.num_machines));
        }
    }

    /// Assigns `machine` to `job` during every step in `[start, end)`,
    /// extending the schedule as needed.
    pub fn assign_interval(&mut self, machine: MachineId, job: JobId, start: usize, end: usize) {
        self.extend_to(end);
        for t in start..end {
            self.steps[t].add(machine, job);
        }
    }

    /// Unions another pseudo-schedule into this one, offsetting the other's
    /// steps by `offset` (used to overlay the per-chain schedules `f^k_t` of
    /// Theorem 4.1 and to apply chain delays).
    ///
    /// # Panics
    ///
    /// Panics if the machine counts differ.
    pub fn union_with_offset(&mut self, other: &Self, offset: usize) {
        assert_eq!(self.num_machines, other.num_machines);
        self.extend_to(offset + other.len());
        for (t, step) in other.steps.iter().enumerate() {
            self.steps[offset + t].union_with(step);
        }
    }

    /// Total load of a machine: the number of `(step, job)` assignments it
    /// receives (Definition 4.2).
    #[must_use]
    pub fn load(&self, machine: MachineId) -> usize {
        self.steps.iter().map(|s| s.congestion(machine)).sum()
    }

    /// Maximum load over machines (the load of the pseudo-schedule,
    /// Definition 4.2).
    #[must_use]
    pub fn max_load(&self) -> usize {
        (0..self.num_machines)
            .map(|i| self.load(MachineId(i)))
            .max()
            .unwrap_or(0)
    }

    /// Maximum *congestion*: the largest number of jobs assigned to a single
    /// machine in a single step. A pseudo-schedule is a feasible oblivious
    /// schedule iff this is ≤ 1.
    #[must_use]
    pub fn max_congestion(&self) -> usize {
        self.steps
            .iter()
            .map(MultiAssignment::max_congestion)
            .max()
            .unwrap_or(0)
    }

    /// Converts to an [`ObliviousSchedule`] if every step is feasible.
    #[must_use]
    pub fn to_oblivious(&self) -> Option<ObliviousSchedule> {
        let mut steps = Vec::with_capacity(self.steps.len());
        for s in &self.steps {
            steps.push(s.to_assignment()?);
        }
        Some(ObliviousSchedule::from_steps(self.num_machines, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobset_insert_remove_and_iterate() {
        let mut s = JobSet::all(4);
        assert_eq!(s.len(), 4);
        assert!(s.remove(JobId(2)));
        assert!(!s.remove(JobId(2)));
        assert!(!s.contains(JobId(2)));
        assert_eq!(s.len(), 3);
        assert!(s.insert(JobId(2)));
        assert!(!s.insert(JobId(2)));
        let members: Vec<JobId> = s.iter().collect();
        assert_eq!(members, vec![JobId(0), JobId(1), JobId(2), JobId(3)]);
    }

    #[test]
    fn jobset_complement_mask() {
        let s = JobSet::from_members(3, [JobId(0), JobId(2)]);
        assert_eq!(s.complement_mask(), vec![false, true, false]);
        assert_eq!(s.universe(), 3);
        assert!(!s.is_empty());
        assert!(JobSet::empty(2).is_empty());
    }

    #[test]
    fn oblivious_schedule_push_and_index() {
        let mut sched = ObliviousSchedule::new(2);
        assert!(sched.is_empty());
        let mut a = Assignment::idle(2);
        a.assign(MachineId(0), JobId(1));
        sched.push_step(a.clone());
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.step(0), &a);
    }

    #[test]
    #[should_panic(expected = "same machines")]
    fn push_step_with_wrong_machine_count_panics() {
        let mut sched = ObliviousSchedule::new(2);
        sched.push_step(Assignment::idle(3));
    }

    #[test]
    fn cyclic_step_wraps_around() {
        let mut sched = ObliviousSchedule::new(1);
        let mut a0 = Assignment::idle(1);
        a0.assign(MachineId(0), JobId(0));
        let a1 = Assignment::idle(1);
        sched.push_step(a0.clone());
        sched.push_step(a1.clone());
        assert_eq!(sched.step_cyclic(0), a0);
        assert_eq!(sched.step_cyclic(5), a1);
        assert_eq!(sched.step_cyclic(6), a0);
        assert_eq!(
            ObliviousSchedule::new(3).step_cyclic(10),
            Assignment::idle(3)
        );
    }

    #[test]
    fn concat_replicate_and_repeat() {
        let mut a = Assignment::idle(1);
        a.assign(MachineId(0), JobId(0));
        let b = Assignment::idle(1);
        let s1 = ObliviousSchedule::from_steps(1, vec![a.clone()]);
        let s2 = ObliviousSchedule::from_steps(1, vec![b.clone()]);
        let cat = s1.concat(&s2);
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.step(0), &a);
        assert_eq!(cat.step(1), &b);

        let rep = cat.replicate_steps(3);
        assert_eq!(rep.len(), 6);
        assert_eq!(rep.step(0), &a);
        assert_eq!(rep.step(2), &a);
        assert_eq!(rep.step(3), &b);

        let whole = cat.repeat_whole(2);
        assert_eq!(whole.len(), 4);
        assert_eq!(whole.step(2), &a);
    }

    #[test]
    fn load_counts_busy_steps() {
        let mut a = Assignment::idle(2);
        a.assign(MachineId(0), JobId(0));
        let mut b = Assignment::idle(2);
        b.assign(MachineId(0), JobId(1));
        b.assign(MachineId(1), JobId(1));
        let sched = ObliviousSchedule::from_steps(2, vec![a, b]);
        assert_eq!(sched.load(MachineId(0)), 2);
        assert_eq!(sched.load(MachineId(1)), 1);
        assert_eq!(sched.max_load(), 2);
    }

    #[test]
    fn oblivious_schedule_is_a_policy() {
        let mut a = Assignment::idle(1);
        a.assign(MachineId(0), JobId(0));
        let mut sched = ObliviousSchedule::from_steps(1, vec![a.clone()]);
        let unfinished = JobSet::all(1);
        assert_eq!(sched.assign(0, &unfinished), a);
        assert_eq!(sched.assign(7, &unfinished), a);
        assert!(sched.name().contains("oblivious"));
    }

    #[test]
    fn pseudo_schedule_assign_interval_and_load() {
        let mut ps = PseudoSchedule::new(2);
        ps.assign_interval(MachineId(0), JobId(0), 0, 3);
        ps.assign_interval(MachineId(0), JobId(1), 2, 4);
        ps.assign_interval(MachineId(1), JobId(1), 1, 2);
        assert_eq!(ps.len(), 4);
        assert_eq!(ps.load(MachineId(0)), 5);
        assert_eq!(ps.load(MachineId(1)), 1);
        assert_eq!(ps.max_load(), 5);
        assert_eq!(ps.max_congestion(), 2); // step 2 has jobs 0 and 1 on machine 0
        assert!(ps.to_oblivious().is_none());
    }

    #[test]
    fn feasible_pseudo_schedule_converts_to_oblivious() {
        let mut ps = PseudoSchedule::new(2);
        ps.assign_interval(MachineId(0), JobId(0), 0, 2);
        ps.assign_interval(MachineId(1), JobId(1), 0, 1);
        assert_eq!(ps.max_congestion(), 1);
        let ob = ps.to_oblivious().unwrap();
        assert_eq!(ob.len(), 2);
        assert_eq!(ob.step(0).target(MachineId(0)), Some(JobId(0)));
        assert_eq!(ob.step(1).target(MachineId(1)), None);
    }

    #[test]
    fn union_with_offset_overlays_schedules() {
        let mut a = PseudoSchedule::new(1);
        a.assign_interval(MachineId(0), JobId(0), 0, 2);
        let mut b = PseudoSchedule::new(1);
        b.assign_interval(MachineId(0), JobId(1), 0, 2);
        a.union_with_offset(&b, 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.step(0).congestion(MachineId(0)), 1);
        assert_eq!(a.step(1).congestion(MachineId(0)), 2);
        assert_eq!(a.step(2).congestion(MachineId(0)), 1);
    }

    #[test]
    fn oblivious_schedule_serde_roundtrip() {
        let mut a = Assignment::idle(2);
        a.assign(MachineId(0), JobId(1));
        let mut b = Assignment::idle(2);
        b.assign(MachineId(1), JobId(0));
        let sched = ObliviousSchedule::from_steps(2, vec![a, b]);
        let json = serde_json::to_string(&sched).unwrap();
        let back: ObliviousSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(sched, back);
        assert_eq!(back.num_machines(), 2);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn write_json_matches_the_serde_rendering() {
        let mut a = Assignment::idle(3);
        a.assign(MachineId(0), JobId(1_000_000));
        a.assign(MachineId(2), JobId(7));
        for sched in [
            ObliviousSchedule::new(3),
            ObliviousSchedule::from_steps(3, vec![Assignment::idle(3)]),
            ObliviousSchedule::from_steps(3, vec![a, Assignment::idle(3)]),
        ] {
            let want = serde_json::to_string(&sched).unwrap();
            let mut got = String::new();
            sched.write_json(&mut got);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn pseudo_schedule_serde_roundtrip() {
        let mut ps = PseudoSchedule::new(2);
        ps.assign_interval(MachineId(0), JobId(0), 0, 2);
        ps.assign_interval(MachineId(0), JobId(1), 1, 3);
        ps.assign_interval(MachineId(1), JobId(2), 0, 1);
        let json = serde_json::to_string(&ps).unwrap();
        let back: PseudoSchedule = serde_json::from_str(&json).unwrap();
        assert_eq!(ps, back);
        assert_eq!(back.max_congestion(), ps.max_congestion());
    }

    #[test]
    fn jobset_serde_roundtrip() {
        let s = JobSet::from_members(5, [JobId(1), JobId(4)]);
        let json = serde_json::to_string(&s).unwrap();
        let back: JobSet = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn idle_pseudo_schedule_has_zero_load() {
        let ps = PseudoSchedule::idle(3, 5);
        assert_eq!(ps.len(), 5);
        assert_eq!(ps.max_load(), 0);
        assert_eq!(ps.max_congestion(), 0);
        assert!(ps.to_oblivious().is_some());
    }
}
