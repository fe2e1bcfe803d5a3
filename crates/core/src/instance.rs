//! SUU problem instances and their builder.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};
use suu_graph::{Dag, ForestKind};

use crate::error::InstanceError;
use crate::ids::{JobId, MachineId};

/// Lazily built sparse index over the positive entries of the probability
/// matrix, in compressed-sparse-row form along both axes plus the globally
/// sorted entry list. Realistic multi-tenant instances have per-job machine
/// eligibility that is O(log m), not O(m), so the algorithms' hot loops must
/// iterate non-zeros — never scan the dense matrix.
#[derive(Debug, Clone)]
struct ProbIndex {
    /// `machine_ptr[i]..machine_ptr[i + 1]` indexes `machine_entries`:
    /// the jobs machine `i` can work on, in increasing job order.
    machine_ptr: Vec<usize>,
    machine_entries: Vec<(JobId, f64)>,
    /// `job_ptr[j]..job_ptr[j + 1]` indexes `job_entries`: the machines
    /// capable of job `j`, in increasing machine order.
    job_ptr: Vec<usize>,
    job_entries: Vec<(MachineId, f64)>,
    /// Every positive entry, sorted by decreasing probability (ties keep
    /// machine-major insertion order) — the processing order of MSM-ALG and
    /// MSM-E-ALG.
    sorted: Vec<(MachineId, JobId, f64)>,
}

impl ProbIndex {
    fn build(num_jobs: usize, num_machines: usize, probs: &[f64]) -> Self {
        let mut machine_ptr = Vec::with_capacity(num_machines + 1);
        let mut machine_entries = Vec::new();
        let mut job_counts = vec![0usize; num_jobs + 1];
        machine_ptr.push(0);
        for i in 0..num_machines {
            for j in 0..num_jobs {
                let p = probs[i * num_jobs + j];
                if p > 0.0 {
                    machine_entries.push((JobId(j), p));
                    job_counts[j + 1] += 1;
                }
            }
            machine_ptr.push(machine_entries.len());
        }
        for j in 0..num_jobs {
            job_counts[j + 1] += job_counts[j];
        }
        let job_ptr = job_counts.clone();
        let mut cursor = job_counts;
        let mut job_entries = vec![(MachineId(0), 0.0); machine_entries.len()];
        for i in 0..num_machines {
            for &(j, p) in &machine_entries[machine_ptr[i]..machine_ptr[i + 1]] {
                job_entries[cursor[j.0]] = (MachineId(i), p);
                cursor[j.0] += 1;
            }
        }
        let mut sorted: Vec<(MachineId, JobId, f64)> = Vec::with_capacity(machine_entries.len());
        for i in 0..num_machines {
            for &(j, p) in &machine_entries[machine_ptr[i]..machine_ptr[i + 1]] {
                sorted.push((MachineId(i), j, p));
            }
        }
        sorted.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        Self {
            machine_ptr,
            machine_entries,
            job_ptr,
            job_entries,
            sorted,
        }
    }
}

/// A validated instance of multiprocessor scheduling under uncertainty.
///
/// An instance consists of `n` unit-time jobs, `m` machines, the probability
/// matrix `p_ij` (probability that machine `i` completes job `j` in one step)
/// and a precedence DAG over the jobs. Validation guarantees that every
/// probability lies in `[0, 1]` and that every job has at least one machine
/// with positive success probability (otherwise the expected makespan would be
/// infinite; the paper makes the same assumption).
///
/// # Examples
///
/// ```
/// use suu_core::{InstanceBuilder, JobId, MachineId};
///
/// // Two machines, three independent jobs.
/// let instance = InstanceBuilder::new(3, 2)
///     .probability(MachineId(0), JobId(0), 0.9)
///     .probability(MachineId(0), JobId(1), 0.5)
///     .probability(MachineId(1), JobId(1), 0.7)
///     .probability(MachineId(1), JobId(2), 0.2)
///     .probability(MachineId(0), JobId(2), 0.1)
///     .build()
///     .unwrap();
/// assert_eq!(instance.num_jobs(), 3);
/// assert_eq!(instance.prob(MachineId(1), JobId(1)), 0.7);
/// ```
#[derive(Debug, Clone)]
pub struct SuuInstance {
    num_jobs: usize,
    num_machines: usize,
    /// Row-major `num_machines × num_jobs` success-probability matrix.
    probs: Vec<f64>,
    precedence: Dag,
    /// Sparse non-zero index, built on first use (see [`ProbIndex`]). Derived
    /// state: excluded from equality, hashing and the wire format.
    index: OnceLock<ProbIndex>,
}

/// Equality is over the logical contents only — the lazily built index is a
/// cache of `probs` and must not influence comparisons.
impl PartialEq for SuuInstance {
    fn eq(&self, other: &Self) -> bool {
        self.num_jobs == other.num_jobs
            && self.num_machines == other.num_machines
            && self.probs == other.probs
            && self.precedence == other.precedence
    }
}

/// Hand-written (the vendored serde derive has no `skip`): serialises exactly
/// the four logical fields, preserving the wire format from before the index
/// existed.
impl Serialize for SuuInstance {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (String::from("num_jobs"), self.num_jobs.to_value()),
            (String::from("num_machines"), self.num_machines.to_value()),
            (String::from("probs"), self.probs.to_value()),
            (String::from("precedence"), self.precedence.to_value()),
        ])
    }
}

impl Deserialize for SuuInstance {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let required = |key: &str| {
            v.get(key)
                .ok_or_else(|| serde::DeError::new(format!("missing field `{key}` in SuuInstance")))
        };
        Ok(Self {
            num_jobs: usize::from_value(required("num_jobs")?)?,
            num_machines: usize::from_value(required("num_machines")?)?,
            probs: Vec::from_value(required("probs")?)?,
            precedence: Dag::from_value(required("precedence")?)?,
            index: OnceLock::new(),
        })
    }
}

impl SuuInstance {
    /// Creates an instance from a dense probability matrix (row-major,
    /// `machines × jobs`) and a precedence DAG.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if the dimensions are inconsistent, a
    /// probability is out of range, or some job has zero probability on every
    /// machine.
    pub fn new(
        num_jobs: usize,
        num_machines: usize,
        probs: Vec<f64>,
        precedence: Dag,
    ) -> Result<Self, InstanceError> {
        if num_jobs == 0 || num_machines == 0 {
            return Err(InstanceError::Empty);
        }
        if probs.len() != num_jobs * num_machines {
            return Err(InstanceError::DimensionMismatch {
                expected: num_jobs * num_machines,
                actual: probs.len(),
            });
        }
        if precedence.num_nodes() != num_jobs {
            return Err(InstanceError::PrecedenceSizeMismatch {
                jobs: num_jobs,
                nodes: precedence.num_nodes(),
            });
        }
        for i in 0..num_machines {
            for j in 0..num_jobs {
                let p = probs[i * num_jobs + j];
                if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                    return Err(InstanceError::InvalidProbability {
                        machine: MachineId(i),
                        job: JobId(j),
                        value: p,
                    });
                }
            }
        }
        for j in 0..num_jobs {
            let reachable = (0..num_machines).any(|i| probs[i * num_jobs + j] > 0.0);
            if !reachable {
                return Err(InstanceError::UnschedulableJob { job: JobId(j) });
            }
        }
        Ok(Self {
            num_jobs,
            num_machines,
            probs,
            precedence,
            index: OnceLock::new(),
        })
    }

    /// The sparse non-zero index, building it on first use.
    fn index(&self) -> &ProbIndex {
        self.index
            .get_or_init(|| ProbIndex::build(self.num_jobs, self.num_machines, &self.probs))
    }

    /// Number of jobs `n`.
    #[must_use]
    pub fn num_jobs(&self) -> usize {
        self.num_jobs
    }

    /// Number of machines `m`.
    #[must_use]
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// Success probability `p_ij` of machine `i` completing job `j` in one
    /// step.
    #[must_use]
    pub fn prob(&self, machine: MachineId, job: JobId) -> f64 {
        self.probs[machine.0 * self.num_jobs + job.0]
    }

    /// The precedence DAG.
    #[must_use]
    pub fn precedence(&self) -> &Dag {
        &self.precedence
    }

    /// Structural class of the precedence DAG (independent / chains / trees /
    /// forest / general).
    #[must_use]
    pub fn forest_kind(&self) -> ForestKind {
        suu_graph::forest::classify(&self.precedence)
    }

    /// `true` if the jobs are independent (no precedence constraints) — the
    /// SUU-I special case of §3.
    #[must_use]
    pub fn is_independent(&self) -> bool {
        self.precedence.is_independent()
    }

    /// All jobs.
    pub fn jobs(&self) -> impl Iterator<Item = JobId> {
        (0..self.num_jobs).map(JobId)
    }

    /// All machines.
    pub fn machines(&self) -> impl Iterator<Item = MachineId> {
        (0..self.num_machines).map(MachineId)
    }

    /// The machine with the highest success probability for `job`, together
    /// with that probability. Validation guarantees the probability is > 0.
    #[must_use]
    pub fn best_machine(&self, job: JobId) -> (MachineId, f64) {
        let mut best = (MachineId(0), 0.0);
        for i in 0..self.num_machines {
            let p = self.prob(MachineId(i), job);
            if p > best.1 {
                best = (MachineId(i), p);
            }
        }
        best
    }

    /// The smallest non-zero probability in the matrix (`p_min` in the
    /// paper's running-time analysis of SUU-I-OBL).
    #[must_use]
    pub fn min_positive_prob(&self) -> f64 {
        self.probs
            .iter()
            .copied()
            .filter(|&p| p > 0.0)
            .fold(1.0, f64::min)
    }

    /// The largest probability in the matrix.
    #[must_use]
    pub fn max_prob(&self) -> f64 {
        self.probs.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of success probabilities over all machines for `job` — the maximum
    /// mass the job can accumulate in one step if every machine works on it.
    #[must_use]
    pub fn total_prob(&self, job: JobId) -> f64 {
        (0..self.num_machines)
            .map(|i| self.prob(MachineId(i), job))
            .sum()
    }

    /// The machines with `p_ij > 0` for `job`, with their probabilities, in
    /// increasing machine order. Allocation-free: backed by the lazily built
    /// CSR index, so per-call cost is O(non-zeros of the job's column).
    pub fn positive_probs(&self, job: JobId) -> impl Iterator<Item = (MachineId, f64)> + '_ {
        let index = self.index();
        index.job_entries[index.job_ptr[job.0]..index.job_ptr[job.0 + 1]]
            .iter()
            .copied()
    }

    /// The jobs with `p_ij > 0` for `machine`, with their probabilities, in
    /// increasing job order. Allocation-free like
    /// [`positive_probs`](Self::positive_probs).
    pub fn positive_jobs(&self, machine: MachineId) -> impl Iterator<Item = (JobId, f64)> + '_ {
        let index = self.index();
        index.machine_entries[index.machine_ptr[machine.0]..index.machine_ptr[machine.0 + 1]]
            .iter()
            .copied()
    }

    /// Number of positive entries in the probability matrix.
    #[must_use]
    pub fn num_positive(&self) -> usize {
        self.index().job_entries.len()
    }

    /// Probability entries `(machine, job, p_ij)` with `p_ij > 0`, in
    /// decreasing order of probability — the processing order used by
    /// MSM-ALG and MSM-E-ALG. Allocation-free: the slice lives in the lazily
    /// built index, so repeated calls (e.g. one per schedule step) cost
    /// nothing beyond the first.
    #[must_use]
    pub fn positive_entries_sorted(&self) -> &[(MachineId, JobId, f64)] {
        &self.index().sorted
    }

    /// Jobs whose predecessors are all contained in `finished` and that are
    /// themselves not finished: the jobs eligible for execution.
    #[must_use]
    pub fn eligible_jobs(&self, finished: &[bool]) -> Vec<JobId> {
        assert_eq!(
            finished.len(),
            self.num_jobs,
            "finished mask has wrong length"
        );
        (0..self.num_jobs)
            .filter(|&j| {
                !finished[j] && self.precedence.predecessors(j).iter().all(|&p| finished[p])
            })
            .map(JobId)
            .collect()
    }

    /// Restricts the instance to the given jobs (in the given order), keeping
    /// all machines and the precedence structure induced on those jobs.
    /// Returns the sub-instance and the mapping from new job ids to original
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty, contains duplicates or out-of-range ids.
    #[must_use]
    pub fn restrict_to_jobs(&self, jobs: &[JobId]) -> (Self, Vec<JobId>) {
        assert!(!jobs.is_empty(), "cannot restrict to an empty job set");
        let indices: Vec<usize> = jobs.iter().map(|j| j.0).collect();
        let (sub_dag, _) = self.precedence.induced_subgraph(&indices);
        let mut probs = Vec::with_capacity(self.num_machines * jobs.len());
        for i in 0..self.num_machines {
            for &j in &indices {
                probs.push(self.probs[i * self.num_jobs + j]);
            }
        }
        let sub = Self::new(jobs.len(), self.num_machines, probs, sub_dag)
            .expect("restriction of a valid instance is valid");
        (sub, jobs.to_vec())
    }

    /// Re-runs the constructor validation on `self`.
    ///
    /// Derived deserialisation rebuilds the struct field by field without
    /// going through [`SuuInstance::new`], so instances received over a wire
    /// protocol must be revalidated before use. Hand-built instances always
    /// pass.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`SuuInstance::new`].
    pub fn validate(&self) -> Result<(), InstanceError> {
        Self::new(
            self.num_jobs,
            self.num_machines,
            self.probs.clone(),
            self.precedence.clone(),
        )
        .map(|_| ())
    }

    /// A stable 64-bit digest of the instance contents (dimensions, the bit
    /// patterns of every `p_ij` with `-0.0` normalised to `+0.0`, and the
    /// precedence edge list).
    ///
    /// Two equal instances always have equal digests, so the digest can key a
    /// schedule cache: repeated submissions of the same workload hash to the
    /// same bucket, and a full equality check on the stored instance guards
    /// against collisions. The digest is FNV-1a over a canonical byte
    /// rendering, independent of `HashMap` iteration order and of the build's
    /// `RandomState`, so it is reproducible across processes and runs.
    #[must_use]
    pub fn canonical_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.num_jobs as u64).to_le_bytes());
        eat(&(self.num_machines as u64).to_le_bytes());
        for &p in &self.probs {
            // Normalise -0.0 to +0.0: the two compare equal (`==`/PartialEq)
            // but have different bit patterns, and equal instances must have
            // equal digests.
            eat(&(p + 0.0).to_bits().to_le_bytes());
        }
        for (u, v) in self.precedence.edges() {
            eat(&(u as u64).to_le_bytes());
            eat(&(v as u64).to_le_bytes());
        }
        h
    }

    /// A stable 64-bit digest of the instance's *structure*: dimensions, the
    /// positivity pattern of the probability matrix (which `p_ij` are > 0,
    /// not their values) and the precedence edge list.
    ///
    /// Two instances with equal structural digests produce LP relaxations
    /// with identical variable and constraint layouts, so an optimal basis of
    /// one is a valid warm-start basis for the other. This is the key of the
    /// service's warm-start index: a probability *drift* keeps the structural
    /// digest (and feeds a warm solve) while any job/machine/edge change or a
    /// zero-crossing probability changes it (and solves cold).
    #[must_use]
    pub fn structural_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(&(self.num_jobs as u64).to_le_bytes());
        eat(&(self.num_machines as u64).to_le_bytes());
        for &p in &self.probs {
            eat(&[u8::from(p > 0.0)]);
        }
        for (u, v) in self.precedence.edges() {
            eat(&(u as u64).to_le_bytes());
            eat(&(v as u64).to_le_bytes());
        }
        h
    }

    /// A crude upper bound on the optimal expected makespan, used to size
    /// doubling searches: serialising the jobs and assigning every machine to
    /// one job at a time finishes each job in expected `1 / P_j ≤ 1 / p_best`
    /// steps, so `Σ_j 1 / P_j` bounds the total, where `P_j` is the success
    /// probability when all machines work on `j`.
    #[must_use]
    pub fn serial_makespan_upper_bound(&self) -> f64 {
        self.jobs()
            .map(|j| {
                let probs: Vec<f64> = self.machines().map(|i| self.prob(i, j)).collect();
                let p = crate::prob::combined_success_probability(&probs);
                1.0 / p.max(f64::MIN_POSITIVE)
            })
            .sum()
    }
}

/// Incremental builder for [`SuuInstance`].
///
/// Probabilities default to zero; the precedence graph defaults to independent
/// jobs.
#[derive(Debug, Clone)]
pub struct InstanceBuilder {
    num_jobs: usize,
    num_machines: usize,
    probs: Vec<f64>,
    precedence: Dag,
}

impl InstanceBuilder {
    /// Starts building an instance with `num_jobs` jobs and `num_machines`
    /// machines, all probabilities zero and no precedence constraints.
    #[must_use]
    pub fn new(num_jobs: usize, num_machines: usize) -> Self {
        Self {
            num_jobs,
            num_machines,
            probs: vec![0.0; num_jobs * num_machines],
            precedence: Dag::independent(num_jobs),
        }
    }

    /// Sets `p_ij` for one machine–job pair.
    #[must_use]
    pub fn probability(mut self, machine: MachineId, job: JobId, p: f64) -> Self {
        self.probs[machine.0 * self.num_jobs + job.0] = p;
        self
    }

    /// Sets the same probability for every machine–job pair (uniform machines).
    #[must_use]
    pub fn uniform_probability(mut self, p: f64) -> Self {
        self.probs.iter_mut().for_each(|x| *x = p);
        self
    }

    /// Sets the whole probability matrix (row-major `machines × jobs`).
    #[must_use]
    pub fn probability_matrix(mut self, probs: Vec<f64>) -> Self {
        self.probs = probs;
        self
    }

    /// Sets the precedence DAG.
    #[must_use]
    pub fn precedence(mut self, dag: Dag) -> Self {
        self.precedence = dag;
        self
    }

    /// Adds precedence chains (each inner vector is a chain of job indices in
    /// order), replacing the current precedence graph.
    ///
    /// # Panics
    ///
    /// Panics if the chain node ids are invalid (out of range or repeated in a
    /// way that creates a cycle).
    #[must_use]
    pub fn chains(mut self, chains: &[Vec<usize>]) -> Self {
        self.precedence =
            Dag::from_chains(self.num_jobs, chains).expect("invalid chain specification");
        self
    }

    /// Finalises and validates the instance.
    ///
    /// # Errors
    ///
    /// See [`SuuInstance::new`].
    pub fn build(self) -> Result<SuuInstance, InstanceError> {
        SuuInstance::new(
            self.num_jobs,
            self.num_machines,
            self.probs,
            self.precedence,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_instance() -> SuuInstance {
        InstanceBuilder::new(3, 2)
            .probability(MachineId(0), JobId(0), 0.9)
            .probability(MachineId(0), JobId(1), 0.5)
            .probability(MachineId(1), JobId(1), 0.7)
            .probability(MachineId(1), JobId(2), 0.2)
            .probability(MachineId(0), JobId(2), 0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_instance() {
        let inst = small_instance();
        assert_eq!(inst.num_jobs(), 3);
        assert_eq!(inst.num_machines(), 2);
        assert_eq!(inst.prob(MachineId(0), JobId(0)), 0.9);
        assert_eq!(inst.prob(MachineId(1), JobId(0)), 0.0);
        assert!(inst.is_independent());
    }

    #[test]
    fn rejects_empty_instance() {
        assert_eq!(
            InstanceBuilder::new(0, 3).build().unwrap_err(),
            InstanceError::Empty
        );
        assert_eq!(
            InstanceBuilder::new(3, 0).build().unwrap_err(),
            InstanceError::Empty
        );
    }

    #[test]
    fn rejects_unschedulable_job() {
        let err = InstanceBuilder::new(2, 1)
            .probability(MachineId(0), JobId(0), 0.4)
            .build()
            .unwrap_err();
        assert_eq!(err, InstanceError::UnschedulableJob { job: JobId(1) });
    }

    #[test]
    fn rejects_invalid_probability() {
        let err = InstanceBuilder::new(1, 1)
            .probability(MachineId(0), JobId(0), 1.7)
            .build()
            .unwrap_err();
        assert!(matches!(err, InstanceError::InvalidProbability { .. }));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let err = SuuInstance::new(2, 2, vec![0.1; 3], Dag::independent(2)).unwrap_err();
        assert_eq!(
            err,
            InstanceError::DimensionMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn rejects_precedence_size_mismatch() {
        let err = SuuInstance::new(2, 1, vec![0.5, 0.5], Dag::independent(3)).unwrap_err();
        assert_eq!(
            err,
            InstanceError::PrecedenceSizeMismatch { jobs: 2, nodes: 3 }
        );
    }

    #[test]
    fn best_machine_and_totals() {
        let inst = small_instance();
        assert_eq!(inst.best_machine(JobId(1)), (MachineId(1), 0.7));
        assert!((inst.total_prob(JobId(1)) - 1.2).abs() < 1e-12);
        assert!((inst.min_positive_prob() - 0.1).abs() < 1e-12);
        assert!((inst.max_prob() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn positive_probs_are_sorted_descending() {
        let inst = small_instance();
        let entries = inst.positive_entries_sorted();
        assert_eq!(entries.len(), 5);
        for pair in entries.windows(2) {
            assert!(pair[0].2 >= pair[1].2);
        }
        assert_eq!(entries[0], (MachineId(0), JobId(0), 0.9));
        assert_eq!(inst.num_positive(), 5);
    }

    #[test]
    fn sparse_iterators_match_dense_scans() {
        let inst = small_instance();
        for j in inst.jobs() {
            let via_index: Vec<(MachineId, f64)> = inst.positive_probs(j).collect();
            let via_scan: Vec<(MachineId, f64)> = inst
                .machines()
                .map(|i| (i, inst.prob(i, j)))
                .filter(|&(_, p)| p > 0.0)
                .collect();
            assert_eq!(via_index, via_scan, "job {j}");
        }
        for i in inst.machines() {
            let via_index: Vec<(JobId, f64)> = inst.positive_jobs(i).collect();
            let via_scan: Vec<(JobId, f64)> = inst
                .jobs()
                .map(|j| (j, inst.prob(i, j)))
                .filter(|&(_, p)| p > 0.0)
                .collect();
            assert_eq!(via_index, via_scan, "machine {i}");
        }
    }

    #[test]
    fn index_state_does_not_affect_equality_or_clones() {
        let warm = small_instance();
        let _ = warm.positive_probs(JobId(0)).count(); // build the index
        let cold = small_instance();
        assert_eq!(warm, cold);
        let cloned = warm.clone();
        assert_eq!(cloned, warm);
        assert_eq!(
            cloned.positive_entries_sorted(),
            warm.positive_entries_sorted()
        );
    }

    #[test]
    fn eligible_jobs_respect_precedence() {
        let dag = Dag::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        let inst = InstanceBuilder::new(3, 1)
            .uniform_probability(0.5)
            .precedence(dag)
            .build()
            .unwrap();
        assert_eq!(inst.eligible_jobs(&[false, false, false]), vec![JobId(0)]);
        assert_eq!(inst.eligible_jobs(&[true, false, false]), vec![JobId(1)]);
        assert_eq!(inst.eligible_jobs(&[true, true, true]), Vec::<JobId>::new());
    }

    #[test]
    fn chains_builder_sets_precedence() {
        let inst = InstanceBuilder::new(4, 1)
            .uniform_probability(0.3)
            .chains(&[vec![0, 1], vec![2, 3]])
            .build()
            .unwrap();
        assert!(!inst.is_independent());
        assert!(inst.precedence().has_edge(0, 1));
        assert!(inst.precedence().has_edge(2, 3));
    }

    #[test]
    fn restrict_to_jobs_keeps_induced_structure() {
        let dag = Dag::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap();
        let inst = InstanceBuilder::new(4, 2)
            .uniform_probability(0.4)
            .precedence(dag)
            .build()
            .unwrap();
        let (sub, mapping) = inst.restrict_to_jobs(&[JobId(1), JobId(2)]);
        assert_eq!(sub.num_jobs(), 2);
        assert_eq!(sub.num_machines(), 2);
        assert!(sub.precedence().has_edge(0, 1));
        assert_eq!(mapping, vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn serial_bound_is_finite_and_positive() {
        let inst = small_instance();
        let bound = inst.serial_makespan_upper_bound();
        assert!(bound.is_finite());
        assert!(bound >= 3.0 / 1.0 - 1e-9); // at least one step per job in expectation
    }

    #[test]
    fn serde_roundtrip() {
        let inst = small_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let back: SuuInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn validate_rejects_deserialized_invalid_instance() {
        // Out-of-range probability and an unschedulable job, smuggled past the
        // constructor by deserialising raw fields.
        let json = r#"{"num_jobs":2,"num_machines":1,"probs":[1.5,0.0],
                       "precedence":{"num_nodes":2,"succ":[[],[]],"pred":[[],[]]}}"#;
        if let Ok(inst) = serde_json::from_str::<SuuInstance>(json) {
            assert!(inst.validate().is_err());
        }
    }

    #[test]
    fn canonical_digest_is_stable_and_content_sensitive() {
        let a = small_instance();
        let b = small_instance();
        assert_eq!(a.canonical_digest(), b.canonical_digest());

        // Any probability change flips the digest.
        let c = InstanceBuilder::new(3, 2)
            .probability(MachineId(0), JobId(0), 0.9001)
            .probability(MachineId(0), JobId(1), 0.5)
            .probability(MachineId(1), JobId(1), 0.7)
            .probability(MachineId(1), JobId(2), 0.2)
            .probability(MachineId(0), JobId(2), 0.1)
            .build()
            .unwrap();
        assert_ne!(a.canonical_digest(), c.canonical_digest());

        // Precedence edges participate too.
        let dag = Dag::from_edges(3, [(0, 1)]).unwrap();
        let d = InstanceBuilder::new(3, 1)
            .uniform_probability(0.5)
            .precedence(dag)
            .build()
            .unwrap();
        let e = InstanceBuilder::new(3, 1)
            .uniform_probability(0.5)
            .build()
            .unwrap();
        assert_ne!(d.canonical_digest(), e.canonical_digest());
    }

    #[test]
    fn canonical_digest_normalises_negative_zero() {
        // -0.0 passes validation (it is within [0, 1]) and compares equal to
        // 0.0, so the digests must also agree.
        let with_neg = SuuInstance::new(2, 1, vec![0.5, -0.0], Dag::independent(2));
        let with_neg = match with_neg {
            Ok(inst) => inst,
            Err(_) => return, // validation tightened: nothing to check
        };
        let with_pos = SuuInstance::new(2, 1, vec![0.5, 0.0], Dag::independent(2)).unwrap();
        assert_eq!(with_neg, with_pos);
        assert_eq!(with_neg.canonical_digest(), with_pos.canonical_digest());
    }

    #[test]
    fn canonical_digest_survives_serde_roundtrip() {
        let inst = small_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let back: SuuInstance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst.canonical_digest(), back.canonical_digest());
    }
}
