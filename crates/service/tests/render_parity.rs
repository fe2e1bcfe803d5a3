//! Render parity battery: the direct body writer behind
//! [`CachedSolve::rendered_body`] must produce exactly the bytes of the
//! serde `Value`-tree rendering it replaced, which this file keeps as the
//! oracle.
//!
//! Covered: random schedules plus the edge shapes (no steps, all-idle
//! steps, one machine, job ids ≥ 10⁶), every scalar shape `lp_value`,
//! `lp_pivots` and `lp_micros` can take on the wire (`None`, integral,
//! fractional, `-0.0`, `1e300`, non-finite values that render `null`,
//! integers past 2⁵³), and solver names that need escaping — for both the
//! full and the `no_schedule` body.
//!
//! The session replies ([`SessionReply::render`]) are held to the same
//! oracle: open, revision and `done` replies over the same schedules, ids
//! and solver names.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use suu_core::{Assignment, JobId, MachineId, ObliviousSchedule};
use suu_service::{CachedSolve, SessionReply};

/// The `Value`-tree rendering of a body fragment: the six fields as one
/// object, rendered compactly, outer braces stripped.
fn oracle(solve: &CachedSolve, schedule: Value) -> String {
    let fields = Value::Object(vec![
        ("solver".to_string(), solve.solver.to_value()),
        ("schedule".to_string(), schedule),
        ("schedule_len".to_string(), solve.schedule.len().to_value()),
        ("lp_value".to_string(), solve.lp_value.to_value()),
        ("lp_pivots".to_string(), solve.lp_pivots.to_value()),
        ("lp_micros".to_string(), solve.lp_micros.to_value()),
    ]);
    let rendered = fields.render();
    rendered[1..rendered.len() - 1].to_string()
}

fn assert_parity(solve: &CachedSolve) {
    let full = oracle(solve, solve.schedule.to_value());
    assert_eq!(solve.rendered_body(), full, "full body");
    let trimmed = oracle(solve, Value::Null);
    assert_eq!(
        solve.rendered_body_no_schedule(),
        trimmed,
        "no_schedule body"
    );
}

fn solve(
    solver: &str,
    schedule: ObliviousSchedule,
    lp_value: Option<f64>,
    lp_pivots: Option<usize>,
    lp_micros: Option<u64>,
) -> CachedSolve {
    CachedSolve::new(
        solver.to_string(),
        schedule,
        lp_value,
        lp_pivots,
        lp_micros,
        false,
    )
}

fn random_schedule(rng: &mut ChaCha8Rng) -> ObliviousSchedule {
    let machines = rng.gen_range(1..=12);
    let steps = rng.gen_range(0..40);
    let id_scale = if rng.gen_bool(0.2) {
        1_000_000_000
    } else {
        100
    };
    let mut schedule = ObliviousSchedule::new(machines);
    for _ in 0..steps {
        let mut step = Assignment::idle(machines);
        for i in 0..machines {
            if rng.gen_bool(0.7) {
                step.assign(MachineId(i), JobId(rng.gen_range(0..id_scale)));
            }
        }
        schedule.push_step(step);
    }
    schedule
}

fn edge_schedules() -> Vec<ObliviousSchedule> {
    let mut big_ids = Assignment::idle(3);
    big_ids.assign(MachineId(0), JobId(1_000_000));
    big_ids.assign(MachineId(2), JobId(987_654_321));
    let mut one_machine = ObliviousSchedule::new(1);
    for j in [0, 9, 10, 99, 100] {
        one_machine.push_step(Assignment::all_on(1, JobId(j)));
    }
    vec![
        ObliviousSchedule::new(4),
        ObliviousSchedule::new(0),
        ObliviousSchedule::from_steps(4, vec![Assignment::idle(4); 5]),
        ObliviousSchedule::from_steps(3, vec![big_ids, Assignment::idle(3)]),
        one_machine,
    ]
}

const LP_VALUES: [Option<f64>; 13] = [
    None,
    Some(0.0),
    Some(-0.0),
    Some(7.0),
    Some(-12.0),
    Some(2.5),
    Some(0.1),
    Some(6.123_456_789_012_345),
    Some(1e300),
    Some(-1e-300),
    Some(f64::NAN),
    Some(f64::INFINITY),
    Some(f64::NEG_INFINITY),
];

const COUNTS: [Option<u64>; 7] = [
    None,
    Some(0),
    Some(9),
    Some(1_000_000),
    Some((1 << 53) - 1),
    Some((1 << 53) + 1),
    Some(u64::MAX),
];

const SOLVERS: [&str; 5] = [
    "suu-c",
    "",
    "quote\"back\\slash",
    "tab\tline\nreturn\r",
    "ctl\u{1}\u{1f} ünï→",
];

#[test]
fn edge_schedules_render_identically() {
    for schedule in edge_schedules() {
        for lp_value in LP_VALUES {
            assert_parity(&solve("suu-c", schedule.clone(), lp_value, Some(18), None));
        }
    }
}

#[test]
fn every_scalar_shape_renders_identically() {
    let schedule = edge_schedules().swap_remove(3);
    for solver in SOLVERS {
        for lp_value in LP_VALUES {
            for pivots in COUNTS {
                for micros in COUNTS {
                    let pivots = pivots.map(|p| usize::try_from(p).unwrap());
                    assert_parity(&solve(solver, schedule.clone(), lp_value, pivots, micros));
                }
            }
        }
    }
}

#[test]
fn random_schedules_render_identically() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB0D1);
    for _ in 0..300 {
        let schedule = random_schedule(&mut rng);
        let lp_value = LP_VALUES[rng.gen_range(0..LP_VALUES.len())];
        let pivots = COUNTS[rng.gen_range(0..COUNTS.len())].map(|p| p as usize);
        let micros = COUNTS[rng.gen_range(0..COUNTS.len())];
        let solver = SOLVERS[rng.gen_range(0..SOLVERS.len())];
        assert_parity(&solve(solver, schedule, lp_value, pivots, micros));
    }
}

/// The `Value`-tree rendering of a session reply's fields, in wire order.
fn session_oracle(reply: &SessionReply) -> String {
    let mut fields = vec![
        ("id", reply.id.to_value()),
        ("ok", true.to_value()),
        ("session", reply.session.to_value()),
        ("revision", reply.revision.to_value()),
        ("done", reply.done.to_value()),
        ("unfinished", reply.unfinished.to_value()),
        ("completed", reply.completed.to_value()),
    ];
    if let Some((warm, schedule)) = reply.schedule {
        fields.push(("warm", warm.to_value()));
        if let Some((solver, machines)) = reply.opened {
            fields.push(("solver", solver.to_value()));
            fields.push(("machines", machines.to_value()));
        }
        fields.push(("schedule", schedule.to_value()));
    }
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
    .render()
}

/// Open, revision and `done` replies around `schedule` render exactly as
/// their `Value` trees.
fn assert_session_parity(schedule: &ObliviousSchedule, id: u64, count: u64, solver: &str) {
    for warm in [false, true] {
        let revision = SessionReply {
            id,
            session: count,
            revision: count,
            done: false,
            unfinished: count,
            completed: id,
            schedule: Some((warm, schedule)),
            opened: None,
        };
        let open = SessionReply {
            revision: 0,
            completed: 0,
            opened: Some((solver, count)),
            ..revision
        };
        let done = SessionReply {
            done: true,
            unfinished: 0,
            schedule: None,
            ..revision
        };
        for reply in [open, revision, done] {
            assert_eq!(reply.render(), session_oracle(&reply), "{reply:?}");
        }
    }
}

#[test]
fn session_replies_render_identically() {
    let mut schedules = edge_schedules();
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E55);
    schedules.extend((0..100).map(|_| random_schedule(&mut rng)));
    for (k, schedule) in schedules.iter().enumerate() {
        for id in COUNTS.into_iter().flatten() {
            let count = COUNTS[k % COUNTS.len()].unwrap_or(1);
            assert_session_parity(schedule, id, count, SOLVERS[k % SOLVERS.len()]);
        }
    }
}
