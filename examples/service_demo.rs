//! Service demo: spawn the scheduling service in-process, submit a batch of
//! instances over TCP, and print the schedules it returns.
//!
//! ```text
//! cargo run --release --example service_demo
//! ```
//!
//! The batch mixes all three structural classes the registry dispatches on
//! (independent jobs, disjoint chains, a directed forest) and resubmits the
//! first instance at the end to show the schedule cache in action.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use suu::prelude::*;

fn main() {
    // 1. Spawn the service in-process on an ephemeral port.
    let service = Arc::new(SchedulerService::new(ServiceConfig::default()));
    let handle = spawn_tcp(Arc::clone(&service), &TcpServerConfig::default())
        .expect("ephemeral bind succeeds");
    println!("service listening on {}", handle.addr());
    println!("registered solvers: {:?}\n", service.registry().names());

    // 2. A batch covering every structural class.
    let independent = InstanceBuilder::new(5, 3)
        .probability_matrix(uniform_matrix(5, 3, 0.3, 0.9, 1))
        .build()
        .expect("valid instance");
    let chains = InstanceBuilder::new(6, 3)
        .probability_matrix(uniform_matrix(6, 3, 0.3, 0.9, 2))
        .chains(&[vec![0, 1, 2], vec![3, 4, 5]])
        .build()
        .expect("valid instance");
    let forest = InstanceBuilder::new(5, 3)
        .probability_matrix(uniform_matrix(5, 3, 0.3, 0.9, 3))
        .precedence(Dag::from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)]).unwrap())
        .build()
        .expect("valid instance");
    let batch = [
        ("independent", &independent),
        ("chains", &chains),
        ("forest", &forest),
        ("independent again", &independent),
    ];

    // 3. Submit the batch over one connection, asking for a makespan
    //    estimate alongside each schedule.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    for (i, (label, instance)) in batch.iter().enumerate() {
        let mut request = Request::from_instance(i as u64 + 1, instance);
        request.estimate_trials = Some(100);
        let line = serde_json::to_string(&request).expect("requests serialise");
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");

        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        let response: Response = serde_json::from_str(&response).expect("valid response");
        assert!(response.ok, "service error: {:?}", response.error);

        let schedule = response
            .schedule
            .as_ref()
            .expect("ok responses carry a schedule");
        println!(
            "[{label}] solver={} cache_hit={} schedule_len={} est_makespan={:.2}",
            response.solver.as_deref().unwrap_or("?"),
            response.cache_hit,
            response.schedule_len,
            response.estimated_makespan.unwrap_or(f64::NAN),
        );
        // Print the first few steps of the schedule in machine-per-column form.
        for (t, step) in schedule.steps().iter().take(4).enumerate() {
            let cells: Vec<String> = (0..schedule.num_machines())
                .map(|i| match step.target(MachineId(i)) {
                    Some(job) => format!("j{}", job.0),
                    None => "--".to_string(),
                })
                .collect();
            println!("    step {t}: [{}]", cells.join(" "));
        }
        if schedule.len() > 4 {
            println!(
                "    ... {} more steps (executed cyclically)",
                schedule.len() - 4
            );
        }
        println!();
    }

    // 4. Show the service-side view: the status line (every counter, named
    //    by its `stats` key path) and cache statistics.
    println!("{}", service.metrics().snapshot().status_line());
    println!(
        "cache: {} entries, {} hits, {} misses",
        service.cache().len(),
        service.cache().hits(),
        service.cache().misses()
    );
    handle.shutdown();
}
