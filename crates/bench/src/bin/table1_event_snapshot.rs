//! Regenerates Table 1: a representative sample of the event-level monitoring
//! dataset (event id, job id, state, site, available cores, pending /
//! assigned / finished job counts).

use cgsim_bench::scenarios::table1;

fn main() {
    let (results, rows) = table1();

    println!("# Table 1 — representative event-level monitoring rows");
    println!(
        "{:>8} {:>14} {:>10} {:<10} {:>12} {:>12} {:>13} {:>13}",
        "Event ID", "Job ID", "State", "Site", "Avail.Cores", "Pending", "Assigned", "Finished"
    );
    for e in &rows {
        println!(
            "{:>8} {:>14} {:>10} {:<10} {:>12} {:>12} {:>13} {:>13}",
            e.event_id,
            e.job_id.0,
            e.state.label(),
            e.site,
            e.available_cores,
            e.pending_jobs,
            e.assigned_jobs,
            e.finished_jobs
        );
    }
    println!(
        "\n(total event records captured: {}, jobs simulated: {})",
        results.events.len(),
        results.outcomes.len()
    );
}
