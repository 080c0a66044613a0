//! Dashboard rendering (the offline stand-in for Fig. 5).
//!
//! The paper's interactive web dashboard shows, for every site
//! simultaneously, the *node pressure* (CPUs in use), queue depth and the
//! jobs running on each node with hover-over detail. CGSim-RS renders the
//! same information as (a) an ASCII panel for terminal monitoring during a
//! run and (b) a self-contained HTML page with inline SVG bar charts that can
//! be opened in any browser — no server required.

/// A point-in-time view of one site used by the dashboard renderers.
#[derive(Debug, Clone, PartialEq)]
pub struct SitePanel {
    /// Site name.
    pub site: String,
    /// Total cores at the site.
    pub total_cores: u64,
    /// Cores currently allocated to running jobs (node pressure).
    pub busy_cores: u64,
    /// Jobs waiting in the site queue.
    pub queued_jobs: u64,
    /// Jobs currently running.
    pub running_jobs: u64,
    /// Jobs finished so far.
    pub finished_jobs: u64,
    /// Jobs killed at the site by fault injection so far.
    pub interrupted_jobs: u64,
    /// Checkpoints durably written by jobs executing at the site so far.
    pub checkpoints: u64,
    /// Repair transfers that completed into the site (fresh replicas
    /// received from the re-replication planner) so far.
    pub repairs: u64,
    /// True when the site is up (not taken down by fault injection) at the
    /// time the panel was rendered.
    pub up: bool,
    /// Identifiers and core counts of a sample of running jobs (the
    /// hover-over detail of Fig. 5).
    pub running_sample: Vec<(u64, u32)>,
}

impl SitePanel {
    /// Node pressure in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        if self.total_cores == 0 {
            0.0
        } else {
            self.busy_cores as f64 / self.total_cores as f64
        }
    }
}

/// Renders an ASCII dashboard: one bar per site showing node pressure.
pub fn ascii_dashboard(time_s: f64, panels: &[SitePanel]) -> String {
    const BAR_WIDTH: usize = 40;
    let mut out = format!("CGSim dashboard @ t={time_s:.1}s\n");
    out.push_str(&format!(
        "{:<16} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  node pressure\n",
        "site", "cores", "busy", "queue", "done", "intr", "ckpt", "rep"
    ));
    for p in panels {
        let filled = (p.pressure() * BAR_WIDTH as f64).round() as usize;
        let bar: String =
            "#".repeat(filled.min(BAR_WIDTH)) + &"-".repeat(BAR_WIDTH - filled.min(BAR_WIDTH));
        let status = if p.up { "" } else { "  DOWN" };
        out.push_str(&format!(
            "{:<16} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}  [{bar}] {:>4.0}%{status}\n",
            p.site,
            p.total_cores,
            p.busy_cores,
            p.queued_jobs,
            p.finished_jobs,
            p.interrupted_jobs,
            p.checkpoints,
            p.repairs,
            p.pressure() * 100.0
        ));
    }
    out
}

/// Renders a self-contained HTML dashboard with inline SVG bars and a
/// per-site running-job table.
pub fn html_dashboard(time_s: f64, panels: &[SitePanel]) -> String {
    let mut rows = String::new();
    for p in panels {
        let pct = (p.pressure() * 100.0).round();
        let mut jobs = String::new();
        for (job_id, cores) in p.running_sample.iter().take(10) {
            jobs.push_str(&format!("<li>job {job_id} ({cores} cores)</li>"));
        }
        rows.push_str(&format!(
            "<tr><td>{site}{down}</td><td>{total}</td><td>{busy}</td><td>{queued}</td><td>{running}</td><td>{finished}</td><td>{interrupted}</td><td>{checkpoints}</td><td>{repairs}</td>\
             <td><svg width=\"220\" height=\"18\"><rect width=\"220\" height=\"18\" fill=\"#eee\"/>\
             <rect width=\"{bar}\" height=\"18\" fill=\"#4a90d9\"/></svg> {pct}%</td>\
             <td><details><summary>{running} running</summary><ul>{jobs}</ul></details></td></tr>\n",
            site = p.site,
            down = if p.up { "" } else { " <b>(down)</b>" },
            total = p.total_cores,
            busy = p.busy_cores,
            queued = p.queued_jobs,
            running = p.running_jobs,
            finished = p.finished_jobs,
            interrupted = p.interrupted_jobs,
            checkpoints = p.checkpoints,
            repairs = p.repairs,
            bar = (p.pressure() * 220.0).round(),
            pct = pct,
            jobs = jobs,
        ));
    }
    format!(
        "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>CGSim dashboard</title>\
         <style>body{{font-family:sans-serif}}table{{border-collapse:collapse}}td,th{{border:1px solid #ccc;padding:4px 8px}}</style>\
         </head><body><h1>CGSim dashboard</h1><p>simulated time: {time_s:.1} s</p>\
         <table><tr><th>site</th><th>cores</th><th>busy</th><th>queued</th><th>running</th><th>finished</th><th>interrupted</th><th>checkpoints</th><th>repairs</th><th>node pressure</th><th>jobs</th></tr>\n{rows}</table></body></html>"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels() -> Vec<SitePanel> {
        vec![
            SitePanel {
                site: "CERN".into(),
                total_cores: 2000,
                busy_cores: 1500,
                queued_jobs: 12,
                running_jobs: 200,
                finished_jobs: 340,
                interrupted_jobs: 7,
                checkpoints: 4,
                repairs: 3,
                up: true,
                running_sample: vec![(6466065355, 8), (6466065356, 1)],
            },
            SitePanel {
                site: "BNL".into(),
                total_cores: 1000,
                busy_cores: 0,
                queued_jobs: 0,
                running_jobs: 0,
                finished_jobs: 10,
                interrupted_jobs: 0,
                checkpoints: 0,
                repairs: 0,
                up: false,
                running_sample: vec![],
            },
        ]
    }

    #[test]
    fn pressure_is_bounded() {
        let p = panels();
        assert!((p[0].pressure() - 0.75).abs() < 1e-12);
        assert_eq!(p[1].pressure(), 0.0);
        let zero = SitePanel {
            site: "X".into(),
            total_cores: 0,
            busy_cores: 0,
            queued_jobs: 0,
            running_jobs: 0,
            finished_jobs: 0,
            interrupted_jobs: 0,
            checkpoints: 0,
            repairs: 0,
            up: true,
            running_sample: vec![],
        };
        assert_eq!(zero.pressure(), 0.0);
    }

    #[test]
    fn ascii_dashboard_lists_every_site() {
        let text = ascii_dashboard(1234.0, &panels());
        assert!(text.contains("CERN"));
        assert!(text.contains("BNL"));
        assert!(text.contains("75%"));
        assert!(text.contains("intr"));
        assert!(text.contains("ckpt"));
        assert!(text.contains("rep"));
        assert!(text.contains("DOWN"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn html_dashboard_is_self_contained() {
        let html = html_dashboard(60.0, &panels());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("6466065355"));
        assert!(html.contains("CERN"));
        assert!(html.contains("<th>interrupted</th>"));
        assert!(html.contains("<th>checkpoints</th>"));
        assert!(html.contains("<th>repairs</th>"));
        assert!(html.contains("BNL <b>(down)</b>"));
        assert!(
            !html.contains("http://"),
            "must not reference external resources"
        );
    }
}
