//! Table 1: simulation times, memory consumption and predicted running
//! times in the different simulation settings.
//!
//! Paper reference (UltraSparc II host): real 8-node execution 62.3 s, real
//! serial 185.1 s (108 MB); direct-execution simulation 193.0 s host time /
//! 127 MB / 60.7 s predicted; PDEXEC 9.1 s / 124 MB / 60.3 s; PDEXEC
//! NOALLOC 6.5 s / 14 MB / 59.9 s.
//!
//! This reproduction's hosts differ (the paper's second host, a Pentium 4,
//! already showed direct execution times shrink with the host while PDEXEC
//! predictions stay put). The *relations* to check: direct-execution
//! simulation ≈ the serial run + small overhead on the same host; PDEXEC is
//! an order of magnitude faster than the execution it predicts; NOALLOC
//! slashes memory; and all three predict (nearly) the same running time for
//! the target cluster.

use std::time::Instant;

use dps_bench::runner::csv_field;
use dps_bench::{smoke, Env, N};
use dps_sim::TimingMode;
use linalg::Matrix;
use lu_app::{DataMode, LuConfig};
use netmodel::NetParams;
use perfmodel::{LuCost, PlatformProfile};

/// A column-aligned table, rendered as text and as CSV.
struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header"
        );
        self.rows.push(cells.to_vec());
    }

    /// Renders with every column padded to its widest cell.
    fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect();
            padded.join("  ").trim_end().to_string() + "\n"
        };
        let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let mut out = format!("== {} ==\n", self.title);
        out += &fmt_row(&self.header);
        out += &"-".repeat(rule);
        out.push('\n');
        for row in &self.rows {
            out += &fmt_row(row);
        }
        out
    }

    /// Header and rows as CSV.
    fn to_csv(&self) -> String {
        std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|row| {
                row.iter()
                    .map(|c| csv_field(c))
                    .collect::<Vec<_>>()
                    .join(",")
                    + "\n"
            })
            .collect()
    }
}

fn main() {
    let env = Env::paper();
    // Full scale in release; a scaled-down matrix in debug builds and in
    // smoke mode so the real kernels stay tractable. Table rows time the
    // host, so this binary stays serial — parallelizing rows would
    // corrupt the very numbers being reported.
    let n = if cfg!(debug_assertions) || smoke() {
        864
    } else {
        N
    };
    let r = n / 12; // 216 at full scale, keeping K = 12 as in the paper
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("matrix {n} x {n}, block size r = {r}, host cores: {cores}");
    println!("target cluster: 8 x UltraSparc II 440MHz, Fast Ethernet\n");

    let mut table = Table::new(
        "Table 1 — simulation settings (host: this machine)",
        &[
            "setting",
            "host running time [s]",
            "modeled memory [MB]",
            "predicted running time [s]",
        ],
    );

    let mb = |bytes: u64| format!("{:.0}", bytes as f64 / 1e6);

    // --- Real application, serial (the paper's 185.1 s reference).
    let t0 = Instant::now();
    let a = Matrix::random(n, n, 42);
    let f = linalg::lu_blocked(&a, r);
    let serial_host = t0.elapsed().as_secs_f64();
    assert!(linalg::lu_residual(&a, &f) < 1e-9);
    table.row(&[
        "Real application (1 node, this host)".into(),
        format!("{serial_host:.2}"),
        mb((n * n * 8 * 2) as u64),
        "N/A".into(),
    ]);

    // --- Real application on the native OS-thread runner (8 workers).
    let mut cfg = LuConfig::new(n, r, 8);
    cfg.mode = DataMode::Real;
    let (app, _sh) = lu_app::build_lu_app(cfg.clone());
    let native = testbed::run_native(&app, std::time::Duration::from_secs(600));
    assert!(native.terminated);
    table.row(&[
        format!("Real application (8 workers, {cores} core host)"),
        format!("{:.2}", native.wall.as_secs_f64()),
        "N/A".into(),
        "N/A".into(),
    ]);

    // --- Direct execution simulation: really run + measure the kernels.
    let mut direct_cfg = LuConfig::new(n, r, 8);
    direct_cfg.mode = DataMode::Real;
    direct_cfg.cost = None; // no charges: pure measurement
    let mut simcfg = env.simcfg.clone();
    simcfg.timing = TimingMode::Measured;
    let run = lu_app::predict_lu(&direct_cfg, env.net, &simcfg)
        .unwrap_or_else(|e| panic!("direct-execution run failed: {e}"));
    table.row(&[
        "Direct execution (sim, this host)".into(),
        format!("{:.2}", run.report.host_wall.as_secs_f64()),
        mb(run.report.mem_peak_bytes),
        format!(
            "{:.1} (host-dependent)",
            run.factorization_time.as_secs_f64()
        ),
    ]);

    // --- PDEXEC: allocate, but replace kernels with benchmarked times.
    let mut pdexec_cfg = LuConfig::new(n, r, 8);
    pdexec_cfg.mode = DataMode::Alloc;
    pdexec_cfg.cost = Some(env.cost);
    let run = lu_app::predict_lu(&pdexec_cfg, env.net, &env.simcfg)
        .unwrap_or_else(|e| panic!("PDEXEC run failed: {e}"));
    table.row(&[
        "PDEXEC (sim)".into(),
        format!("{:.2}", run.report.host_wall.as_secs_f64()),
        mb(run.report.mem_peak_bytes),
        format!("{:.1}", run.factorization_time.as_secs_f64()),
    ]);

    // --- PDEXEC NOALLOC: ghost payloads.
    let mut noalloc_cfg = pdexec_cfg.clone();
    noalloc_cfg.mode = DataMode::Ghost;
    let run = lu_app::predict_lu(&noalloc_cfg, env.net, &env.simcfg)
        .unwrap_or_else(|e| panic!("NOALLOC run failed: {e}"));
    table.row(&[
        "PDEXEC NOALLOC (sim)".into(),
        format!("{:.2}", run.report.host_wall.as_secs_f64()),
        mb(run.report.mem_peak_bytes),
        format!("{:.1}", run.factorization_time.as_secs_f64()),
    ]);

    // --- Portability / what-if rows (§4's parametric studies).
    let mut p4_cfg = noalloc_cfg.clone();
    p4_cfg.cost = Some(LuCost::new(PlatformProfile::pentium4_2800()));
    let run = lu_app::predict_lu(&p4_cfg, env.net, &env.simcfg)
        .unwrap_or_else(|e| panic!("Pentium 4 run failed: {e}"));
    table.row(&[
        "PDEXEC, target = Pentium 4 cluster".into(),
        format!("{:.2}", run.report.host_wall.as_secs_f64()),
        mb(run.report.mem_peak_bytes),
        format!("{:.1}", run.factorization_time.as_secs_f64()),
    ]);
    let run = lu_app::predict_lu(&noalloc_cfg, NetParams::gigabit_ethernet(), &env.simcfg)
        .unwrap_or_else(|e| panic!("gigabit what-if run failed: {e}"));
    table.row(&[
        "PDEXEC, what-if gigabit network".into(),
        format!("{:.2}", run.report.host_wall.as_secs_f64()),
        mb(run.report.mem_peak_bytes),
        format!("{:.1}", run.factorization_time.as_secs_f64()),
    ]);

    dps_bench::emit("table1", &table.render(), Some(&table.to_csv()));
}

#[cfg(test)]
mod tests {
    use super::Table;

    #[test]
    fn renders_aligned_text_and_escaped_csv() {
        let mut t = Table::new("Demo", &["setting", "time [s]", "memory"]);
        t.row(&["direct".into(), "193.0".into(), "127".into()]);
        t.row(&["pdexec, alloc".into(), "9.1".into(), "124".into()]);
        assert_eq!(
            t.render(),
            "== Demo ==\n\
             setting        time [s]  memory\n\
             -------------------------------\n\
             direct         193.0     127\n\
             pdexec, alloc  9.1       124\n"
        );
        assert_eq!(
            t.to_csv(),
            "setting,time [s],memory\ndirect,193.0,127\n\"pdexec, alloc\",9.1,124\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_checked() {
        Table::new("x", &["a", "b"]).row(&["only-one".into()]);
    }
}
