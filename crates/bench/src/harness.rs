//! Shared plumbing: planner roster, table rendering, CSV output, and
//! the one renderer of baseline documents.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use peercache_core::approx::ApproxPlanner;
use peercache_core::baselines::{BaselineConfig, GreedyBaselinePlanner};
use peercache_core::costs::CostWeights;
use peercache_core::placement::{recost_final, Placement};
use peercache_core::planner::CachePlanner;
use peercache_core::Network;
use peercache_dist::DistributedPlanner;
use peercache_obs as obs;
use peercache_obs::Json;

/// The four algorithms every figure compares (Brtf joins where feasible).
pub fn all_planners() -> Vec<Box<dyn CachePlanner>> {
    vec![
        Box::new(ApproxPlanner::default()),
        Box::new(DistributedPlanner::default()),
        Box::new(GreedyBaselinePlanner::hop_count(BaselineConfig::default())),
        Box::new(GreedyBaselinePlanner::contention(BaselineConfig::default())),
    ]
}

/// Runs a planner on a fresh copy of `net`; returns the placement and
/// the final network state.
pub fn run_planner(
    planner: &dyn CachePlanner,
    net: &Network,
    chunks: usize,
) -> (Placement, Network) {
    let mut copy = net.clone();
    let placement = planner
        .plan(&mut copy, chunks)
        .unwrap_or_else(|e| panic!("{} failed: {e}", planner.name()));
    (placement, copy)
}

/// Runs a planner and re-costs its placement on the final state — the
/// multi-item accounting of §V used by Figs. 8 and 9.
pub fn run_final_costed(
    planner: &dyn CachePlanner,
    net: &Network,
    chunks: usize,
) -> (Placement, Network) {
    let (placement, final_net) = run_planner(planner, net, chunks);
    let recosted = recost_final(&final_net, &placement, CostWeights::default())
        .expect("recosting a valid placement succeeds");
    (recosted, final_net)
}

/// Runs every planner on every topology and tabulates wall time, the
/// cost breakdown, and (for Dist) message traffic — the machine-readable
/// run summary behind the `repro` binary's default mode. Each cell also
/// goes to the trace as one `bench.run` event when `PEERCACHE_TRACE`
/// selects a sink.
pub fn run_summary(topologies: &[(&str, Network)], chunks: usize) -> Table {
    let mut table = Table::new(
        "summary",
        &format!("run summary — every planner × topology, {chunks} chunks"),
        &[
            "topology",
            "planner",
            "chunks",
            "wall_ms",
            "fairness",
            "access",
            "dissemination",
            "cost_total",
            "messages",
            "dropped",
        ],
    );
    for (topo, net) in topologies {
        let appx = ApproxPlanner::default();
        let dist = DistributedPlanner::default();
        let hopc = GreedyBaselinePlanner::hop_count(BaselineConfig::default());
        let cont = GreedyBaselinePlanner::contention(BaselineConfig::default());
        let planners: [&dyn CachePlanner; 4] = [&appx, &dist, &hopc, &cont];
        for planner in planners {
            let start = Instant::now();
            let (placement, _) = run_planner(planner, net, chunks);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            let costs = placement.total_costs();
            // Message traffic only exists for the distributed protocol.
            let (messages, dropped) = if planner.name() == "Dist" {
                let report = dist.last_report();
                (report.messages.total(), report.messages.dropped)
            } else {
                (0, 0)
            };
            obs::event!(
                "bench.run",
                topology = topo.to_string(),
                planner = planner.name().to_string(),
                chunks = chunks,
                wall_ms = wall_ms,
                fairness = costs.fairness,
                access = costs.access,
                dissemination = costs.dissemination,
                cost_total = costs.total(),
                messages = messages,
                dropped = dropped,
            );
            table.push_row(vec![
                topo.to_string(),
                planner.name().to_string(),
                chunks.to_string(),
                f3(wall_ms),
                f1(costs.fairness),
                f1(costs.access),
                f1(costs.dissemination),
                f1(costs.total()),
                messages.to_string(),
                dropped.to_string(),
            ]);
        }
    }
    table
}

/// Wall-time scaling of the approximation planner with topology size:
/// one row per grid side, so the run summary shows at a glance how the
/// planning hot path behaves as the network grows.
pub fn planner_walltime_by_size(sides: &[usize], chunks: usize) -> Table {
    let mut table = Table::new(
        "planner_walltime",
        &format!("Appx planner wall time by topology size, {chunks} chunks"),
        &["topology", "nodes", "chunks", "wall_ms", "cost_total"],
    );
    for &side in sides {
        let net = peercache_core::workload::paper_grid(side)
            .unwrap_or_else(|e| panic!("cannot build grid{side}: {e}"));
        let planner = ApproxPlanner::default();
        let start = Instant::now();
        let (placement, _) = run_planner(&planner, &net, chunks);
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let costs = placement.total_costs();
        obs::event!(
            "bench.walltime_by_size",
            topology = format!("grid{side}"),
            nodes = side * side,
            chunks = chunks,
            wall_ms = wall_ms,
            cost_total = costs.total(),
        );
        table.push_row(vec![
            format!("grid{side}"),
            (side * side).to_string(),
            chunks.to_string(),
            f3(wall_ms),
            f1(costs.total()),
        ]);
    }
    table
}

/// A printable/serializable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure id, e.g. `fig2a` (used as the CSV file name).
    pub id: String,
    /// Human-readable caption.
    pub caption: String,
    /// Column names.
    pub header: Vec<String>,
    /// Row values, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &str, caption: &str, header: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            caption: caption.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (values pre-formatted).
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.caption);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Writes the table as CSV into [`out_dir`]; returns the path.
    pub fn write_csv(&self) -> PathBuf {
        let dir = out_dir();
        let path = dir.join(format!("{}.csv", self.id));
        let mut csv = self.header.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        fs::write(&path, csv).expect("writing CSV output");
        path
    }

    /// Prints the table and persists the CSV.
    pub fn emit(&self) {
        println!("{}", self.render());
        let path = self.write_csv();
        println!("   (csv: {})\n", path.display());
    }
}

/// Renders a baseline document (the JSON that `repro perf --check`
/// diffs) as tables. Its scalar fields form one `field value` table
/// named `stem`; each nested object becomes a one-row table, and each
/// array (of objects, in every baseline) a table with one row per
/// element, named `stem-key`. Cells print the parsed values: strings
/// raw, numbers in shortest form.
pub fn render_document(stem: &str, doc: &Json) -> Vec<Table> {
    let caption = format!("fresh BENCH_{stem}.json");
    let mut tables = vec![Table::new(stem, &caption, &["field", "value"])];
    for (key, value) in doc.as_obj().unwrap_or_default() {
        let rows = match value {
            Json::Obj(_) => std::slice::from_ref(value),
            Json::Arr(items) => items,
            _ => {
                tables[0].push_row(vec![key.clone(), cell(value)]);
                continue;
            }
        };
        let header: Vec<&str> = rows
            .first()
            .and_then(Json::as_obj)
            .map(|m| m.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default();
        let mut table = Table::new(
            &format!("{stem}-{key}"),
            &format!("{caption}: {key}"),
            &header,
        );
        for row in rows {
            table.push_row(
                header
                    .iter()
                    .map(|k| row.get(k).map_or_else(String::new, cell))
                    .collect(),
            );
        }
        tables.push(table);
    }
    tables
}

/// One table cell: strings raw, numbers in shortest form, any other
/// value in its debug form.
fn cell(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        Json::Int(n) => n.to_string(),
        Json::Num(x) => x.to_string(),
        Json::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

/// Output directory for CSV artifacts (`target/repro`), created on
/// first use.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/repro");
    fs::create_dir_all(&dir).expect("creating target/repro");
    dir
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_core::workload::paper_grid;

    #[test]
    fn roster_has_the_four_comparison_algorithms() {
        let names: Vec<String> = all_planners()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        assert_eq!(names, vec!["Appx", "Dist", "Hopc", "Cont"]);
    }

    #[test]
    fn run_does_not_mutate_the_template_network() {
        let net = paper_grid(3).unwrap();
        let planners = all_planners();
        let (placement, final_net) = run_planner(planners[0].as_ref(), &net, 2);
        assert_eq!(placement.chunks().len(), 2);
        assert_eq!(net.load_vector().iter().sum::<usize>(), 0);
        assert!(final_net.load_vector().iter().sum::<usize>() > 0);
    }

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = Table::new("test_table", "caption", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains("caption"));
        assert!(rendered.contains('1'));
        let path = t.write_csv();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    /// Every committed baseline renders as its scalar table, then one
    /// table per nested object or array, one row per array element.
    #[test]
    fn committed_baselines_render_one_table_per_section() {
        let root = crate::perf::repo_root();
        let mut rendered = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let stem = crate::perf::stem(&name);
            let doc = Json::parse(&std::fs::read_to_string(root.join(&name)).unwrap()).unwrap();
            let tables = render_document(stem, &doc);
            assert_eq!(tables[0].id, stem);
            let members = doc.as_obj().unwrap();
            let sections: Vec<&(String, Json)> = members
                .iter()
                .filter(|(_, v)| matches!(v, Json::Obj(_) | Json::Arr(_)))
                .collect();
            assert_eq!(tables.len(), 1 + sections.len(), "{name}");
            assert_eq!(tables[0].rows.len(), members.len() - sections.len());
            for (table, (key, value)) in tables[1..].iter().zip(&sections) {
                assert_eq!(table.id, format!("{stem}-{key}"));
                assert_eq!(
                    table.rows.len(),
                    value.as_arr().map_or(1, <[Json]>::len),
                    "{name}"
                );
            }
            rendered += 1;
        }
        assert_eq!(rendered, crate::perf::BASELINES.len());
    }

    #[test]
    fn final_costed_changes_only_costs() {
        let net = paper_grid(3).unwrap();
        let planners = all_planners();
        let (placed, netf) = run_planner(planners[0].as_ref(), &net, 2);
        let (recosted, _) = run_final_costed(planners[0].as_ref(), &net, 2);
        let _ = netf;
        assert_eq!(placed.chunks().len(), recosted.chunks().len());
        for (a, b) in placed.chunks().iter().zip(recosted.chunks()) {
            assert_eq!(a.caches, b.caches);
            assert_eq!(a.assignment, b.assignment);
        }
    }
}
