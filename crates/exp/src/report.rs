//! Report rendering: plain-text tables in the paper's style plus
//! machine-readable JSON for EXPERIMENTS.md tooling.

use lrc_json::Value;

/// One regenerated artifact (a table or figure).
#[derive(Debug, Clone)]
pub struct Report {
    /// Stable id: `table1` … `fig9`, `sweep`, `quality`.
    pub id: String,
    /// Human title echoing the paper's caption.
    pub title: String,
    /// Rendered plain-text table(s).
    pub text: String,
    /// Machine-readable payload.
    pub json: Value,
}

impl Report {
    /// Print the report to stdout.
    pub fn print(&self) {
        println!("== {} — {}\n", self.id, self.title);
        println!("{}", self.text);
    }

    /// The report as one JSON object (what `--json DIR` writes to disk).
    pub fn to_json(&self) -> Value {
        lrc_json::json!({
            "id": self.id.clone(),
            "title": self.title.clone(),
            "text": self.text.clone(),
            "json": self.json.clone(),
        })
    }
}

/// Minimal fixed-width table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (cells are stringified already).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let c = &cells[i];
                if i == 0 {
                    line.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", c, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Render a horizontal bar of `value` against a unit scale (`1.0` = the
/// sequentially consistent baseline), `width` characters at full scale.
/// Values above 1.0 extend past the `|` baseline marker.
pub fn bar(value: f64, width: usize) -> String {
    let chars = (value.max(0.0) * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..chars.max(1).min(width * 2) {
        s.push(if i == width { '|' } else { '█' });
    }
    if chars <= width {
        s.push_str(&" ".repeat(width - chars.min(width)));
        s.push('|');
    }
    s
}

/// Format a fraction as a percent with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a ratio with two decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a miss rate as percent with two decimals (Table-3 style).
pub fn miss_pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["App", "Value"]);
        t.row(vec!["gauss", "1.00"]);
        t.row(vec!["mp3d-longer", "0.83"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("App"));
        assert!(lines[2].starts_with("gauss"));
        // All rows equal width for the first column.
        assert!(lines[2].find("1.00").is_some());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(ratio(0.834), "0.83");
        assert_eq!(miss_pct(0.0481), "4.81%");
    }
}

// ============================================================================
// The paper report: cross-seed statistics over the artifact store, rendered
// as one self-contained HTML document (inline SVG charts, provenance
// footnotes) plus a machine-readable `report.json`.
// ============================================================================

use crate::manifest::RunManifest;
use crate::stats::{effect, holm_adjust, summarize, Effect, Summary};
use crate::store::{IndexEntry, Store, StoreError};

/// Report JSON schema tag.
pub const REPORT_SCHEMA: &str = "lrc-exp-report-v1";

/// One numeric observation extracted from an experiment artifact:
/// `(row, series, value)` — e.g. `("mp3d", "lazy", 0.67)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Row label (application, configuration, axis...).
    pub row: String,
    /// Series label (protocol, miss class, fence interval...).
    pub series: String,
    /// The measured value, in the experiment's [`unit()`].
    pub value: f64,
}

fn m(row: impl Into<String>, series: impl Into<String>, value: f64) -> Metric {
    Metric { row: row.into(), series: series.into(), value }
}

/// Extract the comparable numeric metrics from one experiment artifact
/// (the full report JSON as stored: `{id, title, text, json}`). Unknown
/// ids and non-numeric experiments (table1) return an empty vec.
pub fn metrics(id: &str, artifact: &lrc_json::Value) -> Vec<Metric> {
    let p = &artifact["json"];
    let rows = |key: &str| p[key].as_array().cloned().unwrap_or_default();
    let mut out = Vec::new();
    match id {
        "table2" => {
            const CLASSES: [&str; 5] = ["cold", "true-share", "false-share", "eviction", "write"];
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?").to_string();
                for (i, c) in CLASSES.iter().enumerate() {
                    if let Some(v) = r["measured"][i].as_f64() {
                        out.push(m(&app, *c, v));
                    }
                }
            }
        }
        "table3" => {
            const PROTOS: [&str; 3] = ["eager", "lazy", "lazy-ext"];
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?").to_string();
                for (i, pr) in PROTOS.iter().enumerate() {
                    if let Some(v) = r["measured"][i].as_f64() {
                        out.push(m(&app, *pr, v));
                    }
                }
            }
        }
        "fig4" | "fig6" | "fig8" => {
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?").to_string();
                let protos = r["protocols"].as_array().cloned().unwrap_or_default();
                for (i, pr) in protos.iter().enumerate() {
                    if let (Some(name), Some(v)) = (pr.as_str(), r["normalized"][i].as_f64()) {
                        out.push(m(&app, name, v));
                    }
                }
            }
        }
        "fig5" | "fig7" | "fig9" => {
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?").to_string();
                let proto = r["protocol"].as_str().unwrap_or("?").to_string();
                let total: f64 =
                    ["cpu", "read", "write", "sync"].iter().filter_map(|k| r[*k].as_f64()).sum();
                out.push(m(&app, &proto, total));
            }
        }
        "sweep" => {
            let apps: Vec<String> = p["apps"]
                .as_array()
                .cloned()
                .unwrap_or_default()
                .iter()
                .filter_map(|a| a.as_str().map(str::to_string))
                .collect();
            for r in rows("rows") {
                let cfg = r["config"].as_str().unwrap_or("?").to_string();
                for (i, app) in apps.iter().enumerate() {
                    if let Some(v) = r["lazy_over_eager"][i].as_f64() {
                        out.push(m(&cfg, app, v));
                    }
                }
            }
        }
        "quality" => {
            for (i, axis) in ["X", "Y", "Z"].iter().enumerate() {
                if let Some(v) = p["divergence_pct"][i].as_f64() {
                    out.push(m(*axis, "divergence", v));
                }
            }
        }
        "traffic" => {
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?").to_string();
                let proto = r["protocol"].as_str().unwrap_or("?").to_string();
                if let Some(b) = r["bytes"].as_f64() {
                    out.push(m(&app, &proto, b / 1e6));
                }
            }
        }
        "scaling" => {
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?");
                let procs = r["procs"].as_u64().unwrap_or(0);
                let row = format!("{app} @{procs}p");
                for k in ["sc", "eager", "lazy"] {
                    if let Some(v) = r[k].as_f64() {
                        out.push(m(&row, k, v));
                    }
                }
            }
        }
        "fences" => {
            for r in rows("rows") {
                let app = r["app"].as_str().unwrap_or("?").to_string();
                for k in ["eager", "lazy"] {
                    if let Some(v) = r[k].as_f64() {
                        out.push(m(&app, k, v));
                    }
                }
                for f in r["fenced"].as_array().cloned().unwrap_or_default() {
                    if let (Some(i), Some(v)) = (f["interval"].as_u64(), f["cycles"].as_f64()) {
                        out.push(m(&app, format!("fence/{i}"), v));
                    }
                }
            }
        }
        "avail" => {
            for r in rows("rows") {
                let proto = r["protocol"].as_str().unwrap_or("?").to_string();
                let run = r["run"].as_str().unwrap_or("?").to_string();
                if let Some(v) = r["cycles"].as_f64() {
                    out.push(m(&proto, &run, v));
                }
            }
        }
        "diverge" => {
            for r in rows("rows") {
                let proto = r["protocol"].as_str().unwrap_or("?").to_string();
                let rate = r["rate"].as_f64().unwrap_or(0.0);
                if let Some(v) = r["first_divergence"].as_f64() {
                    out.push(m(&proto, format!("faults {rate}"), v));
                }
            }
        }
        "observe" => {
            for r in p["latency"].as_array().cloned().unwrap_or_default() {
                let name = r["name"].as_str().unwrap_or("?").to_string();
                for k in ["mean", "p50", "p95"] {
                    if let Some(v) = r[k].as_f64() {
                        out.push(m(&name, k, v));
                    }
                }
            }
        }
        "ablate" => {
            for s in p["sections"].as_array().cloned().unwrap_or_default() {
                let knob = s["knob"].as_str().unwrap_or("?").to_string();
                for r in s["rows"].as_array().cloned().unwrap_or_default() {
                    let Some(fields) = r.as_object() else { continue };
                    // First field labels the setting; the remaining numeric
                    // fields are the measurements.
                    let label = fields
                        .first()
                        .map(|(k, v)| match v.as_str() {
                            Some(s) => format!("{k}={s}"),
                            None => format!("{k}={}", v.dump()),
                        })
                        .unwrap_or_else(|| "?".to_string());
                    for (k, v) in fields.iter().skip(1) {
                        if let Some(x) = v.as_f64() {
                            out.push(m(format!("{knob} {label}"), k.clone(), x));
                        }
                    }
                }
            }
        }
        _ => {}
    }
    out
}

/// Experiments the HTML report charts (the rest get tables only): known
/// row/series shapes with a single comparable unit and ≤ 5 series.
pub const CHARTABLE: [&str; 14] = [
    "table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "sweep", "quality",
    "traffic", "scaling", "fences", "avail",
];

/// The value axis label for an experiment's metrics.
pub fn unit(id: &str) -> &'static str {
    match id {
        "table2" => "% of misses",
        "table3" => "miss rate (%)",
        "fig4" | "fig6" | "fig8" => "execution time (SC = 1)",
        "fig5" | "fig7" | "fig9" => "overhead (SC total = 1)",
        "sweep" => "lazy/eager time ratio",
        "quality" => "divergence (% of |v|)",
        "traffic" => "MB on wire",
        "scaling" | "fences" | "avail" => "total cycles",
        "diverge" => "first divergence (cycle)",
        "observe" => "latency (cycles)",
        "ablate" => "mixed units",
        _ => "",
    }
}

fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Per-cell cross-seed statistics.
#[derive(Debug, Clone)]
pub struct CellStats {
    /// Row label.
    pub row: String,
    /// Series label.
    pub series: String,
    /// Per-seed observations, in seed order.
    pub values: Vec<f64>,
    /// Bootstrap summary of `values`.
    pub summary: Summary,
}

/// One comparison against the baseline series.
#[derive(Debug, Clone)]
pub struct EffectCell {
    /// Row label.
    pub row: String,
    /// Subject series (the baseline is implicit).
    pub series: String,
    /// Effect size / significance bundle.
    pub effect: Effect,
}

/// Provenance of one stored run (one seed of one experiment cell).
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The index row.
    pub entry: IndexEntry,
    /// Its decoded manifest.
    pub manifest: RunManifest,
}

/// Cross-seed statistics for one (experiment, scale, procs) group.
#[derive(Debug, Clone)]
pub struct ExpStats {
    /// Experiment id.
    pub id: String,
    /// Title from the artifact (paper caption).
    pub title: String,
    /// Input scale of this group.
    pub scale: String,
    /// Processor count of this group (0 = unknown/migrated).
    pub procs: u64,
    /// Value-axis unit label.
    pub unit: &'static str,
    /// Row labels, first-seen order.
    pub rows: Vec<String>,
    /// Series labels, first-seen order.
    pub series: Vec<String>,
    /// Per-cell summaries (row-major over `rows` × `series`; missing
    /// combinations are absent).
    pub cells: Vec<CellStats>,
    /// Baseline series name, when present in `series`.
    pub baseline: Option<String>,
    /// Effects vs the baseline (Holm-adjusted within this experiment).
    pub effects: Vec<EffectCell>,
    /// Seeds contributing to this group, ascending.
    pub seeds: Vec<u64>,
    /// One provenance record per seed.
    pub provenance: Vec<SeedRun>,
}

impl ExpStats {
    /// Look up the cell for `(row, series)`.
    pub fn cell(&self, row: &str, series: &str) -> Option<&CellStats> {
        self.cells.iter().find(|c| c.row == row && c.series == series)
    }
}

/// Assemble cross-seed statistics for every (experiment, scale, procs)
/// group in the store. Groups are ordered by `id_order` position (unknown
/// ids last), then scale, then procs. `baseline` names the series effects
/// are computed against where it exists (usually a protocol, "eager").
pub fn paper_stats(
    store: &Store,
    id_order: &[&str],
    baseline: &str,
) -> Result<Vec<ExpStats>, StoreError> {
    let entries = store.entries()?;
    let mut groups: Vec<((String, String, u64), Vec<IndexEntry>)> = Vec::new();
    for e in entries {
        let key = (e.experiment.clone(), e.scale.clone(), e.procs);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(e),
            None => groups.push((key, vec![e])),
        }
    }
    let pos = |id: &str| id_order.iter().position(|x| *x == id).unwrap_or(usize::MAX);
    groups.sort_by(|((ia, sa, pa), _), ((ib, sb, pb), _)| {
        (pos(ia), ia, sa, pa).cmp(&(pos(ib), ib, sb, pb))
    });

    let mut out = Vec::new();
    for ((id, scale, procs), mut group) in groups {
        group.sort_by_key(|e| e.seed);
        let mut title = id.clone();
        let mut rows: Vec<String> = Vec::new();
        let mut series: Vec<String> = Vec::new();
        let mut values: Vec<((String, String), Vec<f64>)> = Vec::new();
        let mut provenance = Vec::new();
        for e in &group {
            let artifact = store.get(&e.artifact)?;
            if let Some(t) = artifact["title"].as_str() {
                title = t.to_string();
            }
            for metric in metrics(&id, &artifact) {
                if !rows.contains(&metric.row) {
                    rows.push(metric.row.clone());
                }
                if !series.contains(&metric.series) {
                    series.push(metric.series.clone());
                }
                let key = (metric.row, metric.series);
                match values.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, v)) => v.push(metric.value),
                    None => values.push((key, vec![metric.value])),
                }
            }
            provenance.push(SeedRun { entry: e.clone(), manifest: store.manifest(e)? });
        }

        let cells: Vec<CellStats> = values
            .iter()
            .map(|((row, ser), vals)| CellStats {
                row: row.clone(),
                series: ser.clone(),
                values: vals.clone(),
                summary: summarize(vals, fnv1a64(&format!("{id}|{scale}|{procs}|{row}|{ser}"))),
            })
            .collect();

        let baseline_name =
            series.iter().find(|s| s.as_str() == baseline).cloned();
        let mut effects = Vec::new();
        if let Some(base) = &baseline_name {
            for ((row, ser), vals) in &values {
                if ser == base {
                    continue;
                }
                let Some((_, bvals)) = values.iter().find(|((r, s), _)| r == row && s == base)
                else {
                    continue;
                };
                if bvals.len() != vals.len() || vals.is_empty() {
                    continue; // unpaired: a seed is missing on one side
                }
                let e = effect(vals, bvals, fnv1a64(&format!("{id}|{row}|{ser}|effect")));
                effects.push(EffectCell { row: row.clone(), series: ser.clone(), effect: e });
            }
            let adjusted = holm_adjust(
                &effects.iter().map(|e| e.effect.p).collect::<Vec<_>>(),
            );
            for (e, adj) in effects.iter_mut().zip(adjusted) {
                e.effect.p_adjusted = adj;
            }
        }

        out.push(ExpStats {
            unit: unit(&id),
            id,
            title,
            scale,
            procs,
            rows,
            series,
            cells,
            baseline: baseline_name,
            effects,
            seeds: group.iter().map(|e| e.seed).collect(),
            provenance,
        });
    }
    Ok(out)
}

// ============================================================================
// HTML rendering: self-contained report with inline SVG charts, full data
// tables, and provenance footnotes. Palette and accessibility rules follow
// DESIGN.md §11 (validated categorical palette, light + dark).
// ============================================================================

use lrc_json::json;

/// Context shown in the report header and embedded in `report.json`.
#[derive(Debug, Clone)]
pub struct ReportMeta {
    /// `lrc-exp` crate version.
    pub tool_version: String,
    /// Human label for the store the report was built from.
    pub store_label: String,
    /// Baseline series name effects were computed against.
    pub baseline: String,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Compact value label: `1.23G`, `45.6M`, `78.9k`, `123`, `4.56`, `0.078`.
pub fn fmt_val(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else if a == 0.0 {
        "0".to_string()
    } else {
        format!("{v:.3}")
    }
}

fn fmt_p(p: f64) -> String {
    if p < 0.001 {
        "<0.001".to_string()
    } else {
        format!("{p:.3}")
    }
}

/// `unix seconds → "YYYY-MM-DD HH:MM UTC"` (`0` renders as `—`). Civil-date
/// conversion after Hinnant's `days_from_civil` inverse.
pub fn iso_utc(ts: u64) -> String {
    if ts == 0 {
        return "—".to_string();
    }
    let days = (ts / 86_400) as i64;
    let secs = ts % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mth = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mth <= 2 { y + 1 } else { y };
    format!("{y:04}-{mth:02}-{d:02} {:02}:{:02} UTC", secs / 3600, (secs % 3600) / 60)
}

/// Palette index per series: protocol series keep their fixed entity color
/// (sc=0 eager=1 lazy=2 lazy-ext=3); other series take the remaining slots
/// in order. Color follows the entity, never its rank.
fn color_indices(series: &[String]) -> Vec<usize> {
    let fixed = |s: &str| match s {
        "sc" => Some(0),
        "eager" => Some(1),
        "lazy" => Some(2),
        "lazy-ext" => Some(3),
        _ => None,
    };
    let used: Vec<usize> = series.iter().filter_map(|s| fixed(s)).collect();
    let mut free: Vec<usize> = (0..5).filter(|i| !used.contains(i)).collect();
    series
        .iter()
        .map(|s| fixed(s).unwrap_or_else(|| if free.is_empty() { 4 } else { free.remove(0) }))
        .collect()
}

const CHART_W: usize = 920;
const CHART_LEFT: usize = 190;
const CHART_RIGHT: usize = 84;
const BAR_H: usize = 13;
const BAR_GAP: usize = 2;
const GROUP_PAD: usize = 10;

/// Render one experiment group as an inline SVG horizontal grouped-bar
/// chart with 95% CI whiskers. Returns `None` when the data doesn't chart
/// cleanly (not in [`CHARTABLE`], >5 series, >48 rows, negative or all-zero
/// values) — the data table is always present regardless.
fn svg_chart(e: &ExpStats) -> Option<String> {
    if !CHARTABLE.contains(&e.id.as_str()) || e.series.len() > 5 || e.rows.len() > 48 {
        return None;
    }
    let mut max = 0.0f64;
    for c in &e.cells {
        if c.summary.mean < 0.0 || c.summary.ci_lo < 0.0 {
            return None;
        }
        max = max.max(c.summary.mean).max(c.summary.ci_hi);
    }
    if max <= 0.0 {
        return None;
    }
    let colors = color_indices(&e.series);
    let ns = e.series.len();
    let gh = ns * (BAR_H + BAR_GAP) + GROUP_PAD;
    let plot_h = e.rows.len() * gh;
    let h = plot_h + 26;
    let plot_w = CHART_W - CHART_LEFT - CHART_RIGHT;
    let x = |v: f64| CHART_LEFT as f64 + v / max * plot_w as f64;
    let label_bars = e.rows.len() * ns <= 30;

    let mut s = String::new();
    s.push_str(&format!(
        "<svg viewBox=\"0 0 {CHART_W} {h}\" role=\"img\" \
         aria-label=\"{}: grouped bar chart\">\n",
        esc(&e.id)
    ));
    // Recessive grid: quarter ticks.
    for i in 1..=4 {
        let gx = x(max * i as f64 / 4.0);
        s.push_str(&format!(
            "<line class=\"grid\" x1=\"{gx:.1}\" y1=\"0\" x2=\"{gx:.1}\" y2=\"{plot_h}\"/>\n"
        ));
        s.push_str(&format!(
            "<text class=\"tick\" x=\"{gx:.1}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
            plot_h + 16,
            esc(&fmt_val(max * i as f64 / 4.0))
        ));
    }
    s.push_str(&format!(
        "<line class=\"axis\" x1=\"{CHART_LEFT}\" y1=\"0\" x2=\"{CHART_LEFT}\" y2=\"{plot_h}\"/>\n"
    ));
    for (ri, row) in e.rows.iter().enumerate() {
        let gy = ri * gh;
        s.push_str(&format!(
            "<text class=\"rl\" x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>\n",
            CHART_LEFT - 8,
            gy + (gh - GROUP_PAD) / 2 + 4,
            esc(row)
        ));
        for (si, ser) in e.series.iter().enumerate() {
            let Some(c) = e.cell(row, ser) else { continue };
            let y = gy + si * (BAR_H + BAR_GAP);
            let xe = x(c.summary.mean);
            let ymid = y as f64 + BAR_H as f64 / 2.0;
            s.push_str("<g>");
            s.push_str(&format!(
                "<title>{} · {}: {} [{}, {}] n={}</title>",
                esc(row),
                esc(ser),
                esc(&fmt_val(c.summary.mean)),
                esc(&fmt_val(c.summary.ci_lo)),
                esc(&fmt_val(c.summary.ci_hi)),
                c.summary.n
            ));
            s.push_str(&format!(
                "<rect class=\"c{}\" x=\"{CHART_LEFT}\" y=\"{y}\" width=\"{:.1}\" \
                 height=\"{BAR_H}\" rx=\"2\"/>",
                colors[si],
                (xe - CHART_LEFT as f64).max(0.5)
            ));
            if c.summary.n >= 2 && c.summary.ci_hi > c.summary.ci_lo {
                let (lo, hi) = (x(c.summary.ci_lo), x(c.summary.ci_hi));
                s.push_str(&format!(
                    "<line class=\"wh\" x1=\"{lo:.1}\" y1=\"{ymid:.1}\" x2=\"{hi:.1}\" y2=\"{ymid:.1}\"/>\
                     <line class=\"wh\" x1=\"{lo:.1}\" y1=\"{:.1}\" x2=\"{lo:.1}\" y2=\"{:.1}\"/>\
                     <line class=\"wh\" x1=\"{hi:.1}\" y1=\"{:.1}\" x2=\"{hi:.1}\" y2=\"{:.1}\"/>",
                    ymid - 4.0,
                    ymid + 4.0,
                    ymid - 4.0,
                    ymid + 4.0
                ));
            }
            if label_bars {
                let lx = xe.max(x(c.summary.ci_hi)) + 6.0;
                s.push_str(&format!(
                    "<text class=\"val\" x=\"{lx:.1}\" y=\"{:.1}\">{}</text>",
                    ymid + 4.0,
                    esc(&fmt_val(c.summary.mean))
                ));
            }
            s.push_str("</g>\n");
        }
    }
    s.push_str(&format!(
        "<text class=\"unit\" x=\"{CHART_W}\" y=\"{}\" text-anchor=\"end\">{}</text>\n",
        plot_h + 16,
        esc(e.unit)
    ));
    s.push_str("</svg>\n");
    Some(s)
}

const CSS: &str = "\
:root{--bg:#fcfcfb;--ink:#202422;--ink2:#5c6462;--muted:#8a918f;--line:#e3e5e1;\
--c0:#2a78d6;--c1:#eb6834;--c2:#1baf7a;--c3:#eda100;--c4:#8a5fd6}\n\
@media (prefers-color-scheme:dark){:root{--bg:#1a1a19;--ink:#ebedea;--ink2:#b0b6b2;\
--muted:#808682;--line:#34373a;--c0:#3987e5;--c1:#d95926;--c2:#199e70;--c3:#c98500;--c4:#9a74e8}}\n\
body{font:14px/1.5 system-ui,-apple-system,'Segoe UI',sans-serif;background:var(--bg);\
color:var(--ink);max-width:980px;margin:2rem auto;padding:0 1rem}\n\
h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2.2rem;border-top:1px solid var(--line);\
padding-top:1.2rem}\n\
a{color:var(--c0)}code{font-family:ui-monospace,monospace;font-size:.92em}\n\
.meta,.prov{font-size:12px;color:var(--ink2)}\n\
.toc{columns:3;font-size:13px;margin:1rem 0;padding-left:1.2rem}\n\
table{border-collapse:collapse;margin:.8rem 0;font-variant-numeric:tabular-nums}\n\
th,td{padding:.22rem .6rem;border-bottom:1px solid var(--line);text-align:right;font-size:13px}\n\
th{color:var(--ink2);font-weight:600}th:first-child,td:first-child{text-align:left}\n\
.legend{font-size:12px;color:var(--ink2);margin:.4rem 0}\n\
.sw{display:inline-block;width:10px;height:10px;border-radius:2px;margin:0 4px 0 12px;\
vertical-align:-1px}\n\
.sw0{background:var(--c0)}.sw1{background:var(--c1)}.sw2{background:var(--c2)}\
.sw3{background:var(--c3)}.sw4{background:var(--c4)}\n\
svg{width:100%;height:auto;margin:.4rem 0}\n\
.c0{fill:var(--c0)}.c1{fill:var(--c1)}.c2{fill:var(--c2)}.c3{fill:var(--c3)}.c4{fill:var(--c4)}\n\
.grid{stroke:var(--line);stroke-width:1}.axis{stroke:var(--muted);stroke-width:1}\n\
.wh{stroke:var(--ink2);stroke-width:1.5}\n\
.rl,.val,.tick,.unit{font:11px system-ui,sans-serif;fill:var(--ink2)}\n\
.val{fill:var(--ink)}\n\
footer{margin:3rem 0 1rem;font-size:12px;color:var(--muted);border-top:1px solid var(--line);\
padding-top:1rem}\n";

fn provenance_html(e: &ExpStats, store_prefix: &str) -> String {
    let mut s = String::from("<p class=\"prov\">Provenance: ");
    let parts: Vec<String> = e
        .provenance
        .iter()
        .map(|run| {
            let m = &run.manifest;
            let short = |h: &str| h.chars().take(12).collect::<String>();
            let link = format!(
                "<a href=\"{}objects/{}.json\"><code>{}</code></a>",
                esc(store_prefix),
                esc(&run.entry.manifest),
                short(&run.entry.manifest)
            );
            if m.migrated {
                format!("seed {} · manifest {} · migrated (pre-store artifact)", run.entry.seed, link)
            } else {
                format!(
                    "seed {} · manifest {} · commit <code>{}</code> · config <code>{}</code> · \
                     host_cpus {} · {}",
                    run.entry.seed,
                    link,
                    esc(&short(&m.git_commit)),
                    esc(&short(&m.config_hash)),
                    m.host.host_cpus,
                    esc(&iso_utc(m.timestamp))
                )
            }
        })
        .collect();
    s.push_str(&parts.join("<br>"));
    s.push_str("</p>\n");
    s
}

fn anchor(e: &ExpStats) -> String {
    format!("{}-{}-{}", e.id, e.scale, e.procs)
}

/// Render the full HTML report. `store_prefix` is the (URL-style, trailing
/// slash or empty) path from the HTML file to the store root, used for
/// provenance links.
pub fn render_html(stats: &[ExpStats], meta: &ReportMeta, store_prefix: &str) -> String {
    let newest = stats
        .iter()
        .flat_map(|e| e.provenance.iter().map(|p| p.manifest.timestamp))
        .max()
        .unwrap_or(0);
    let mut h = String::new();
    h.push_str("<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    h.push_str("<meta name=\"viewport\" content=\"width=device-width,initial-scale=1\">\n");
    h.push_str("<title>LRC for hardware-coherent multiprocessors — experiment report</title>\n");
    h.push_str(&format!("<style>\n{CSS}</style>\n</head>\n<body>\n"));
    h.push_str("<h1>Lazy release consistency — experiment report</h1>\n");
    h.push_str(&format!(
        "<p class=\"meta\">lrc-exp v{} · store <code>{}</code> · {} experiment group(s) · \
         baseline <code>{}</code> · newest run {}</p>\n",
        esc(&meta.tool_version),
        esc(&meta.store_label),
        stats.len(),
        esc(&meta.baseline),
        esc(&iso_utc(newest))
    ));
    h.push_str(
        "<p class=\"meta\">Reproduction of Keleher et&nbsp;al.'s protocol study per \
         Kontothanassis, Scott &amp; Bianchini (SC&nbsp;'95): every table and figure \
         regenerated from the content-addressed artifact store, with 95% bootstrap \
         confidence intervals across input seeds and Holm-adjusted significance vs the \
         baseline protocol. Verify staleness with <code>lrc-exp report --check</code>.</p>\n",
    );
    h.push_str("<ul class=\"toc\">\n");
    for e in stats {
        h.push_str(&format!(
            "<li><a href=\"#{}\">{} ({}, {}p)</a></li>\n",
            esc(&anchor(e)),
            esc(&e.id),
            esc(&e.scale),
            e.procs
        ));
    }
    h.push_str("</ul>\n");

    for e in stats {
        h.push_str(&format!(
            "<h2 id=\"{}\">{} — {}</h2>\n",
            esc(&anchor(e)),
            esc(&e.id),
            esc(&e.title)
        ));
        let seeds: Vec<String> = e.seeds.iter().map(u64::to_string).collect();
        h.push_str(&format!(
            "<p class=\"meta\">scale {} · {} procs · seeds [{}]{}</p>\n",
            esc(&e.scale),
            e.procs,
            seeds.join(", "),
            if e.unit.is_empty() { String::new() } else { format!(" · unit: {}", esc(e.unit)) }
        ));
        // Legend whenever ≥2 series carry identity.
        if e.series.len() >= 2 {
            let colors = color_indices(&e.series);
            h.push_str("<p class=\"legend\">");
            for (si, ser) in e.series.iter().enumerate() {
                h.push_str(&format!(
                    "<span class=\"sw sw{}\"></span>{}",
                    colors[si % 5].min(4),
                    esc(ser)
                ));
            }
            h.push_str("</p>\n");
        }
        if let Some(svg) = svg_chart(e) {
            h.push_str(&svg);
        }
        // Full data table (the accessible view; always present).
        if !e.rows.is_empty() {
            h.push_str("<table>\n<tr><th>row</th>");
            for ser in &e.series {
                h.push_str(&format!("<th>{}</th>", esc(ser)));
            }
            h.push_str("</tr>\n");
            for row in &e.rows {
                h.push_str(&format!("<tr><td>{}</td>", esc(row)));
                for ser in &e.series {
                    match e.cell(row, ser) {
                        Some(c) if c.summary.n >= 2 => h.push_str(&format!(
                            "<td>{} [{}, {}]</td>",
                            esc(&fmt_val(c.summary.mean)),
                            esc(&fmt_val(c.summary.ci_lo)),
                            esc(&fmt_val(c.summary.ci_hi))
                        )),
                        Some(c) => {
                            h.push_str(&format!("<td>{}</td>", esc(&fmt_val(c.summary.mean))))
                        }
                        None => h.push_str("<td>—</td>"),
                    }
                }
                h.push_str("</tr>\n");
            }
            h.push_str("</table>\n");
        } else {
            h.push_str("<p class=\"meta\">No comparable numeric metrics; see the stored \
                        artifact for the full payload.</p>\n");
        }
        // Effects vs baseline.
        if !e.effects.is_empty() {
            h.push_str(&format!(
                "<table>\n<tr><th>row</th><th>series</th><th>Δ vs {}</th><th>rel</th>\
                 <th>Cohen d</th><th>p</th><th>p (Holm)</th></tr>\n",
                esc(e.baseline.as_deref().unwrap_or("baseline"))
            ));
            for ec in &e.effects {
                h.push_str(&format!(
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:+.1}%</td><td>{:.2}</td>\
                     <td>{}</td><td>{}</td></tr>\n",
                    esc(&ec.row),
                    esc(&ec.series),
                    esc(&fmt_val(ec.effect.delta)),
                    ec.effect.rel * 100.0,
                    ec.effect.d.clamp(-99.99, 99.99),
                    esc(&fmt_p(ec.effect.p)),
                    esc(&fmt_p(ec.effect.p_adjusted))
                ));
            }
            h.push_str("</table>\n");
        }
        h.push_str(&provenance_html(e, store_prefix));
    }

    h.push_str(&format!(
        "<footer>Generated by <code>lrc-exp report</code> v{} from <code>{}</code>. \
         Regeneration commands per experiment: see EXPERIMENTS.md \
         (<code>lrc-exp report --index-md</code>).</footer>\n",
        esc(&meta.tool_version),
        esc(&meta.store_label)
    ));
    h.push_str("</body>\n</html>\n");
    h
}

/// Machine-readable companion of the HTML report (schema
/// [`REPORT_SCHEMA`]).
pub fn report_json(stats: &[ExpStats], meta: &ReportMeta) -> Value {
    let experiments: Vec<Value> = stats
        .iter()
        .map(|e| {
            let cells: Vec<Value> = e
                .cells
                .iter()
                .map(|c| {
                    json!({
                        "row": c.row.clone(),
                        "series": c.series.clone(),
                        "values": c.values.clone(),
                        "n": c.summary.n as u64,
                        "mean": c.summary.mean,
                        "median": c.summary.median,
                        "sd": c.summary.sd,
                        "ci_lo": c.summary.ci_lo,
                        "ci_hi": c.summary.ci_hi,
                    })
                })
                .collect();
            let effects: Vec<Value> = e
                .effects
                .iter()
                .map(|ec| {
                    json!({
                        "row": ec.row.clone(),
                        "series": ec.series.clone(),
                        "delta": ec.effect.delta,
                        "rel": ec.effect.rel,
                        "d": ec.effect.d,
                        "p": ec.effect.p,
                        "p_holm": ec.effect.p_adjusted,
                    })
                })
                .collect();
            let provenance: Vec<Value> = e
                .provenance
                .iter()
                .map(|run| {
                    json!({
                        "seed": run.entry.seed,
                        "artifact": run.entry.artifact.clone(),
                        "manifest": run.entry.manifest.clone(),
                        "config_hash": run.manifest.config_hash.clone(),
                        "git_commit": run.manifest.git_commit.clone(),
                        "timestamp": run.manifest.timestamp,
                        "host_cpus": run.manifest.host.host_cpus,
                        "migrated": run.manifest.migrated,
                    })
                })
                .collect();
            json!({
                "id": e.id.clone(),
                "title": e.title.clone(),
                "scale": e.scale.clone(),
                "procs": e.procs,
                "unit": e.unit,
                "seeds": e.seeds.clone(),
                "rows": e.rows.clone(),
                "series": e.series.clone(),
                "baseline": match &e.baseline {
                    Some(b) => Value::Str(b.clone()),
                    None => Value::Null,
                },
                "cells": cells,
                "effects": effects,
                "provenance": provenance,
            })
        })
        .collect();
    json!({
        "schema": REPORT_SCHEMA,
        "tool_version": meta.tool_version.clone(),
        "store": meta.store_label.clone(),
        "baseline": meta.baseline.clone(),
        "experiments": experiments,
    })
}

// ============================================================================
// EXPERIMENTS.md regeneration index.
// ============================================================================

const INDEX_HEADING: &str = "## Per-experiment regeneration index";

/// `(id, regenerate command)` for every artifact the repo
/// tracks — the 19 `lrc-exp` experiments plus the soak extras.
const REGEN_ROWS: [(&str, &str); 22] = [
    ("table1", "`lrc-exp table1 --store results/store`"),
    ("table2", "`lrc-exp table2 --scale paper --store results/store`"),
    ("table3", "`lrc-exp table3 --scale paper --store results/store`"),
    ("fig4", "`lrc-exp fig4 --scale paper --store results/store`"),
    ("fig5", "`lrc-exp fig5 --scale paper --store results/store`"),
    ("fig6", "`lrc-exp fig6 --scale paper --store results/store`"),
    ("fig7", "`lrc-exp fig7 --scale paper --store results/store`"),
    ("fig8", "`lrc-exp fig8 --scale paper --store results/store`"),
    ("fig9", "`lrc-exp fig9 --scale paper --store results/store`"),
    ("sweep", "`lrc-exp sweep --scale paper --store results/store`"),
    ("quality", "`lrc-exp quality --scale paper --store results/store`"),
    ("traffic", "`lrc-exp traffic --scale paper --store results/store`"),
    ("scaling", "`lrc-exp scaling --scale small --store results/store`"),
    ("ablate", "`lrc-exp ablate --scale small --procs 16 --store results/store`"),
    ("fences", "`lrc-exp fences --scale small --procs 16 --store results/store`"),
    ("mesh256", "`lrc-exp mesh256 --scale large --procs 256 --store results/store`"),
    ("capacity", "`lrc-soak --capacity-sweep`"),
    ("races", "`lrc-soak --races`"),
    ("observe", "`lrc-exp observe --scale tiny --procs 8 --trace-dir DIR --store results/store`"),
    ("diverge", "`lrc-exp diverge --scale tiny --procs 8 --store results/store`"),
    ("avail", "`lrc-exp avail --scale tiny --procs 8 --store results/store`"),
    ("availability", "`lrc-soak --availability`"),
];

/// The regeneration-index markdown section (heading included), as emitted
/// by `lrc-exp report --index-md`.
pub fn regeneration_index_md() -> String {
    let mut s = format!("{INDEX_HEADING}\n\n| id | regenerate |\n|---|---|\n");
    for (id, cmd) in REGEN_ROWS {
        s.push_str(&format!("| {id} | {cmd} |\n"));
    }
    s.push_str(
        "\nMulti-seed statistics: add `--seeds N` to any `lrc-exp` command to run seeds \
         `0..N` into the store; `lrc-exp report` then reports mean, 95% bootstrap CI and \
         Holm-adjusted effects vs the baseline protocol across seeds. Verify stored \
         artifacts against the current code with `lrc-exp report --check`.\n",
    );
    s
}

/// Splice the regeneration index into an existing EXPERIMENTS.md body:
/// replaces from the index heading to end-of-file, or appends the section
/// if the heading is absent.
pub fn splice_index_md(existing: &str) -> String {
    match existing.find(INDEX_HEADING) {
        Some(pos) => format!("{}{}", &existing[..pos], regeneration_index_md()),
        None => {
            let mut s = existing.trim_end().to_string();
            if !s.is_empty() {
                s.push_str("\n\n");
            }
            s.push_str(&regeneration_index_md());
            s
        }
    }
}

#[cfg(test)]
mod paper_tests {
    use super::*;
    use lrc_json::parse;

    fn fake_artifact(id: &str, payload: Value) -> Value {
        json!({"id": id, "title": format!("{id} title"), "text": "t", "json": payload})
    }

    #[test]
    fn table3_metrics_extract_per_protocol() {
        let a = fake_artifact(
            "table3",
            json!({"rows": [{"app": "mp3d", "measured": [10.0, 6.0, 5.5], "paper": [0,0,0]}]}),
        );
        let ms = metrics("table3", &a);
        assert_eq!(ms.len(), 3);
        assert_eq!(ms[0], m("mp3d", "eager", 10.0));
        assert_eq!(ms[2], m("mp3d", "lazy-ext", 5.5));
    }

    #[test]
    fn fig4_metrics_follow_protocol_list() {
        let a = fake_artifact(
            "fig4",
            json!({"rows": [{"app": "fft", "sc_cycles": 100, "protocols": ["sc", "lazy"],
                             "normalized": [1.0, 0.8]}]}),
        );
        let ms = metrics("fig4", &a);
        assert_eq!(ms, vec![m("fft", "sc", 1.0), m("fft", "lazy", 0.8)]);
    }

    #[test]
    fn unknown_or_config_ids_have_no_metrics() {
        let a = fake_artifact("table1", json!({"anything": 1}));
        assert!(metrics("table1", &a).is_empty());
        assert!(metrics("nonsense", &a).is_empty());
    }

    #[test]
    fn color_indices_pin_protocols_and_fill_rest() {
        let series: Vec<String> =
            ["lazy", "eager", "divergence"].iter().map(|s| s.to_string()).collect();
        assert_eq!(color_indices(&series), vec![2, 1, 0]);
        let classes: Vec<String> =
            ["cold", "true-share", "false-share"].iter().map(|s| s.to_string()).collect();
        assert_eq!(color_indices(&classes), vec![0, 1, 2]);
    }

    #[test]
    fn iso_utc_converts_known_date() {
        // 2026-08-09 14:30:00 UTC
        assert_eq!(iso_utc(1_786_285_800), "2026-08-09 14:30 UTC");
        assert_eq!(iso_utc(0), "—");
    }

    #[test]
    fn index_md_splices_over_old_section() {
        let old = "# Doc\n\nbody\n\n## Per-experiment regeneration index\n\n| stale |\n";
        let new = splice_index_md(old);
        assert!(new.starts_with("# Doc\n\nbody\n\n## Per-experiment regeneration index"));
        assert!(!new.contains("| stale |"));
        assert!(new.contains("| fences |"));
        assert!(new.contains("--seeds N"));
        // Appending to a doc without the heading adds the section once.
        let appended = splice_index_md("# Fresh\n");
        assert_eq!(appended.matches(INDEX_HEADING).count(), 1);
    }

    #[test]
    fn regeneration_rows_run_as_written() {
        // `lrc-exp` reads its first argument as the experiment id, so a
        // row must not carry cargo's `--` separator.
        for (id, cmd) in REGEN_ROWS {
            let mut words = cmd.trim_matches('`').split_whitespace();
            if words.next() == Some("lrc-exp") {
                let first = words.next().unwrap_or("");
                let known = crate::experiments::ALL_IDS.contains(&first);
                assert!(known, "row {id}: `{first}` is not an experiment id in {cmd}");
            }
        }
    }

    #[test]
    fn report_json_is_parseable_and_tagged() {
        let meta = ReportMeta {
            tool_version: "0.0.0".into(),
            store_label: "s".into(),
            baseline: "eager".into(),
        };
        let v = report_json(&[], &meta);
        assert_eq!(v["schema"].as_str(), Some(REPORT_SCHEMA));
        parse(&v.dump()).expect("valid json");
    }
}
