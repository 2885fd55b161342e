//! Machine-readable benchmark output.
//!
//! Every bench harness prints human-readable text; the ones tracked over time
//! additionally record their measurements as `BENCH_<name>.json` at the workspace root
//! through this module, so the perf trajectory of the repo is diffable across PRs. The
//! workspace is dependency free, so this is a small hand-rolled serializer for the flat
//! shape we need: a bench name, a mode tag, where and when it was recorded (the commit,
//! the core count and the date: [`Provenance`]), and a list of records with numeric
//! fields.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tempo_kernel::metrics::LatencySummary;

/// One benchmark record: a stable name plus numeric fields (`("median_us", 12.3)`, ...).
#[derive(Debug, Clone)]
pub struct Record {
    /// Stable record identifier, e.g. `promises/stability_detection_r5_1000`.
    pub name: String,
    /// Numeric fields of the record, in output order.
    pub fields: Vec<(String, f64)>,
}

impl Record {
    /// Creates a record from a name and its numeric fields.
    pub fn new(name: impl Into<String>, fields: &[(&str, f64)]) -> Self {
        Self {
            name: name.into(),
            fields: fields.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        }
    }

    /// Appends the shared latency-percentile block (builder style).
    pub fn with_latency(mut self, summary: &LatencySummary) -> Self {
        self.fields.extend(latency_fields(summary));
        self
    }
}

/// The shared latency-percentile block: the same field names in every latency-bearing
/// `BENCH_*.json` (`BENCH_load.json`, `BENCH_trace.json`, `BENCH_fig6.json`), so
/// tail-latency trajectories are comparable across harnesses.
pub fn latency_fields(summary: &LatencySummary) -> Vec<(String, f64)> {
    vec![
        ("lat_samples".to_string(), summary.samples as f64),
        ("lat_mean_ms".to_string(), summary.mean_ms),
        ("lat_p50_ms".to_string(), summary.p50_ms),
        ("lat_p95_ms".to_string(), summary.p95_ms),
        ("lat_p99_ms".to_string(), summary.p99_ms),
        ("lat_p999_ms".to_string(), summary.p999_ms),
        ("lat_max_ms".to_string(), summary.max_ms),
    ]
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn format_number(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Where and when a `BENCH_*.json` was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// The checkout's commit (`git rev-parse --short=12 HEAD`, `-dirty` appended when
    /// tracked files differ from it), or `unknown` without git.
    pub commit: String,
    /// The cores the recording process could use.
    pub cores: usize,
    /// The UTC date of the recording, `YYYY-MM-DD`.
    pub date: String,
}

impl Provenance {
    /// This checkout, this machine, today.
    pub fn here() -> Self {
        let git = |args: &[&str]| {
            let output = std::process::Command::new("git")
                .args(args)
                .current_dir(workspace_root())
                .output()
                .ok()
                .filter(|output| output.status.success())?;
            Some(String::from_utf8_lossy(&output.stdout).trim().to_string())
        };
        let commit = match git(&["rev-parse", "--short=12", "HEAD"]) {
            Some(head) => match git(&["status", "--porcelain", "--untracked-files=no"]) {
                Some(changes) if !changes.is_empty() => format!("{head}-dirty"),
                _ => head,
            },
            None => "unknown".to_string(),
        };
        let days = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |since| since.as_secs() / 86_400);
        Self {
            commit,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            date: civil_date(days),
        }
    }
}

/// The proleptic Gregorian `YYYY-MM-DD` of the day `days` after 1970-01-01 (Howard
/// Hinnant's `civil_from_days`).
fn civil_date(days: u64) -> String {
    let z = days + 719_468;
    let era = z / 146_097;
    let doe = z % 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + u64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// Serializes the records to the JSON document recorded in `BENCH_*.json`.
pub fn render(bench: &str, mode: &str, provenance: &Provenance, records: &[Record]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"bench\": \"{}\",", escape(bench));
    let _ = writeln!(out, "  \"mode\": \"{}\",", escape(mode));
    let _ = writeln!(out, "  \"commit\": \"{}\",", escape(&provenance.commit));
    let _ = writeln!(out, "  \"cores\": {},", provenance.cores);
    let _ = writeln!(out, "  \"date\": \"{}\",", escape(&provenance.date));
    let _ = writeln!(out, "  \"results\": [");
    for (i, record) in records.iter().enumerate() {
        let mut line = format!("    {{\"name\": \"{}\"", escape(&record.name));
        for (key, value) in &record.fields {
            let _ = write!(line, ", \"{}\": {}", escape(key), format_number(*value));
        }
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(out, "{line}}}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// The workspace root (two levels above the `tempo-bench` manifest).
pub fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    root.canonicalize().unwrap_or(root)
}

/// Writes `BENCH_<bench>.json` at the workspace root, stamped with
/// [`Provenance::here`], and reports the path on stdout. `mode` is `"short"` under
/// [`crate::short_mode`], `"full"` otherwise.
pub fn write(bench: &str, records: &[Record]) {
    let mode = if crate::short_mode() { "short" } else { "full" };
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    let doc = render(bench, mode, &Provenance::here(), records);
    match std::fs::write(&path, doc) {
        Ok(()) => println!(
            "\nrecorded {} result(s) in {}",
            records.len(),
            path.display()
        ),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json() {
        let records = vec![
            Record::new("a/b", &[("median_us", 1.5), ("speedup", 12.0)]),
            Record::new("c", &[("kops", 3.25)]),
        ];
        let provenance = Provenance {
            commit: "0123456789ab".to_string(),
            cores: 2,
            date: "2026-10-18".to_string(),
        };
        let doc = render("micro", "full", &provenance, &records);
        assert!(doc.contains("\"bench\": \"micro\""));
        assert!(doc.contains(
            "\"commit\": \"0123456789ab\",\n  \"cores\": 2,\n  \"date\": \"2026-10-18\","
        ));
        assert!(doc.contains("{\"name\": \"a/b\", \"median_us\": 1.5000, \"speedup\": 12},"));
        assert!(doc.contains("{\"name\": \"c\", \"kops\": 3.2500}"));
        // Balanced braces / brackets.
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn escapes_strings_and_non_finite_numbers() {
        let records = vec![Record::new("we\"ird\\", &[("x", f64::NAN)])];
        let doc = render("b", "short", &Provenance::here(), &records);
        assert!(doc.contains("we\\\"ird\\\\"));
        assert!(doc.contains("\"x\": null"));
    }

    #[test]
    fn dates_are_civil_utc_days() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(11_016), "2000-02-29");
        assert_eq!(civil_date(20_744), "2026-10-18");
        let here = Provenance::here();
        assert!(here.cores >= 1 && here.date.len() == 10 && !here.commit.is_empty());
    }
}
