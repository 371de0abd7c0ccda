//! Result files: what a pass writes, what `run` assembles from the passes,
//! and how `compare` judges two assembled files against the benchmark's
//! own bounds.

use crate::bench::BenchResult;
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::Quartiles;
use crate::traced::TracedResult;
use horse::stats::{json_f64, json_string, Json};
use std::fmt::Write as _;

/// Schema tag of the assembled result file.
pub const SCHEMA: &str = "horse-benchmark-v1";

fn f64_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_f64(*v)).collect();
    format!("[{}]", items.join(", "))
}

fn string_array(values: &[String]) -> String {
    let items: Vec<String> = values.iter().map(|v| json_string(v)).collect();
    format!("[{}]", items.join(", "))
}

/// The untraced pass as a JSON object.
pub fn bench_json(r: &BenchResult) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"setup_rounds_s\": {}, \"walls_s\": {}, \"rt_factors\": {}, \"peak_rss_mb\": {}, \
         \"semantic_digest\": \"{:016x}\", \"failures\": {}, \"total_wall_s\": {}}}",
        json_string(r.workload.name()),
        r.seed,
        r.correct(),
        r.attempted,
        r.failed,
        f64_array(&r.setup_rounds_s),
        f64_array(&r.walls_s),
        f64_array(&r.rt_factors),
        json_f64(r.peak_rss_mb),
        r.semantic_digest,
        string_array(&r.failures),
        json_f64(r.total_wall_s),
    )
}

/// The traced pass as a JSON object (only the layers that were measured).
pub fn traced_json(r: &TracedResult) -> String {
    let mut layers = String::from("{");
    let mut first = true;
    for (def, value) in r.layer.in_order() {
        let Some(v) = value else { continue };
        if !first {
            layers.push_str(", ");
        }
        first = false;
        let _ = write!(layers, "{}: {}", json_string(def.name), json_f64(v));
    }
    layers.push('}');
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"correct\": {}, \"problems\": {}, \
         \"staged_wall_s\": {}, \"stage_gap\": {}, \"semantic_digest\": \"{:016x}\", \
         \"trace_file\": {}, \"layers\": {layers}, \"total_wall_s\": {}}}",
        json_string(r.workload.name()),
        r.seed,
        r.problems.is_empty(),
        string_array(&r.problems),
        json_f64(r.staged_wall_s),
        json_f64(r.stage_gap),
        r.semantic_digest,
        json_string(&r.trace_file.display().to_string()),
        json_f64(r.total_wall_s),
    )
}

/// The last line a pass prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value (all digits) and unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&MetricDef, f64)],
) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(d.name),
                plain_number(*v),
                json_string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}

/// A JSON number with every digit the measurement has (non-finite → 0).
fn plain_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The end-to-end metrics of an untraced pass, in registry order.
pub fn end_to_end_values(r: &BenchResult) -> Vec<(&'static MetricDef, f64)> {
    END_TO_END
        .iter()
        .map(|d| {
            let v = match d.name {
                "setup_s" => r.setup_s(),
                "wall_s" => r.wall().median,
                "rt_factor" => r.rt_factor().median,
                "peak_rss_mb" => r.peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (d, v)
        })
        .collect()
}

/// One workload's end-to-end samples as read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSamples {
    /// Workload name.
    pub name: String,
    /// Samples per end-to-end metric, in [`END_TO_END`] order.
    pub samples: Vec<Vec<f64>>,
    /// Experiment runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// The untraced pass's semantic digest.
    pub semantic_digest: String,
}

impl WorkloadSamples {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Reads the per-workload end-to-end samples out of an assembled result
/// file's text.
pub fn parse_result(text: &str) -> Result<Vec<WorkloadSamples>, String> {
    let v = Json::parse(text)?;
    if v.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} file"));
    }
    let workloads = v
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing 'workloads'")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?
            .to_string();
        let u = w
            .get("untraced")
            .ok_or_else(|| format!("{name}: no untraced pass"))?;
        let floats = |key: &str| -> Result<Vec<f64>, String> {
            let field = u
                .get(key)
                .ok_or_else(|| format!("{name}: missing '{key}'"))?;
            match field {
                Json::Num(n) => Ok(vec![*n]),
                Json::Arr(items) => items
                    .iter()
                    .map(|i| i.as_f64().ok_or_else(|| format!("{name}: bad '{key}'")))
                    .collect(),
                _ => Err(format!("{name}: bad '{key}'")),
            }
        };
        let samples = END_TO_END
            .iter()
            .map(|d| {
                floats(match d.name {
                    "setup_s" => "setup_rounds_s",
                    "wall_s" => "walls_s",
                    "rt_factor" => "rt_factors",
                    other => other,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let count = |key: &str| {
            u.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing '{key}'"))
        };
        out.push(WorkloadSamples {
            attempted: count("attempted")?,
            failed: count("failed")?,
            semantic_digest: u
                .get("semantic_digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            name,
            samples,
        });
    }
    Ok(out)
}

/// How one (workload, metric) row of a comparison reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A side's own quartile spread exceeds the bound: the runs cannot say.
    Unresolved,
    /// B's median is better than A's by more than the bound (one pair of
    /// result files is not a claim — see the README on claiming a gain).
    Improved,
    /// Within the bound either way.
    Unchanged,
}

impl Verdict {
    /// The word printed in the comparison table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Improved => "better",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// Judges B against A for one end-to-end metric (all of them improve
/// downwards). `worse` is the relative change of the median; positive
/// means B is worse.
pub fn judge(def: &MetricDef, a: &Quartiles, b: &Quartiles) -> (f64, Verdict) {
    let bound = def.bound.expect("compared metrics have bounds");
    let worse = if a.median == 0.0 {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let verdict = if worse > bound {
        Verdict::Regressed
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// The outcome of comparing two result files.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The printable table and notes.
    pub text: String,
    /// Rows that regressed, plus workloads whose `failed_share` rose or
    /// that B does not have.
    pub regressions: usize,
    /// Rows whose spread exceeds their bound.
    pub unresolved: usize,
}

/// Compares result file B against baseline A: one row per (workload,
/// end-to-end metric) with both medians, quartiles, the change and the
/// metric's bound.
pub fn compare(a: &[WorkloadSamples], b: &[WorkloadSamples]) -> Comparison {
    let mut text = String::new();
    let (mut regressions, mut unresolved) = (0usize, 0usize);
    let _ = writeln!(
        text,
        "{:<18} {:<12} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "change",
        "bound"
    );
    for wa in a {
        let Some(wb) = b.iter().find(|w| w.name == wa.name) else {
            // A subset run must not pass the gate with workloads unjudged.
            regressions += 1;
            let _ = writeln!(text, "{:<18} REGRESSED (missing from B)", wa.name);
            continue;
        };
        for (i, def) in END_TO_END.iter().enumerate() {
            let (qa, qb) = (Quartiles::of(&wa.samples[i]), Quartiles::of(&wb.samples[i]));
            let (worse, verdict) = judge(def, &qa, &qb);
            match verdict {
                Verdict::Regressed => regressions += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            let quart = |q: &Quartiles| format!("[{:.4}, {:.4}] {}", q.q1, q.q3, q.n);
            let _ = writeln!(
                text,
                "{:<18} {:<12} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}",
                wa.name,
                def.name,
                qa.median,
                quart(&qa),
                qb.median,
                quart(&qb),
                worse * 100.0,
                def.bound.unwrap_or(0.0) * 100.0,
                verdict.word()
            );
        }
        if wb.failed_share() > wa.failed_share() {
            regressions += 1;
            let _ = writeln!(
                text,
                "{:<18} {:<12} {:>12.6} {:>25} {:>12.6} {:>25} {:>8} {:>6}  REGRESSED (any increase)",
                wa.name,
                "failed_share",
                wa.failed_share(),
                format!("{}/{}", wa.failed, wa.attempted),
                wb.failed_share(),
                format!("{}/{}", wb.failed, wb.attempted),
                "",
                ""
            );
        }
        if wa.semantic_digest != wb.semantic_digest {
            let _ = writeln!(
                text,
                "note: {} semantic_digest changed: {} -> {} (outputs differ between A and B)",
                wa.name, wa.semantic_digest, wb.semantic_digest
            );
        }
    }
    for wb in b {
        if !a.iter().any(|w| w.name == wb.name) {
            let _ = writeln!(text, "note: {} is missing from A", wb.name);
        }
    }
    let _ = writeln!(
        text,
        "{regressions} regressed, {unresolved} unresolved (change is signed so that + means worse)"
    );
    Comparison {
        text,
        regressions,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall_def() -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == "wall_s").unwrap()
    }

    fn tight(center: f64) -> Quartiles {
        Quartiles::of(&[center * 0.99, center, center * 1.01, center, center])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let def = wall_def();
        assert_eq!(judge(def, &tight(1.0), &tight(1.05)).1, Verdict::Unchanged);
        assert_eq!(judge(def, &tight(1.0), &tight(1.2)).1, Verdict::Regressed);
        assert_eq!(judge(def, &tight(1.0), &tight(0.8)).1, Verdict::Improved);
        let noisy = Quartiles::of(&[0.7, 1.0, 1.3, 0.8, 1.2]);
        assert_eq!(judge(def, &tight(1.0), &noisy).1, Verdict::Unresolved);
        assert_eq!(judge(def, &noisy, &tight(1.0)).1, Verdict::Unresolved);
        // A regression beyond the bound is reported even from noisy runs.
        assert_eq!(
            judge(def, &tight(1.0), &Quartiles::of(&[1.2, 1.5, 1.8])).1,
            Verdict::Regressed
        );
        // Every metric is judged alike, set-up too.
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!(judge(setup, &noisy, &tight(1.0)).1, Verdict::Unresolved);
    }

    fn file(wall: f64, failed: u64, digest: &str) -> String {
        format!(
            "{{\"schema\": \"{SCHEMA}\", \"workloads\": [{{\"name\": \"w\", \"untraced\": {{\
             \"attempted\": 10, \"failed\": {failed}, \"setup_rounds_s\": [0.5, 0.5, 0.5], \
             \"walls_s\": [{wall}, {wall}, {wall}], \"rt_factors\": [2.0, 2.0], \
             \"peak_rss_mb\": 60.5, \"semantic_digest\": \"{digest}\"}}}}]}}"
        )
    }

    #[test]
    fn compare_counts_regressions_failures_and_notes_digests() {
        let a = parse_result(&file(1.0, 0, "aa")).expect("A parses");
        assert_eq!(a[0].samples[3], vec![60.5]);
        let same = compare(&a, &a);
        assert_eq!((same.regressions, same.unresolved), (0, 0));
        assert!(!same.text.contains("semantic_digest changed"));

        let slower = parse_result(&file(1.5, 0, "bb")).expect("B parses");
        let c = compare(&a, &slower);
        assert_eq!(c.regressions, 1);
        assert!(c.text.contains("REGRESSED"));
        assert!(c.text.contains("semantic_digest changed: aa -> bb"));

        let failing = parse_result(&file(1.0, 1, "aa")).expect("B parses");
        let c = compare(&a, &failing);
        assert_eq!(c.regressions, 1);
        assert!(c.text.contains("failed_share"));

        // A workload B leaves out is a regression; one only B has is a note.
        let c = compare(&a, &[]);
        assert_eq!(c.regressions, 1);
        assert!(c.text.contains("missing from B"));
        let c = compare(&[], &a);
        assert_eq!(c.regressions, 0);
        assert!(c.text.contains("missing from A"));
    }

    #[test]
    fn parse_rejects_foreign_files() {
        assert!(parse_result("{\"schema\": \"other\"}").is_err());
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 20, 0, &[(wall_def(), 0.50351234)]);
        let v = Json::parse(&line).expect("line parses");
        let Json::Obj(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.50351234));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
