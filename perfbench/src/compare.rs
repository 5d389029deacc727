//! Compare mode: two result sets (captured standard output of benchmark
//! runs — files, or directories of them), one verdict per workload and
//! metric. Bounds and directions come only from `BENCHMARK.json`.
//!
//! Verdicts, for a metric with bound `b` (a share of the base median):
//! - `unresolved` — either side's interquartile spread exceeds `b`, and
//!   the runs do not separate completely;
//! - `worse` — the new median is worse than the base median by more
//!   than `b`;
//! - `improved` — the new median is better by more than the base's own
//!   spread;
//! - `within bound` — otherwise.
//!
//! Per-layer metrics have no bound; their medians are printed as `info`.

use crate::json::Json;
use crate::report::Report;
use crate::stats::{median, quartiles, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// Results by `(workload, traced)`, in file order.
type Sets = BTreeMap<(String, bool), Vec<Report>>;

/// Read every result in `path` (a file or a directory of files). A result
/// line belongs to the provenance line printed before it.
pub fn load(path: &Path) -> Result<Sets, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for e in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = e.map_err(|e| e.to_string())?.path();
            if p.is_file() {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut sets = Sets::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        add_text(&text, &mut sets).map_err(|e| format!("{}: {e}", f.display()))?;
    }
    Ok(sets)
}

/// Add the results of one captured output to `sets`.
fn add_text(text: &str, sets: &mut Sets) -> Result<(), String> {
    let mut current: Option<(String, bool)> = None;
    for line in text.lines() {
        if line.starts_with("{\"provenance\":") {
            let v = Json::parse(line)?;
            let p = v.get("provenance").ok_or("provenance line without body")?;
            let w = p
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("no workload")?;
            let traced = p.get("trace").and_then(Json::as_f64) == Some(1.0);
            current = Some((w.to_string(), traced));
        } else if line.starts_with("{\"correct\":") {
            let key = current.take().ok_or("result without provenance")?;
            sets.entry(key).or_default().push(Report::parse(line)?);
        }
    }
    Ok(())
}

/// A metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_better: bool,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

pub fn declared(spec: &Json) -> Result<Vec<Declared>, String> {
    let mut out = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for m in spec.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            out.push(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                higher_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(out)
}

/// Median and quartiles of a sample (a single value is its own quartiles).
pub fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let m = median(xs);
    if xs.len() < 2 {
        return (m, m, m);
    }
    let (q1, q3) = quartiles(xs);
    (m, q1, q3)
}

/// The verdict for one metric with a bound.
pub fn verdict(base: &[f64], new: &[f64], higher_better: bool, bound: f64) -> &'static str {
    let (mb, _, _) = summary(base);
    let (mn, _, _) = summary(new);
    let sb = if base.len() < 2 { 0.0 } else { spread(base) };
    let sn = if new.len() < 2 { 0.0 } else { spread(new) };
    // Positive `worse_by` means the new side is worse.
    let worse_by = if higher_better {
        (mb - mn) / mb.abs()
    } else {
        (mn - mb) / mb.abs()
    };
    let better = |a: f64, b: f64| if higher_better { a > b } else { a < b };
    let separated_better = new.iter().all(|&n| base.iter().all(|&b| better(n, b)));
    let separated_worse = new.iter().all(|&n| base.iter().all(|&b| better(b, n)));
    if sb > bound || sn > bound {
        return if separated_better {
            "improved"
        } else if separated_worse && worse_by > bound {
            "worse"
        } else {
            "unresolved"
        };
    }
    if worse_by > bound {
        "worse"
    } else if -worse_by > sb && -worse_by > 0.0 {
        "improved"
    } else {
        "within bound"
    }
}

pub fn run(base: &Path, new: &Path) -> Result<(), String> {
    let spec = crate::read_spec(Path::new("BENCHMARK.json"))?;
    let metrics = declared(&spec)?;
    let (a, b) = (load(base)?, load(new)?);
    println!(
        "{:<16} {:<36} {:>34} {:>34}  verdict",
        "workload", "metric", "base median [q1, q3] (n)", "new median [q1, q3] (n)"
    );
    let mut worse = 0;
    for ((workload, traced), ra) in &a {
        let Some(rb) = b.get(&(workload.clone(), *traced)) else {
            println!("{workload:<16} (no results on the new side)");
            continue;
        };
        for m in &metrics {
            let values = |rs: &[Report]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metric(&m.name).map(|x| x.value))
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = match m.bound {
                Some(bound) => verdict(&va, &vb, m.higher_better, bound),
                None => "info",
            };
            if v == "worse" {
                worse += 1;
            }
            let fmt = |xs: &[f64]| {
                let (md, q1, q3) = summary(xs);
                format!("{md:.4} [{q1:.4}, {q3:.4}] ({})", xs.len())
            };
            println!(
                "{workload:<16} {:<36} {:>34} {:>34}  {v}",
                format!("{} ({})", m.name, m.unit),
                fmt(&va),
                fmt(&vb)
            );
        }
    }
    println!("{worse} metric(s) worse than their bound");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput (higher is better), bound 10 %.
        assert_eq!(
            verdict(&base, &[100.2, 99.8, 100.1], true, 0.1),
            "within bound"
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0], true, 0.1),
            "improved"
        );
        assert_eq!(verdict(&base, &[80.0, 81.0, 79.0], true, 0.1), "worse");
        // Latency (lower is better): the same numbers read the other way.
        assert_eq!(verdict(&base, &[80.0, 81.0, 79.0], false, 0.1), "improved");
        // A spread wider than the bound leaves the verdict open...
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&noisy, &[95.0, 105.0, 100.0], true, 0.1),
            "unresolved"
        );
        // ...unless every new run beats every base run.
        assert_eq!(
            verdict(&noisy, &[150.0, 160.0, 155.0], true, 0.1),
            "improved"
        );
    }

    #[test]
    fn loads_results_after_their_provenance() {
        let text = "# a note\n{\"provenance\": {\"workload\": \"campaign-warm\", \"trace\": 0}}\n\
             {\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let mut sets = Sets::new();
        add_text(text, &mut sets).unwrap();
        assert!(add_text("{\"correct\": true}\n", &mut Sets::new()).is_err());
        let rs = &sets[&("campaign-warm".to_string(), false)];
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].metric("setup_s").unwrap().value, 0.5);
    }
}
