//! Text rendering of figures and tables — what the `figures` binary prints.
//!
//! The ASCII output mirrors the paper's artefacts: horizontal bars for the
//! Figure 2/3 comparisons, a monotone staircase for the Figure 1 CDF and
//! plain tables for the §6.3 numbers.

use crate::failure::{FailureReport, Protocol};
use crate::partial_exp::PartialReport;
use crate::phi_exp::PhiExperimentReport;
use std::fmt::Write as _;

/// Horizontal ASCII bar chart. Values are scaled to `width` columns.
pub fn ascii_bars(title: &str, rows: &[(String, f64)], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let max = rows.iter().map(|(_, v)| *v).fold(0.0_f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, v) in rows {
        let bar = if max > 0.0 {
            ((v / max) * width as f64).round() as usize
        } else {
            0
        };
        let _ = writeln!(
            out,
            "  {label:<label_w$} | {:<width$} {v:.1}",
            "#".repeat(bar)
        );
    }
    out
}

/// Monotone CDF staircase on a `width` × `height` character grid; the
/// x-axis is the fraction of destinations, the y-axis Φ, matching the
/// paper's Figure 1 orientation.
pub fn ascii_cdf(title: &str, sorted_values: &[f64], width: usize, height: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if sorted_values.is_empty() {
        let _ = writeln!(out, "  (no data)");
        return out;
    }
    let n = sorted_values.len();
    // grid[y][x]: y = 0 top (Φ = 1), y = height-1 bottom (Φ = 0).
    let mut grid = vec![vec![' '; width]; height];
    let star_rows: Vec<usize> = (0..width)
        .map(|x| {
            let frac = (x as f64 + 0.5) / width as f64;
            let idx = ((frac * n as f64) as usize).min(n - 1);
            let phi = sorted_values[idx].clamp(0.0, 1.0);
            ((1.0 - phi) * (height - 1) as f64).round() as usize
        })
        .collect();
    for (x, &y) in star_rows.iter().enumerate() {
        grid[y][x] = '*';
    }
    for (y, row) in grid.iter().enumerate() {
        let phi_label = 1.0 - y as f64 / (height - 1) as f64;
        let _ = writeln!(out, " {phi_label:>4.2} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "      +{}", "-".repeat(width));
    let _ = writeln!(
        out,
        "       0%{}100%  (destinations, sorted by increasing Phi)",
        " ".repeat(width.saturating_sub(9))
    );
    out
}

/// Fixed-width table.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut line = String::from("  ");
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:<w$}  ");
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(
        out,
        "  {}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        let mut line = String::from("  ");
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:<w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Render a Figure 2/3 report: the bar chart plus the §6.3 side metrics.
pub fn render_failure_report(r: &FailureReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} — {} ASes, {} instances ==\n",
        r.scenario.label(),
        r.n_ases,
        r.instances
    );
    // Headline bars: the control-plane metric (ASes that adopted a
    // selection invalidated by the event or emptied their table during
    // convergence). This is the metric that reproduces the paper's bar
    // orderings across Figures 2, 3(a) and 3(b) — see EXPERIMENTS.md for
    // the metric discussion; the forwarding metric appears in the table.
    let bars: Vec<(String, f64)> = r
        .results
        .iter()
        .map(|(p, res)| (p.label().to_string(), res.control_affected_mean()))
        .collect();
    out.push_str(&ascii_bars(
        "Number of ASes with transient problems (mean, control plane):",
        &bars,
        48,
    ));
    out.push('\n');
    let dp_bars: Vec<(String, f64)> = r
        .results
        .iter()
        .map(|(p, res)| (p.label().to_string(), res.affected_mean()))
        .collect();
    out.push_str(&ascii_bars(
        "Companion: ASes whose packets looped/blackholed (data plane):",
        &dp_bars,
        48,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = r
        .results
        .iter()
        .map(|(p, res)| {
            vec![
                p.label().to_string(),
                format!("{:.1}", res.affected_mean()),
                format!("{:.1}", res.loops_mean()),
                format!("{:.1}", res.blackholes_mean()),
                format!("{:.1}", res.control_affected_mean()),
                format!("{:.0}", res.updates_initial_mean()),
                format!("{:.0}", res.updates_failure_mean()),
                format!("{:.1}", res.convergence_mean_s()),
                format!("{:.1}", res.data_recovery_mean_s()),
            ]
        })
        .collect();
    out.push_str(&table(
        "Per-protocol metrics (Sec. 6.3 companions):",
        &[
            "protocol",
            "affected",
            "loops",
            "blackholes",
            "ctrl-affected",
            "updates (initial)",
            "updates (failure)",
            "convergence s",
            "recovery s",
        ],
        &rows,
    ));

    // The §6.3 overhead ratio, when both ends are present.
    let bgp = r.results.iter().find(|(p, _)| *p == Protocol::Bgp);
    let stamp = r.results.iter().find(|(p, _)| *p == Protocol::Stamp);
    if let (Some((_, b)), Some((_, s))) = (bgp, stamp) {
        if b.updates_initial_mean() > 0.0 {
            let _ = writeln!(
                out,
                "\nSTAMP/BGP update ratio: initial {:.2}x, failure {:.2}x \
                 (paper: < 2x with two processes)",
                s.updates_initial_mean() / b.updates_initial_mean(),
                if b.updates_failure_mean() > 0.0 {
                    s.updates_failure_mean() / b.updates_failure_mean()
                } else {
                    0.0
                }
            );
        }
    }
    out
}

/// Render the Figure 1 report.
pub fn render_phi_report(r: &PhiExperimentReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Phi CDF (Figure 1) — {} ASes ==\n", r.n_ases);
    out.push_str(&ascii_cdf(
        "CDF of Phi_k (random locked blue provider):",
        &r.random.sorted(),
        60,
        11,
    ));
    let (low, high, mean) = r.paper_checkpoints();
    let _ = writeln!(
        out,
        "\n  destinations with Phi <= 0.7 : {:5.1}%   (paper: < 10%)",
        low * 100.0
    );
    let _ = writeln!(
        out,
        "  destinations with Phi > 0.9  : {:5.1}%   (paper: > 75%)",
        high * 100.0
    );
    let _ = writeln!(
        out,
        "  mean Phi                     : {mean:5.3}   (paper: 0.92)"
    );
    if let Some(smart) = &r.smart {
        let _ = writeln!(
            out,
            "  mean Phi, smart selection    : {:5.3}   (paper: 0.97)",
            smart.mean
        );
    }
    out
}

/// Render the §6.3 partial-deployment comparison.
pub fn render_partial_report(r: &PartialReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Partial deployment (Sec. 6.3) — {} ASes, {} destinations ==\n",
        r.n_ases, r.destinations_evaluated
    );
    let rows = vec![
        vec![
            "STAMP at tier-1 ASes only".to_string(),
            format!("{:.1}%", r.partial_fraction * 100.0),
            "~75%".to_string(),
        ],
        vec![
            "full deployment (mean Phi)".to_string(),
            format!("{:.1}%", r.full_mean_phi * 100.0),
            "~92%".to_string(),
        ],
    ];
    out.push_str(&table(
        "ASes with two downhill node-disjoint paths:",
        &["deployment", "measured", "paper"],
        &rows,
    ));
    out
}

/// Render the §6.3 message-overhead table: STAMP's two processes against
/// one BGP process (the report must hold both protocols).
pub fn render_overhead_report(r: &FailureReport) -> String {
    let bgp = r.of(Protocol::Bgp);
    let stamp = r.of(Protocol::Stamp);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Protocol message overhead (Sec. 6.3) — {} ASes, {} instances ==\n",
        r.n_ases, r.instances
    );
    let rows = vec![
        vec![
            "BGP".into(),
            format!("{:.0}", bgp.updates_initial_mean()),
            format!("{:.0}", bgp.updates_failure_mean()),
            "1.00x".into(),
        ],
        vec![
            "STAMP (two processes)".into(),
            format!("{:.0}", stamp.updates_initial_mean()),
            format!("{:.0}", stamp.updates_failure_mean()),
            format!(
                "{:.2}x",
                stamp.updates_initial_mean() / bgp.updates_initial_mean().max(1.0)
            ),
        ],
    ];
    out.push_str(&table(
        "Updates sent (paper: STAMP < 2x BGP with two parallel processes):",
        &[
            "protocol",
            "initial convergence",
            "failure phase",
            "initial ratio",
        ],
        &rows,
    ));
    out
}

/// Render the §6.3 convergence-delay table: control-plane convergence and
/// data-plane recovery per protocol.
pub fn render_convergence_report(r: &FailureReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Convergence delay after a single link failure (Sec. 6.3) — {} ASes, {} instances ==\n",
        r.n_ases, r.instances
    );
    let rows: Vec<Vec<String>> = r
        .results
        .iter()
        .map(|(p, res)| {
            vec![
                p.label().to_string(),
                format!("{:.1}", res.convergence_mean_s()),
                format!("{:.1}", res.data_recovery_mean_s()),
            ]
        })
        .collect();
    out.push_str(&table(
        "Convergence (control plane) and data-plane recovery, seconds \
         after the event (paper: STAMP responds faster than BGP):",
        &["protocol", "convergence s", "data-plane recovery s"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_width() {
        let s = ascii_bars("t", &[("a".into(), 10.0), ("bb".into(), 5.0)], 20);
        assert!(s.contains("####################"), "{s}");
        assert!(s.contains("##########"), "{s}");
        assert!(s.contains("10.0") && s.contains("5.0"));
    }

    #[test]
    fn bars_handle_all_zero() {
        let s = ascii_bars("t", &[("a".into(), 0.0)], 20);
        assert!(s.contains("a"));
    }

    #[test]
    fn cdf_is_well_formed() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let s = ascii_cdf("t", &vals, 40, 11);
        assert_eq!(s.lines().count(), 14); // title + 11 rows + axis + label
        assert!(s.contains('*'));
        let empty = ascii_cdf("t", &[], 40, 5);
        assert!(empty.contains("no data"));
    }

    #[test]
    fn table_aligns_columns() {
        let s = table(
            "t",
            &["col", "x"],
            &[
                vec!["aaa".into(), "1".into()],
                vec!["b".into(), "22".into()],
            ],
        );
        assert!(s.contains("col"));
        assert!(s.contains("---"));
    }
}
