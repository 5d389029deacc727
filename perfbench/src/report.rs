//! The benchmark's result: metrics by name with their units, the
//! attempted/failed counts and the verdict of the output checks. The last
//! line of standard output is this object as JSON; `parse` reads it back
//! (the compare mode and the round-trip self-test use it).

use crate::json::{num, quote, Json};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// A finished run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The single-line JSON form (keys: correct, attempted, failed,
    /// metrics).
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    num(m.value),
                    quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read a result line back.
    pub fn parse(line: &str) -> Result<Report, String> {
        let v = Json::parse(line)?;
        let keys: Vec<&str> = v
            .as_obj()
            .ok_or("result is not an object")?
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let count = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or(format!("{k} is not a whole number"))
        };
        let mut metrics = Vec::new();
        for (name, m) in v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("no metrics")?
        {
            metrics.push(Metric {
                name: name.clone(),
                value: m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: no numeric value"))?,
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .ok_or(format!("{name}: no unit"))?
                    .to_string(),
            });
        }
        Ok(Report {
            correct: v
                .get("correct")
                .and_then(Json::as_bool)
                .ok_or("correct is not a bool")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let r = Report {
            correct: true,
            attempted: 1000,
            failed: 2,
            metrics: vec![
                Metric {
                    name: "latency_ms_p50".into(),
                    value: 1.2034567891234,
                    unit: "ms".into(),
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.8127,
                    unit: "s".into(),
                },
                Metric {
                    name: "engine.replay_events.bgp".into(),
                    value: 123456.0,
                    unit: "count".into(),
                },
            ],
        };
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 2, "));
        let back = Report::parse(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn parse_rejects_other_shapes() {
        assert!(Report::parse("{\"correct\": true}").is_err());
        assert!(Report::parse(
            "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
    }
}
