//! The result line every run ends with, and reading it back.

use hgmatch_server::json::{self, Json};

use crate::layers::Values;
use crate::spec;

/// Unit of a metric by name, from the spec tables.
pub fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

/// The one-line JSON object a run prints last: `correct`, `attempted`,
/// `failed` and `metrics`, each value with all its digits.
pub fn result_line(attempted: u64, failed: u64, metrics: &Values) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, &(name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        line.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        ));
    }
    line.push_str("}}");
    line
}

/// A result line read back by the parent of a workload's process.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let doc = json::parse(line.as_bytes()).ok()?;
    let Json::Obj(metrics) = doc.get("metrics")? else {
        return None;
    };
    Some(Parsed {
        correct: doc.get("correct")?.as_bool()?,
        attempted: doc.get("attempted")?.as_u64()?,
        failed: doc.get("failed")?.as_u64()?,
        metrics: metrics
            .iter()
            .map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect::<Option<_>>()?,
    })
}
