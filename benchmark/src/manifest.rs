//! `BENCHMARK.json`: the contract the benchmark is written to. The
//! harness reads its own metric and workload names from it, so what is
//! declared and what is emitted cannot drift apart unnoticed.

use std::path::Path;

use serde::Deserialize;

#[derive(Debug, Clone, Deserialize)]
pub struct Workload {
    pub name: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub bound: f64,
}

#[derive(Debug, Clone, Deserialize)]
pub struct PerLayer {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct Manifest {
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

impl Manifest {
    pub fn load(root: &Path) -> Result<Manifest, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let manifest: Manifest =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// The limits of the contract that concern names and bounds.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let names = self
            .workloads
            .iter()
            .map(|w| &w.name)
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                return Err(format!("bad name {name:?}"));
            }
            if !seen.insert(name.as_str()) {
                return Err(format!("name {name:?} is used twice"));
            }
        }
        for m in &self.end_to_end {
            if !(m.bound > 0.0 && m.bound <= 0.25) {
                return Err(format!("{}: bound {} outside (0, 0.25]", m.name, m.bound));
            }
        }
        let directions = self
            .end_to_end
            .iter()
            .map(|m| (&m.name, &m.better))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.better)));
        for (name, better) in directions {
            if better != "lower" && better != "higher" {
                return Err(format!("{name}: better must be lower or higher, got {better:?}"));
            }
        }
        let setup = self.end_to_end.iter().find(|m| m.name == "setup_s");
        if !matches!(setup, Some(m) if m.unit == "s" && m.better == "lower") {
            return Err("end_to_end must hold setup_s in s, lower is better".into());
        }
        Ok(())
    }

    pub fn unit_of(&self, metric: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .map(|m| (&m.name, &m.unit))
            .chain(self.per_layer.iter().map(|m| (&m.name, &m.unit)))
            .find(|(name, _)| *name == metric)
            .map(|(_, unit)| unit.as_str())
    }
}

/// Starts with a letter or digit; at most 64 of letters, digits, `_`,
/// `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("net.journal.fsync_us"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
