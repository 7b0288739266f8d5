//! What one run measured, how a worker process hands it to its parent,
//! and the result line the benchmark prints.

use std::fmt::Write as _;

/// Metrics, check counts and the quality fingerprint of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
    /// Operations attempted (pipeline runs, requests, equality checks).
    pub attempted: u64,
    /// Operations that failed or did not pass their correctness check.
    pub failed: u64,
    /// Bit-level hash of a compress run's outcome (final state, ranks,
    /// accuracies, area ratios).
    pub fingerprint: Option<u64>,
    /// Human-readable facts (host, gate results) for the report.
    pub notes: Vec<String>,
}

impl Record {
    /// Appends a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push((name.into(), value, unit.to_string()));
    }

    /// Counts one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED check: {what}"));
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn checks(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes.push(format!("FAILED checks: {failed} of {attempted} {what}"));
        }
    }

    /// Adds another record's metrics, check counts and notes to this one.
    pub fn merge(&mut self, other: Record) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fingerprint = self.fingerprint.or(other.fingerprint);
        self.notes.extend(other.notes);
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// Succeeded operations over attempted ones.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Line protocol a worker prints on stdout for its parent.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric\t{name}\t{value:?}\t{unit}");
        }
        let _ = writeln!(out, "checks\t{}\t{}", self.attempted, self.failed);
        if let Some(fp) = self.fingerprint {
            let _ = writeln!(out, "fingerprint\t{fp:016x}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "note\t{}", note.replace(['\t', '\n'], " "));
        }
        out
    }

    /// Parses [`Record::to_lines`] output; other lines are ignored.
    pub fn from_lines(text: &str) -> Option<Record> {
        let mut rec = Record::default();
        let mut saw_checks = false;
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["metric", name, value, unit] => rec.metric(*name, value.parse().ok()?, unit),
                ["checks", a, b] => {
                    rec.attempted = a.parse().ok()?;
                    rec.failed = b.parse().ok()?;
                    saw_checks = true;
                }
                ["fingerprint", fp] => rec.fingerprint = Some(u64::from_str_radix(fp, 16).ok()?),
                ["note", text] => rec.notes.push(text.to_string()),
                _ => {}
            }
        }
        saw_checks.then_some(rec)
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// metrics as `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self, correct: bool) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if value.is_finite() { format!("{value:?}") } else { "null".into() };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a, used to fingerprint outcomes bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mixes the bits of an `f64`.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Mixes the bits of every `f32`.
    pub fn f32s(&mut self, v: &[f32]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_round_trips_exact_values() {
        let mut r = Record::default();
        r.metric("compress_s", 12.345678901234567, "s");
        r.metric("tiny", 1e-300, "ratio");
        r.check(true, "a");
        r.check(false, "b");
        r.fingerprint = Some(0xdead_beef);
        let back = Record::from_lines(&format!("noise\n{}", r.to_lines())).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.ok_frac(), 0.5);
        assert!(Record::from_lines("metric\tx\t1\ts\n").is_none(), "checks line is required");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Record::default();
        r.metric("latency_ms", 1.5, "ms");
        r.check(true, "op");
        assert_eq!(
            r.to_json(true),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn fnv_distinguishes_bit_patterns() {
        let (mut a, mut b) = (Fnv::default(), Fnv::default());
        a.f64(0.0);
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
