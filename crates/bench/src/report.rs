//! The one report writer of the gate benches.
//!
//! A gate binary builds one [`Report`]: ordered [`Case`]s of named
//! values, one gate per floor and a single `pass`. A case's list prints
//! its Markdown table row and becomes its JSON object, so each field is
//! named once. Every report has the same schema:
//!
//! ```json
//! {"version": 3, "bench": "…", "created_unix": …,
//!  "host": {"threads": …, "cpus": …, "isa": "…"},
//!  "cases": [{…, "pass": true}],
//!  "gates": [{"metric": "…", "threshold": …, "measured": …, "pass": true}],
//!  "pass": true}
//! ```
//!
//! `pass` holds when every case and every gate passes, and it is the only
//! input to the binary's exit status.

use std::process::ExitCode;

use t2c_obs::report::{json_num, json_str};

use crate::Paired;

/// Schema version of every gate report.
pub const VERSION: u32 = 3;

/// One named value of a [`Case`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, size or time in ns.
    Int(u64),
    /// A ratio or rate; non-finite values are written as `null`.
    Num(f64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Num(v) => json_num(*v),
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => json_str(v),
        }
    }

    fn cell(&self) -> String {
        match self {
            Value::Num(v) => format!("{v:.3}"),
            Value::Str(v) => v.clone(),
            other => other.json(),
        }
    }
}

/// One measured configuration: an ordered list of named values and the
/// case's own verdict.
#[derive(Debug, Clone)]
pub struct Case {
    fields: Vec<(&'static str, Value)>,
    pass: bool,
}

impl Default for Case {
    fn default() -> Self {
        Case::new()
    }
}

impl Case {
    /// An empty, passing case.
    pub fn new() -> Self {
        Case { fields: Vec::new(), pass: true }
    }

    /// Appends the value `name`.
    #[must_use]
    pub fn with(mut self, name: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((name, value.into()));
        self
    }

    /// Appends a [`paired_median`](crate::paired_median) measurement: the
    /// two median times under the given names, then `speedup` and the
    /// p10 and p90 of the per-pair ratios.
    #[must_use]
    pub fn paired(self, baseline: &'static str, candidate: &'static str, p: &Paired) -> Self {
        self.with(baseline, p.baseline_ns)
            .with(candidate, p.candidate_ns)
            .with("speedup", p.speedup)
            .with("speedup_p10", p.p10)
            .with("speedup_p90", p.p90)
    }

    /// Fails the case unless `ok` holds.
    #[must_use]
    pub fn pass(mut self, ok: bool) -> Self {
        self.pass &= ok;
        self
    }

    fn names(&self) -> Vec<&'static str> {
        self.fields.iter().map(|(name, _)| *name).chain(["pass"]).collect()
    }

    fn json(&self) -> String {
        let members: Vec<String> = self
            .fields
            .iter()
            .map(|(name, v)| format!("{}: {}", json_str(name), v.json()))
            .chain([format!("\"pass\": {}", self.pass)])
            .collect();
        format!("{{{}}}", members.join(", "))
    }
}

/// A gate bench's report; see the module docs for its schema.
#[derive(Debug)]
pub struct Report {
    bench: &'static str,
    created_unix: u64,
    threads: usize,
    cpus: usize,
    isa: String,
    cases: Vec<Case>,
    gates: Vec<Case>,
}

impl Report {
    /// Starts the report of `bench`, recording the host as the calling
    /// thread sees it: its kernel thread count, the available
    /// parallelism and the kernel ISA.
    pub fn new(bench: &'static str) -> Self {
        Report {
            bench,
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            threads: t2c_tensor::num_threads(),
            cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            isa: t2c_tensor::isa().to_string(),
            cases: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Records `case` and prints its table row, preceded by a header
    /// whenever its names differ from the previous case's.
    pub fn case(&mut self, case: Case) {
        let names = case.names();
        if self.cases.last().map(Case::names) != Some(names.clone()) {
            println!();
            crate::row(&names.iter().map(ToString::to_string).collect::<Vec<_>>());
            crate::row(&vec!["---".to_owned(); names.len()]);
        }
        let mut cells: Vec<String> = case.fields.iter().map(|(_, v)| v.cell()).collect();
        cells.push(case.pass.to_string());
        crate::row(&cells);
        self.cases.push(case);
    }

    /// Records and prints the floor `measured >= threshold` on `metric`.
    pub fn gate(&mut self, metric: &str, threshold: f64, measured: f64) {
        let pass = measured >= threshold;
        println!(
            "gate {metric}: {measured:.3} (floor {threshold}) — {}",
            if pass { "pass" } else { "FAIL" }
        );
        self.gates.push(
            Case::new()
                .with("metric", metric)
                .with("threshold", threshold)
                .with("measured", measured)
                .pass(pass),
        );
    }

    /// Whether every case and every gate passes.
    pub fn pass(&self) -> bool {
        self.cases.iter().all(|c| c.pass) && self.gates.iter().all(|g| g.pass)
    }

    /// The report as JSON.
    pub fn to_json(&self) -> String {
        let list = |cases: &[Case]| {
            cases.iter().map(|c| format!("    {}", c.json())).collect::<Vec<_>>().join(",\n")
        };
        format!(
            "{{\n  \"version\": {VERSION},\n  \"bench\": {},\n  \"created_unix\": {},\n  \
             \"host\": {{\"threads\": {}, \"cpus\": {}, \"isa\": {}}},\n  \
             \"cases\": [\n{}\n  ],\n  \"gates\": [\n{}\n  ],\n  \"pass\": {}\n}}\n",
            json_str(self.bench),
            self.created_unix,
            self.threads,
            self.cpus,
            json_str(&self.isa),
            list(&self.cases),
            list(&self.gates),
            self.pass()
        )
    }

    /// Prints the verdict, writes `bench_results/<bench>.json` under the
    /// working directory and returns the exit status `pass` calls for.
    ///
    /// # Panics
    ///
    /// Panics when the report cannot be written.
    pub fn finish(self) -> ExitCode {
        let pass = self.pass();
        std::fs::create_dir_all("bench_results").expect("create bench_results");
        let path = format!("bench_results/{}.json", self.bench);
        std::fs::write(&path, self.to_json()).expect("write the bench report");
        println!(
            "{} ({} thread(s), {}): {} — report {path}",
            self.bench,
            self.threads,
            self.isa,
            if pass { "pass" } else { "FAIL" }
        );
        if pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_the_shared_schema_and_null_for_non_finite() {
        let mut r = Report::new("unit");
        r.case(Case::new().with("model", "m\"1").with("ratio", f64::NAN).with("n", 3usize));
        r.gate("ratio", 1.0, f64::INFINITY);
        let json = r.to_json();
        for key in [
            "version",
            "bench",
            "created_unix",
            "host",
            "threads",
            "cpus",
            "isa",
            "cases",
            "gates",
            "metric",
            "threshold",
            "measured",
            "pass",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}: {json}");
        }
        assert!(json.contains(r#""model": "m\"1", "ratio": null, "n": 3, "pass": true"#), "{json}");
        assert!(json.contains(r#""measured": null"#), "{json}");
    }

    #[test]
    fn a_failed_gate_or_case_fails_the_report() {
        let mut r = Report::new("unit");
        r.case(Case::new().with("speedup", 2.0));
        r.gate("speedup", 1.5, 2.0);
        assert!(r.pass());
        r.gate("speedup", 2.5, 2.0);
        assert!(!r.pass());
        assert!(r.to_json().ends_with("  \"pass\": false\n}\n"));

        let mut r = Report::new("unit");
        r.case(Case::new().pass(true).pass(false).pass(true));
        r.gate("speedup", 1.0, 1.0);
        assert!(!r.pass());
    }
}
