//! Result files: what a run writes, what `compare` reads, and the machine
//! fingerprint that says whether two files may be compared at all.

use crate::json::Json;
use crate::schema::{EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};

/// One reported metric: the value (a median where several samples exist)
/// and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// Median of `samples`.
    pub fn of_samples(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            value: median(&samples),
            samples,
        }
    }

    /// A single measured or computed value.
    pub fn single(name: &str, unit: &str, value: f64) -> Self {
        Self::of_samples(name, unit, vec![value])
    }
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    pub trace: bool,
    /// End-to-end repetitions made.
    pub reps: usize,
    /// Operations attempted (solves; `serve8`: tickets) and failed.
    pub attempted: usize,
    pub failed: usize,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The metrics the harness asked for: end-to-end, or per-layer.
    pub metrics: Vec<Metric>,
    /// Work the executor reported (`solves`, `msgs`, `flops`; median over
    /// repetitions) — kept beside the end-to-end metrics so two runs can be
    /// compared by count as well as by clock. Not part of the harness line.
    pub counters: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The line the harness reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (name → value and unit).
    pub fn harness_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let body =
                                [("value", Json::Num(m.value)), ("unit", Json::str(&*m.unit))];
                            (m.name.clone(), Json::obj(body))
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }

    /// Human-readable report: every metric by name with its unit, and the
    /// spread and sample count where there is more than one sample.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.counters) {
            let spread = if m.samples.len() > 1 {
                let (q1, q3) = quartiles(&m.samples);
                format!("  [q1 {q1:.6} q3 {q3:.6} n={}]", m.samples.len())
            } else {
                String::new()
            };
            println!(
                "{:<12} {:<42} {:>16.6} {}{spread}",
                self.workload, m.name, m.value, m.unit
            );
        }
        println!(
            "{:<12} {:<42} {:>16.6} ratio  [{} failed of {} attempted, {} reps]",
            self.workload,
            "fail_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.reps
        );
        for f in &self.failures {
            println!("{:<12} FAILED: {f}", self.workload);
        }
    }

    pub fn to_json(&self) -> Json {
        let list = |ms: &[Metric]| {
            Json::Arr(
                ms.iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(&*m.name)),
                            ("unit", Json::str(&*m.unit)),
                            ("value", Json::Num(m.value)),
                            ("samples", Json::nums(&m.samples)),
                        ])
                    })
                    .collect(),
            )
        };
        Json::obj([
            ("workload", Json::str(&*self.workload)),
            ("trace", Json::Bool(self.trace)),
            ("reps", Json::Num(self.reps as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("metrics", list(&self.metrics)),
            ("counters", list(&self.counters)),
        ])
    }

    /// # Errors
    /// Names the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let need = |k: &str| j.get(k).ok_or_else(|| format!("result: missing {k}"));
        let num = |k: &str| {
            need(k)?
                .as_f64()
                .ok_or_else(|| format!("result: {k} is not a number"))
        };
        let list = |k: &str| -> Result<Vec<Metric>, String> {
            need(k)?
                .as_arr()
                .ok_or_else(|| format!("result: {k} is not an array"))?
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                    Some(Metric {
                        name: text("name")?,
                        unit: text("unit")?,
                        // A non-finite value was written as null.
                        value: m.get("value")?.as_f64().unwrap_or(f64::NAN),
                        samples: m
                            .get("samples")?
                            .as_arr()?
                            .iter()
                            .filter_map(Json::as_f64)
                            .collect(),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| format!("result: malformed entry in {k}"))
        };
        Ok(Self {
            workload: need("workload")?
                .as_str()
                .ok_or("result: workload is not a string")?
                .into(),
            trace: need("trace")? == &Json::Bool(true),
            reps: num("reps")? as usize,
            attempted: num("attempted")? as usize,
            failed: num("failed")? as usize,
            failures: need("failures")?
                .as_arr()
                .ok_or("result: failures is not an array")?
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics: list("metrics")?,
            counters: list("counters")?,
        })
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers were taken: core count, CPU model, the target features
/// the benchmark (and the library in it) was compiled for, and the
/// compiler. Two result files are comparable only when these agree.
pub fn machine() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let features = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let enabled: Vec<&str> = features.iter().filter(|f| f.1).map(|f| f.0).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu_model)),
        (
            "target_features",
            Json::str(format!("{}: {}", std::env::consts::ARCH, enabled.join(","))),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
    ])
}

/// `git rev-parse HEAD` of the checkout the benchmark was built in, or
/// `unknown` outside a git repository.
pub fn git_sha() -> String {
    command_line(
        "git",
        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
    )
    .unwrap_or_else(|| "unknown".into())
}

/// A complete result file: the machine, the run's settings, and one result
/// per workload.
pub fn file_json(seed: u64, seconds: f64, quick: bool, results: &[WorkloadResult]) -> Json {
    Json::obj([
        ("machine", machine()),
        ("git_sha", Json::str(git_sha())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        (
            "results",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ])
}

/// Read a result file back: its machine block and its workload results.
///
/// # Errors
/// I/O, JSON or schema problems, naming the file.
pub fn read_file(path: &str) -> Result<(Json, Vec<WorkloadResult>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let machine = doc
        .get("machine")
        .cloned()
        .ok_or_else(|| format!("{path}: no machine block"))?;
    let results = doc
        .get("results")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no results"))?
        .iter()
        .map(WorkloadResult::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))?;
    Ok((machine, results))
}

/// Outcome of comparing one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regress,
    /// Within the bound, but a side's own inter-quartile spread is wider
    /// than the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regress => "regress",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `base` for one lower-is-better metric.
pub fn judge(spec: &EndToEnd, base: &Metric, new: &Metric) -> Verdict {
    if new.value > base.value * (1.0 + spec.bound) + spec.slack {
        return Verdict::Regress;
    }
    let wide = iqr_share(&base.samples) > spec.bound || iqr_share(&new.samples) > spec.bound;
    // A wide spread still resolves when every new run beats every base run.
    let all_better = new
        .samples
        .iter()
        .all(|n| base.samples.iter().all(|b| n < b));
    if wide && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compare two result files row by row and print the table. Returns the
/// number of `regress` rows.
///
/// # Errors
/// Unreadable files, or files taken on different machines.
pub fn compare(base_path: &str, new_path: &str) -> Result<usize, String> {
    let (base_machine, base) = read_file(base_path)?;
    let (new_machine, new) = read_file(new_path)?;
    if base_machine != new_machine {
        return Err(format!(
            "refusing to compare: machine blocks differ\n  {base_path}: {}\n  {new_path}: {}",
            base_machine.compact(),
            new_machine.compact()
        ));
    }
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    let mut regressions = 0;
    for b in &base {
        let Some(n) = new.iter().find(|n| n.workload == b.workload) else {
            println!("{:<12} missing from {new_path}", b.workload);
            regressions += 1;
            continue;
        };
        for spec in &END_TO_END {
            let (Some(bm), Some(nm)) = (b.metric(spec.name), n.metric(spec.name)) else {
                continue;
            };
            let verdict = judge(spec, bm, nm);
            regressions += usize::from(verdict == Verdict::Regress);
            println!(
                "{:<12} {:<12} {:>12.6} {:>12.6} {:>8.4}  {}",
                b.workload,
                spec.name,
                bm.value,
                nm.value,
                nm.value / bm.value,
                verdict.name()
            );
        }
        // fail_share: any increase is a regression.
        let share = |r: &WorkloadResult| r.failed as f64 / r.attempted.max(1) as f64;
        let worse = share(n) > share(b);
        regressions += usize::from(worse);
        println!(
            "{:<12} {:<12} {:>12.6} {:>12.6} {:>8}  {}",
            b.workload,
            "fail_share",
            share(b),
            share(n),
            "-",
            if worse { "regress" } else { "ok" }
        );
        // Work counters: informational, except that comm2d_uds2 repeats
        // them bit for bit on the same seed.
        for (m, nm) in b.counters.iter().zip(&n.counters) {
            let same = if nm.value == m.value {
                "same"
            } else {
                "differs"
            };
            println!(
                "{:<12} {:<12} {:>12} {:>12} {:>8.4}  {same}",
                b.workload,
                m.name,
                m.value,
                nm.value,
                nm.value / m.value
            );
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> WorkloadResult {
        WorkloadResult {
            workload: "comm2d".into(),
            trace: false,
            reps: 3,
            attempted: 3,
            failed: 1,
            failures: vec!["rep 2: converged=false".into()],
            metrics: vec![
                Metric::of_samples("solve_s", "s", vec![2.9, 2.7, 2.8]),
                Metric::single("peak_rss_mb", "MB", 61.25),
            ],
            counters: vec![Metric::of_samples("msgs", "count", vec![7.0, 9.0, 8.0])],
        }
    }

    #[test]
    fn a_result_survives_the_file_format() {
        let r = result();
        let back = WorkloadResult::from_json(&Json::parse(&r.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.metric("solve_s").unwrap().value, 2.8);
    }

    #[test]
    fn the_harness_line_has_exactly_the_contract_keys() {
        let line = Json::parse(&result().harness_line()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert!(line.get("metrics").unwrap().get("msgs").is_none());
        let m = line.get("metrics").unwrap().get("solve_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(2.8));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn verdicts_follow_bound_slack_and_spread() {
        let spec = EndToEnd {
            name: "solve_s",
            unit: "s",
            bound: 0.10,
            slack: 0.0,
        };
        let m = |samples: &[f64]| Metric::of_samples("solve_s", "s", samples.to_vec());
        let base = m(&[1.00, 1.01, 0.99, 1.0, 1.0]);
        assert_eq!(
            judge(&spec, &base, &m(&[1.05, 1.06, 1.04, 1.05, 1.05])),
            Verdict::Ok
        );
        assert_eq!(judge(&spec, &base, &m(&[1.2, 1.2, 1.2])), Verdict::Regress);
        // Within the bound on medians, but the new side is too noisy to say.
        assert_eq!(
            judge(&spec, &base, &m(&[0.8, 1.05, 1.3, 0.9, 1.2])),
            Verdict::Unresolved
        );
        // Noisy, yet every new run beats every base run.
        assert_eq!(
            judge(&spec, &base, &m(&[0.5, 0.7, 0.9, 0.6, 0.8])),
            Verdict::Ok
        );
        // Absolute slack forgives a large ratio on a tiny time.
        let tiny = EndToEnd {
            slack: 0.010,
            ..spec
        };
        assert_eq!(judge(&tiny, &m(&[0.050]), &m(&[0.058])), Verdict::Ok);
        assert_eq!(judge(&spec, &m(&[0.050]), &m(&[0.058])), Verdict::Regress);
    }
}
