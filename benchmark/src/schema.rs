//! The benchmark's contract in code: metric names, units, regression bounds
//! and run length. `BENCHMARK.json` at the repository root states the same
//! thing for the harness; a test below holds the two together.

/// Seconds one run measures (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 28;
/// Seed when none is given.
pub const DEFAULT_SEED: u64 = 2008;

/// An end-to-end metric: what a user of the solver sees. Lower is better
/// for every one of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// Absolute slack added to the bound (`setup_s` on `comm2d` is tens of
    /// milliseconds; a tenth of that is scheduler noise).
    pub slack: f64,
}

/// The end-to-end metrics, reported by every workload.
///
/// The bounds are as wide as the harness allows because the machine is
/// noisy, not the benchmark: ten runs on ten seeds spread (inter-quartile,
/// as a share of the median) by 7–9 % on `solve_s`/`e2e_s` and by up to
/// 11 % on `comm2d`'s `peak_rss_mb`, while `comm2d_uds2` — bit-identical
/// work every time — alone varies by ±8 % between repetitions. README.md
/// has the table.
///
/// The fifth end-to-end number, `fail_share` (failed ÷ attempted
/// operations), travels as the `attempted`/`failed` counts of every result:
/// it must be 0, which a ratio-bounded metric cannot express.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        slack: 0.010,
    },
    EndToEnd {
        name: "solve_s",
        unit: "s",
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "e2e_s",
        unit: "s",
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
        slack: 0.0,
    },
];

/// A per-layer metric of the traced run. A workload that never enters the
/// layer reports 0.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer metrics, layer by layer (layer = library module).
pub const PER_LAYER: [PerLayer; 48] = [
    lower("sparse.mm.read_s", "s"),
    lower("sparse.mm.bytes", "B"),
    lower("graph.partition.assign_s", "s"),
    lower("graph.partition.cut_edges", "count"),
    lower("graph.partition.boundary", "count"),
    lower("graph.partition.imbalance", "ratio"),
    lower("graph.evs.split_s", "s"),
    lower("graph.evs.ports", "count"),
    lower("sparse.cholesky.factor_s", "s"),
    lower("sparse.cholesky.nnz_l", "count"),
    lower("core.local.solve_us", "us"),
    lower("core.local.flops_per_solve", "flop"),
    higher("core.local.gflops", "GFLOP/s"),
    lower("core.local.bytes_per_solve", "B"),
    lower("core.runtime.step_us", "us"),
    lower("core.runtime.wave_us", "us"),
    lower("core.runtime.msgs_per_step", "count"),
    lower("core.monitor.update_us", "us"),
    lower("core.monitor.resync_us", "us"),
    lower("core.rayon_backend.solves", "count"),
    lower("core.rayon_backend.msgs", "count"),
    lower("core.rayon_backend.flops", "flop"),
    lower("core.rayon_backend.msgs_per_solve", "count"),
    higher("core.rayon_backend.solves_per_s", "1/s"),
    higher("core.rayon_backend.local_share", "ratio"),
    lower("core.rayon_backend.wave_share", "ratio"),
    lower("core.rayon_backend.other_share", "ratio"),
    lower("core.rayon_backend.over_tol_share", "ratio"),
    lower("core.rayon_backend.residual_over_tol_max", "ratio"),
    lower("core.threaded.solve_s", "s"),
    lower("core.threaded.solves", "count"),
    lower("core.threaded.msgs", "count"),
    lower("core.session.open_s", "s"),
    lower("core.session.ticket_p50_s", "s"),
    lower("core.session.ticket_p95_s", "s"),
    lower("core.session.ticket_tight_p50_s", "s"),
    lower("core.session.ticket_loose_p50_s", "s"),
    higher("core.session.rhs_per_s", "1/s"),
    lower("net.wire.encode_ns", "ns"),
    lower("net.wire.decode_ns", "ns"),
    lower("net.wire.frame_bytes", "B"),
    lower("net.round.rounds", "count"),
    lower("net.round.msgs", "count"),
    lower("net.round.round_us", "us"),
    lower("net.round.inproc_s", "s"),
    lower("net.runner.startup_s", "s"),
    lower("net.runner.socket_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    /// Names start with a letter or digit and use at most 64 letters,
    /// digits, `_`, `.` and `-`.
    fn valid_name(s: &str) -> bool {
        (1..=64).contains(&s.len())
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Units use at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_name_rule_accepts_and_rejects() {
        for ok in [
            "setup_s",
            "core.rayon_backend.msgs",
            "comm2d_uds2",
            "9-a.b_c",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "_x", "a b", "a/b", "ms%", "é", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("GFLOP/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("seventeen-letters"));
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` must say what this file says.
    #[test]
    fn benchmark_json_matches_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );
        let field = |v: &Json, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(
                (field(j, "name"), field(j, "why")),
                (w.name.into(), w.why.into())
            );
        }
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                (field(j, "name"), field(j, "unit")),
                (m.name.into(), m.unit.into())
            );
            assert_eq!(field(j, "better"), "lower");
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
            assert!(m.bound <= 0.25);
        }
        let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(
                (field(j, "name"), field(j, "unit")),
                (m.name.into(), m.unit.into())
            );
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field(j, "better"), better);
        }
    }
}
