//! The reproduction harness (`repro`, one subcommand per figure and table
//! of the paper) and its shared plumbing: canonical setups for each paper
//! experiment, series decimation, and plain-text chart/table rendering.
//!
//! Despite the name this crate measures nothing for the record. [`perf`]
//! (`repro bench`) prints a scaling table and asserts only that its solves
//! converge; the deterministic numbers it prints are pinned exactly in
//! `tests/pinned_counters.rs`, allocation counts in `tests/alloc_free.rs` /
//! `tests/alloc_rounds.rs`, and wall-clock belongs to the repository
//! benchmark (`benchmark/`).

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod compare;
pub mod perf;
pub mod serve;

use dtm_core::impedance::ImpedancePolicy;
use dtm_core::runtime::CommonConfig;
use dtm_core::solver::{ComputeModel, DtmConfig, Termination};
use dtm_graph::evs::{split as evs_split, EvsOptions, SplitSystem, TwinTopology};
use dtm_graph::{partition, ElectricGraph, PartitionPlan};
use dtm_simnet::{DelayModel, SimDuration, Topology};
use dtm_sparse::{generators, Csr};
use std::collections::BTreeSet;

/// Seeds fixed once for the whole reproduction.
pub mod seeds {
    /// Fig. 11 delay table (16-processor mesh).
    pub const FIG11_DELAYS: u64 = 1108;
    /// Fig. 13 delay table (64-processor mesh).
    pub const FIG13_DELAYS: u64 = 1308;
    /// Random-conductance grid systems.
    pub const SYSTEM: u64 = 2008;
    /// Right-hand sides.
    pub const RHS: u64 = 2009;
}

/// The paper's Example 5.1 machine: two processors, τ(A→B) = 6.7 µs,
/// τ(B→A) = 2.9 µs (Fig. 7A).
pub fn example_5_1_topology() -> Topology {
    Topology::from_links(
        2,
        vec![
            dtm_simnet::Link {
                src: 0,
                dst: 1,
                delay: SimDuration::from_micros_f64(6.7),
            },
            dtm_simnet::Link {
                src: 1,
                dst: 0,
                delay: SimDuration::from_micros_f64(2.9),
            },
        ],
    )
}

/// The paper's Example 4.1/5.1 split of system (3.2).
pub fn example_5_1_split() -> SplitSystem {
    let (a, b) = generators::paper_example_system();
    let g = ElectricGraph::from_system(a, b).expect("paper system is symmetric");
    let plan = PartitionPlan::from_assignment(&g, &[0, 0, 1, 1]).expect("valid plan");
    let options = EvsOptions {
        explicit: dtm_graph::evs::paper_example_shares(),
        ..Default::default()
    };
    evs_split(&g, &plan, &options).expect("paper split is valid")
}

/// Fig. 11's machine: 16 processors in a 4×4 mesh, asymmetric delays in
/// [10, 99] ms (the figure shows only a bar chart; we regenerate a table
/// with the same min/max/spread from a fixed seed — see the README's
/// "Reproduction caveats").
pub fn fig11_topology() -> Topology {
    Topology::mesh(4, 4).with_delays(&DelayModel::uniform_ms(10.0, 99.0, seeds::FIG11_DELAYS))
}

/// Fig. 13's machine: 64 processors in an 8×8 mesh, delays uniform in
/// [10, 100] ms.
pub fn fig13_topology() -> Topology {
    Topology::mesh(8, 8).with_delays(&DelayModel::uniform_ms(10.0, 100.0, seeds::FIG13_DELAYS))
}

/// A paper-style random sparse SPD test system: `side × side` grid with
/// random conductances (n = side²; the paper's sizes are 17² = 289,
/// 33² = 1089, 65² = 4225).
pub fn paper_system(side: usize) -> (Csr, Vec<f64>) {
    let a = generators::grid2d_random(side, side, 1.0, seeds::SYSTEM);
    let b = generators::random_rhs(side * side, seeds::RHS);
    (a, b)
}

/// Tear a `side × side` grid system into `px × py` blocks with machine-
/// aligned DTLP trees (level-1 + level-2 mixed EVS, §7).
pub fn paper_split(side: usize, px: usize, py: usize, topo: &Topology) -> SplitSystem {
    let (a, b) = paper_system(side);
    let g = ElectricGraph::from_system(a, b).expect("generated system is symmetric");
    let asg = partition::grid_blocks(side, side, px, py);
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("regular plan");
    let pairs: BTreeSet<(usize, usize)> = topo
        .links()
        .iter()
        .map(|l| (l.src.min(l.dst), l.src.max(l.dst)))
        .collect();
    let options = EvsOptions {
        twin_topology: TwinTopology::TreeWithin(pairs),
        ..Default::default()
    };
    evs_split(&g, &plan, &options).expect("regular split is valid")
}

/// Which stopping rule the repro subcommands exercise: the paper's oracle
/// RMS (direct solve per RHS) or the production reference-free relative
/// residual (`repro … --termination residual`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TerminationMode {
    /// Oracle RMS against the direct solution (the paper's figures).
    #[default]
    Oracle,
    /// Reference-free relative true residual `‖b − A·x‖/‖b‖`.
    Residual,
}

impl TerminationMode {
    /// Parse a `--termination` argument value.
    pub fn parse(value: &str) -> Option<Self> {
        match value {
            "oracle" => Some(Self::Oracle),
            "residual" => Some(Self::Residual),
            _ => None,
        }
    }

    /// Resolve to a concrete [`Termination`] at tolerance `tol`.
    pub fn termination(self, tol: f64) -> Termination {
        match self {
            Self::Oracle => Termination::OracleRms { tol },
            Self::Residual => Termination::Residual { tol },
        }
    }
}

/// Format an optional metric for a table cell: `-` when the value is
/// absent (e.g. the oracle RMS of a reference-free run, where
/// `SolveReport::final_rms` is `NaN` by contract) instead of leaking
/// `NaN` into the output.
pub fn fmt_metric(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.2e}"),
        _ => "-".into(),
    }
}

/// The DTM configuration used for the mesh experiments: 1 ms local solves
/// (bounding the asynchronous event rate the way a real CPU does), oracle
/// monitoring.
pub fn mesh_config(tol: f64, horizon_ms: f64) -> DtmConfig {
    mesh_config_mode(tol, horizon_ms, TerminationMode::Oracle)
}

/// [`mesh_config`] with an explicit [`TerminationMode`] (the
/// `--termination` CLI knob).
pub fn mesh_config_mode(tol: f64, horizon_ms: f64, mode: TerminationMode) -> DtmConfig {
    DtmConfig {
        common: CommonConfig {
            impedance: ImpedancePolicy::default(),
            termination: mode.termination(tol),
            ..Default::default()
        },
        compute: ComputeModel::Fixed(SimDuration::from_millis_f64(1.0)),
        horizon: SimDuration::from_millis_f64(horizon_ms),
        sample_interval: SimDuration::from_millis_f64(5.0),
    }
}

/// Keep at most `max_points` series points, always retaining the last.
pub fn decimate(series: &[(f64, f64)], max_points: usize) -> Vec<(f64, f64)> {
    if series.len() <= max_points || max_points < 2 {
        return series.to_vec();
    }
    let stride = series.len().div_ceil(max_points - 1);
    let mut out: Vec<(f64, f64)> = series.iter().step_by(stride).copied().collect();
    let last = *series.last().expect("non-empty");
    if out.last() != Some(&last) {
        out.push(last);
    }
    out
}

/// Render a horizontal ASCII bar chart (the Fig. 11B / 13B bar charts).
pub fn ascii_bars(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().fold(0.0_f64, |m, &(_, v)| m.max(v)).max(1e-300);
    let mut out = String::new();
    for (label, v) in rows {
        let n = ((v / max) * width as f64).round() as usize;
        out.push_str(&format!("{label:>12} | {} {v:.0}\n", "#".repeat(n)));
    }
    out
}

/// Print a two-column convergence series with a caption.
pub fn print_series(caption: &str, unit: &str, series: &[(f64, f64)]) {
    println!("# {caption}");
    println!("{:>14}  {:>12}", format!("t [{unit}]"), "rms_error");
    for (t, e) in series {
        println!("{t:>14.4}  {e:>12.4e}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimate_keeps_endpoints() {
        let s: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0 / (i + 1) as f64)).collect();
        let d = decimate(&s, 10);
        assert!(d.len() <= 11);
        assert_eq!(d[0], s[0]);
        assert_eq!(*d.last().unwrap(), *s.last().unwrap());
    }

    #[test]
    fn fig11_topology_matches_paper_spread() {
        let t = fig11_topology();
        let (lo, hi) = t.delay_range();
        // "The maximum delay (99ms) is about 9 times larger than the
        // minimum delay (10ms)."
        assert!(lo.as_millis_f64() >= 10.0);
        assert!(hi.as_millis_f64() <= 99.0);
        assert!(hi.as_millis_f64() / lo.as_millis_f64() > 5.0);
        assert!(t.asymmetry() > 0.1, "delays must be asymmetric");
        assert_eq!(t.n_nodes(), 16);
    }

    #[test]
    fn paper_split_sizes() {
        let topo = fig11_topology();
        let ss = paper_split(17, 4, 4, &topo);
        assert_eq!(ss.n_parts(), 16);
        assert_eq!(ss.original_n, 289);
        // Multilevel (3-way) splits exist at the block cross points.
        assert!(ss.copy_count.iter().any(|&c| c >= 3));
    }

    #[test]
    fn example_split_is_the_paper_one() {
        let ss = example_5_1_split();
        assert_eq!(ss.dtlps.len(), 2);
        assert_eq!(ss.subdomains[0].matrix.get(0, 0), 2.5);
    }

    #[test]
    fn fmt_metric_renders_dash_for_missing_values() {
        assert_eq!(fmt_metric(Some(1.25e-7)), "1.25e-7");
        assert_eq!(fmt_metric(None), "-");
        assert_eq!(fmt_metric(Some(f64::NAN)), "-");
    }

    #[test]
    fn bars_render() {
        let s = ascii_bars(&[("a".into(), 10.0), ("b".into(), 5.0)], 20);
        assert!(s.contains("####################"));
        assert!(s.contains("##########"));
    }
}
