//! Convergence monitoring over a block of K right-hand sides: oracle RMS
//! error and/or reference-free true residual, both incremental.
//!
//! The paper's convergence figures (8, 9, 12, 14) plot the error of the
//! evolving distributed state against the true solution `x* = A⁻¹b`. The
//! monitor maintains the *global* estimate (averaging every split vertex's
//! copies) incrementally — O(|part|·K) per activation, not O(n·K) — and
//! records a `(time, metric)` staircase series. With several right-hand
//! sides in flight the reported scalar is the **worst column's** value: a
//! batched solve is only done when its slowest column is done.
//!
//! Two metrics are supported, selected at construction:
//!
//! * **Oracle RMS** (the paper's figures): RMS error against precomputed
//!   direct solutions — requires one exact substitution per right-hand
//!   side, which no production deployment can pay.
//! * **Relative true residual** `‖b − A·x‖₂ / ‖b‖₂`
//!   ([`Monitor::new_residual`]): maintained incrementally from the same
//!   per-part updates — when an averaged estimate entry moves by δ, only
//!   the residual entries of A's column `g` change. The per-update cost is
//!   O(1) per changed entry: deltas are *aggregated* and the sparse row
//!   folds run batched at flush points (the residual is linear in the
//!   estimate, so aggregated folding is exact; staleness between flushes
//!   can only delay a stop, never trigger one early), with periodic exact
//!   resynchronization (like the RMS resync) bounding floating-point
//!   drift. No direct solve of the original system is ever performed.

use dtm_graph::evs::SplitSystem;
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::Csr;

/// Which incremental metric drives [`Monitor::update_part`]'s return value
/// and the recorded series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Primary {
    OracleRms,
    Residual,
}

/// Incremental oracle-error state: Σ(est − x*)² per column.
#[derive(Debug, Clone)]
struct OracleTracker {
    /// Reference solutions, column-major (`n·k`).
    reference: Vec<f64>,
    /// Running Σ (est − ref)², per column.
    sum_sq_err: Vec<f64>,
}

/// Incremental true-residual state: r = b − A·est and Σr² per column.
///
/// The fold is **deferred**: an estimate update only aggregates its delta
/// into `pending` (O(1) per entry — cheaper than the oracle fold), and the
/// actual sparse row folds run batched at flush points. Because the
/// residual is linear in the estimate, folding an aggregated delta once is
/// exactly equivalent to folding every step (to rounding), so deferral
/// loses no precision — only freshness, and staleness is safe: the cached
/// metric is only ever a previously *exact* value, so a stop decision can
/// fire late by at most one flush window, never early.
#[derive(Debug, Clone)]
struct ResidualTracker {
    /// The reconstructed original system.
    a: Csr,
    /// Right-hand sides, column-major (`n·k`).
    rhs: Vec<f64>,
    /// `‖b_c‖₂` per column (1 where b is zero, so the ratio stays defined).
    b_scale: Vec<f64>,
    /// Residual as of the last flush, column-major (`n·k`).
    resid: Vec<f64>,
    /// Running Σ r² matching `resid`, per column.
    sum_sq: Vec<f64>,
    /// Aggregated estimate deltas awaiting a fold (`n·k`).
    pending: Vec<f64>,
    /// Entries of `pending` currently nonzero-recorded, as flat indices.
    dirty: Vec<usize>,
    /// O(1) dedup for `dirty`.
    in_dirty: Vec<bool>,
    /// Worst-column relative residual as of the last flush.
    cached_metric: f64,
    /// Monitor updates folded into `pending` since the last flush.
    updates_since_flush: usize,
}

/// Deferred-fold cadence: pending residual deltas are folded (and the
/// cached metric refreshed) every this many monitor updates while the
/// metric is far from the tolerance. Near the tolerance (within
/// [`RESID_NEAR_FACTOR`]×) every update flushes, so the stopping decision
/// is made on fresh values exactly when precision matters.
const RESID_FLUSH_EVERY: usize = 32;
/// See [`RESID_FLUSH_EVERY`].
const RESID_NEAR_FACTOR: f64 = 16.0;

/// Worst-column relative residual from per-column Σr² and scales.
fn worst_residual(sum_sq: &[f64], b_scale: &[f64]) -> f64 {
    sum_sq
        .iter()
        .zip(b_scale)
        .map(|(ss, sc)| ss.max(0.0).sqrt() / sc)
        .fold(0.0, f64::max)
}

/// Incremental global-estimate tracker for a K-column solution block, with
/// an oracle-RMS and/or true-residual metric on top.
#[derive(Debug, Clone)]
pub struct Monitor {
    /// RHS columns tracked.
    k: usize,
    /// Original dimension.
    n: usize,
    copy_count: Vec<f64>,
    global_of_local: Vec<Vec<usize>>,
    /// Latest local solution block per part (`n_local·k`).
    part_values: Vec<Vec<f64>>,
    /// Per-vertex sum of copies, column-major.
    sum: Vec<f64>,
    /// Per-vertex averaged estimate, column-major.
    est: Vec<f64>,
    /// Oracle-error state (present when references were supplied).
    oracle: Option<OracleTracker>,
    /// True-residual state (present in reference-free mode, or when
    /// explicitly attached for cross-checks).
    residual: Option<ResidualTracker>,
    /// Which metric [`update_part`](Self::update_part) returns and records.
    primary: Primary,
    series: Vec<(f64, f64)>,
    sample_interval: SimDuration,
    last_sample: Option<SimTime>,
    /// When the incremental metric drops below this value, resynchronize
    /// the accumulators exactly before reporting (guards against
    /// catastrophic cancellation near convergence). Zero disables.
    refresh_below: f64,
    /// Updates folded in since the last exact resync.
    updates_since_sync: usize,
    /// Total [`update_part`](Self::update_part) calls — the monitor-side
    /// activation counter, uniform across DTM and the baselines (every
    /// algorithm reports exactly one update per node activation).
    updates_total: u64,
}

/// Resync cadence while refresh is armed: the incremental accumulator can
/// also drift *upward* past the stopping tolerance (stalling an oracle run
/// at the horizon), so it is recomputed exactly every this many updates —
/// amortized O(copies-per-part) per activation, unchanged asymptotics.
const RESYNC_EVERY: usize = 256;

impl Monitor {
    /// Create a monitor for `split` against the reference solution
    /// (`x* = A⁻¹ b` of the original system). `sample_interval` throttles
    /// the recorded series (zero = record every activation).
    pub fn new(split: &SplitSystem, reference: Vec<f64>, sample_interval: SimDuration) -> Self {
        Self::new_block(split, &[reference], sample_interval)
    }

    /// Create a monitor for a K-column block solve: one reference solution
    /// per RHS column.
    ///
    /// # Panics
    /// Panics if `references` is empty or columns disagree in length.
    pub fn new_block(
        split: &SplitSystem,
        references: &[Vec<f64>],
        sample_interval: SimDuration,
    ) -> Self {
        Self::from_parts_block(
            split
                .subdomains
                .iter()
                .map(|sd| sd.global_of_local.clone())
                .collect(),
            split.copy_count.clone(),
            references,
            sample_interval,
        )
    }

    /// Create a monitor from raw part→global maps (used by the block-Jacobi
    /// baselines, whose parts don't overlap: `copy_count` all ones).
    pub fn from_parts(
        global_of_local: Vec<Vec<usize>>,
        copy_count: Vec<usize>,
        reference: Vec<f64>,
        sample_interval: SimDuration,
    ) -> Self {
        Self::from_parts_block(global_of_local, copy_count, &[reference], sample_interval)
    }

    /// Block form of [`from_parts`](Self::from_parts).
    ///
    /// # Panics
    /// Panics if `references` is empty or columns disagree in length.
    pub fn from_parts_block(
        global_of_local: Vec<Vec<usize>>,
        copy_count: Vec<usize>,
        references: &[Vec<f64>],
        sample_interval: SimDuration,
    ) -> Self {
        let k = references.len();
        assert!(k > 0, "at least one reference column");
        let n = references[0].len();
        let mut reference = Vec::with_capacity(n * k);
        for r in references {
            assert_eq!(r.len(), n, "reference column length");
            reference.extend_from_slice(r);
        }
        let sum_sq_err = references
            .iter()
            .map(|r| r.iter().map(|v| v * v).sum())
            .collect();
        let mut m = Self::bare(global_of_local, copy_count, n, k, sample_interval);
        m.oracle = Some(OracleTracker {
            reference,
            sum_sq_err,
        });
        m.primary = Primary::OracleRms;
        m
    }

    /// Create a **reference-free** monitor for `split`: the driving metric
    /// is the relative true residual `‖b − A·x‖₂ / ‖b‖₂` of the gathered
    /// estimate against the reconstructed original system, maintained
    /// incrementally. `rhs_cols = None` tracks the split's own right-hand
    /// side (the scalar pipeline); `Some` supplies the K global columns of
    /// a block solve. No direct solve of the original system happens here
    /// or later.
    ///
    /// # Panics
    /// Panics if a supplied column's length differs from the original
    /// dimension, or `rhs_cols` is `Some` but empty.
    pub fn new_residual(
        split: &SplitSystem,
        rhs_cols: Option<&[Vec<f64>]>,
        sample_interval: SimDuration,
    ) -> Self {
        let (a, own_b) = split.reconstruct();
        Self::from_parts_residual(
            split
                .subdomains
                .iter()
                .map(|sd| sd.global_of_local.clone())
                .collect(),
            split.copy_count.clone(),
            a,
            match rhs_cols {
                Some(cols) => cols,
                None => std::slice::from_ref(&own_b),
            },
            sample_interval,
        )
    }

    /// Raw-parts form of [`new_residual`](Self::new_residual) (used by the
    /// block-Jacobi baselines, whose parts don't overlap).
    ///
    /// # Panics
    /// Panics if `rhs_cols` is empty or a column's length differs from
    /// `a`'s dimension.
    pub fn from_parts_residual(
        global_of_local: Vec<Vec<usize>>,
        copy_count: Vec<usize>,
        a: Csr,
        rhs_cols: &[impl AsRef<[f64]>],
        sample_interval: SimDuration,
    ) -> Self {
        let k = rhs_cols.len();
        assert!(k > 0, "at least one RHS column");
        let n = a.n_rows();
        let mut rhs = Vec::with_capacity(n * k);
        for c in rhs_cols {
            assert_eq!(c.as_ref().len(), n, "RHS column length");
            rhs.extend_from_slice(c.as_ref());
        }
        let b_scale: Vec<f64> = rhs_cols
            .iter()
            .map(|c| dtm_sparse::vector::norm2_or_one(c.as_ref()))
            .collect();
        // est = 0 ⇒ r = b ⇒ relative residual exactly 1 per column — except
        // an all-zero column, whose scale saturates to 1 (absolute
        // residual) and whose initial metric is therefore exactly 0, never
        // NaN: x = 0 already solves A·x = 0.
        let sum_sq: Vec<f64> = rhs_cols
            .iter()
            .map(|c| c.as_ref().iter().map(|v| v * v).sum())
            .collect();
        let cached_metric = worst_residual(&sum_sq, &b_scale);
        let mut m = Self::bare(global_of_local, copy_count, n, k, sample_interval);
        m.residual = Some(ResidualTracker {
            a,
            resid: rhs.clone(),
            pending: vec![0.0; rhs.len()],
            in_dirty: vec![false; rhs.len()],
            dirty: Vec::new(),
            rhs,
            b_scale,
            sum_sq,
            cached_metric,
            updates_since_flush: 0,
        });
        m.primary = Primary::Residual;
        m
    }

    /// Attach an oracle tracker to an existing (typically residual-mode)
    /// monitor so tests can cross-check both metrics on one run. The
    /// primary metric is unchanged.
    ///
    /// # Panics
    /// Panics on column count/length mismatch.
    pub fn attach_oracle(&mut self, references: &[Vec<f64>]) {
        assert_eq!(references.len(), self.k, "one reference per column");
        let mut reference = Vec::with_capacity(self.n * self.k);
        for r in references {
            assert_eq!(r.len(), self.n, "reference column length");
            reference.extend_from_slice(r);
        }
        let sum_sq_err = (0..self.k)
            .map(|c| {
                self.est[c * self.n..(c + 1) * self.n]
                    .iter()
                    .zip(&reference[c * self.n..(c + 1) * self.n])
                    .map(|(e, r)| (e - r) * (e - r))
                    .sum()
            })
            .collect();
        self.oracle = Some(OracleTracker {
            reference,
            sum_sq_err,
        });
    }

    /// The shared estimate machinery, with no metric attached yet.
    fn bare(
        global_of_local: Vec<Vec<usize>>,
        copy_count: Vec<usize>,
        n: usize,
        k: usize,
        sample_interval: SimDuration,
    ) -> Self {
        assert_eq!(copy_count.len(), n, "copy_count length");
        Self {
            k,
            n,
            copy_count: copy_count.iter().map(|&c| c as f64).collect(),
            part_values: global_of_local
                .iter()
                .map(|g2l| vec![0.0; g2l.len() * k])
                .collect(),
            global_of_local,
            sum: vec![0.0; n * k],
            est: vec![0.0; n * k],
            oracle: None,
            residual: None,
            primary: Primary::OracleRms,
            series: Vec::new(),
            sample_interval,
            last_sample: None,
            refresh_below: 0.0,
            updates_since_sync: 0,
            updates_total: 0,
        }
    }

    /// RHS columns tracked.
    pub fn n_rhs(&self) -> usize {
        self.k
    }

    /// Total updates observed ([`update_part`](Self::update_part) calls) —
    /// the activations this monitor has witnessed. The simulated baseline
    /// driver asserts it against the engine's own activation counter, so
    /// the uniform counters stay uniform by construction.
    pub fn updates(&self) -> u64 {
        self.updates_total
    }

    /// Whether this monitor carries oracle references.
    pub fn has_oracle(&self) -> bool {
        self.oracle.is_some()
    }

    /// Whether this monitor tracks the true residual.
    pub fn tracks_residual(&self) -> bool {
        self.residual.is_some()
    }

    /// Enable exact resynchronization whenever the incrementally tracked
    /// primary metric falls below `threshold` (typically the solver's
    /// tolerance).
    pub fn set_refresh_below(&mut self, threshold: f64) {
        self.refresh_below = threshold;
    }

    /// Recompute every attached metric's accumulators exactly and return
    /// the exact worst-column primary metric.
    pub fn resync(&mut self) -> f64 {
        let n = self.n;
        if let Some(o) = &mut self.oracle {
            for c in 0..self.k {
                o.sum_sq_err[c] = self.est[c * n..(c + 1) * n]
                    .iter()
                    .zip(&o.reference[c * n..(c + 1) * n])
                    .map(|(e, r)| (e - r) * (e - r))
                    .sum();
            }
        }
        if let Some(t) = &mut self.residual {
            // Pending deltas are already reflected in `est`; recomputing
            // from `est` subsumes them, so they are simply discarded.
            for &gi in &t.dirty {
                t.pending[gi] = 0.0;
                t.in_dirty[gi] = false;
            }
            t.dirty.clear();
            t.updates_since_flush = 0;
            for c in 0..self.k {
                let (est_c, resid_c) = (
                    &self.est[c * n..(c + 1) * n],
                    &mut t.resid[c * n..(c + 1) * n],
                );
                t.a.residual_into(est_c, &t.rhs[c * n..(c + 1) * n], resid_c);
                t.sum_sq[c] = resid_c.iter().map(|r| r * r).sum();
            }
            t.cached_metric = worst_residual(&t.sum_sq, &t.b_scale);
        }
        self.metric()
    }

    /// Fold all pending residual deltas and refresh the cached metric —
    /// one sparse row fold per aggregated dirty entry.
    fn flush_tracker(t: &mut ResidualTracker, n: usize) {
        let ResidualTracker {
            a,
            resid,
            sum_sq,
            pending,
            dirty,
            in_dirty,
            cached_metric,
            b_scale,
            updates_since_flush,
            ..
        } = t;
        let (rp, ci, vv) = (a.row_ptr(), a.col_idx(), a.values());
        for &gi in dirty.iter() {
            let delta = pending[gi];
            pending[gi] = 0.0;
            in_dirty[gi] = false;
            if delta == 0.0 {
                continue;
            }
            let (c, g) = (gi / n, gi % n);
            let base = c * n;
            let mut ssq = sum_sq[c];
            for idx in rp[g]..rp[g + 1] {
                let rj = base + ci[idx];
                let r_old = resid[rj];
                let r_new = r_old - vv[idx] * delta;
                ssq += r_new * r_new - r_old * r_old;
                resid[rj] = r_new;
            }
            sum_sq[c] = ssq;
        }
        dirty.clear();
        *updates_since_flush = 0;
        *cached_metric = worst_residual(sum_sq, b_scale);
    }

    /// Fold one part's newly solved local block in (`x` is the part's
    /// `n_local·k` column-major solution); returns the current worst-column
    /// primary metric (oracle RMS, or relative residual in reference-free
    /// mode).
    pub fn update_part(&mut self, part: usize, time: SimTime, x: &[f64]) -> f64 {
        let g2l = &self.global_of_local[part];
        let nl = g2l.len();
        let n = self.n;
        assert_eq!(x.len(), nl * self.k, "monitor: local block length");
        self.updates_total += 1;
        // Residual tracking is O(1) per changed entry here: the delta is
        // aggregated into `pending` and the sparse row folds run batched
        // at the flush below (see `ResidualTracker`).
        let mut resid_state = self
            .residual
            .as_mut()
            .map(|t| (&mut t.pending, &mut t.in_dirty, &mut t.dirty));
        for c in 0..self.k {
            for (l, &g) in g2l.iter().enumerate() {
                let (li, gi) = (c * nl + l, c * n + g);
                let old = self.part_values[part][li];
                if old == x[li] {
                    continue;
                }
                self.part_values[part][li] = x[li];
                self.sum[gi] += x[li] - old;
                let new_est = self.sum[gi] / self.copy_count[g];
                if let Some(o) = &mut self.oracle {
                    let e_old = self.est[gi] - o.reference[gi];
                    let e_new = new_est - o.reference[gi];
                    o.sum_sq_err[c] += e_new * e_new - e_old * e_old;
                }
                if let Some((pending, in_dirty, dirty)) = &mut resid_state {
                    // est[g] moves by δ ⇒ r[j] −= A[j,g]·δ for the nonzeros
                    // of column g (A symmetric: row g); the fold itself is
                    // deferred, only the aggregated δ is recorded here.
                    pending[gi] += new_est - self.est[gi];
                    if !in_dirty[gi] {
                        in_dirty[gi] = true;
                        dirty.push(gi);
                    }
                }
                self.est[gi] = new_est;
            }
        }
        // Deferred residual fold: flush every RESID_FLUSH_EVERY updates —
        // or every update once the cached metric is within
        // RESID_NEAR_FACTOR of the refresh threshold (≈ the stopping
        // tolerance), where freshness decides when the run ends.
        if let Some(t) = &mut self.residual {
            t.updates_since_flush += 1;
            let near = self.refresh_below > 0.0
                && t.cached_metric < self.refresh_below * RESID_NEAR_FACTOR;
            if near || t.updates_since_flush >= RESID_FLUSH_EVERY {
                Self::flush_tracker(t, n);
            }
        }
        let mut metric = self.metric();
        self.updates_since_sync += 1;
        // `<=`, not `<`: a stop decision compares `metric <= tol`, so the
        // boundary value must also be re-derived exactly. An incremental
        // (or deferred-fold) value that drifted **at or below** the
        // threshold is never allowed to terminate a run by itself — the
        // exact resync re-derives it before it is reported.
        if self.refresh_below > 0.0
            && (metric <= self.refresh_below || self.updates_since_sync >= RESYNC_EVERY)
        {
            metric = self.resync();
            self.updates_since_sync = 0;
        }
        let due = match self.last_sample {
            None => true,
            Some(t0) => time.since(t0) >= self.sample_interval,
        };
        if due {
            self.series.push((time.as_millis_f64(), metric));
            self.last_sample = Some(time);
        }
        metric
    }

    /// The oracle tracker, which every `OracleRms`-mode accessor needs.
    /// `None` on a monitor built without references; the accessors map
    /// that to `NaN` — the report vocabulary's "no oracle" value — so a
    /// mode mismatch degrades to an unusable number, never a crash.
    fn oracle_state(&self) -> Option<&OracleTracker> {
        self.oracle.as_ref()
    }

    /// The residual tracker behind every `Residual`-mode accessor. `None`
    /// when the monitor does not track the residual; accessors map that
    /// to `NaN` rather than panicking.
    fn tracker(&self) -> Option<&ResidualTracker> {
        self.residual.as_ref()
    }

    /// Mutable [`tracker`](Self::tracker).
    fn tracker_mut(&mut self) -> Option<&mut ResidualTracker> {
        self.residual.as_mut()
    }

    /// Current worst-column primary metric (incrementally maintained; the
    /// residual value is the cached last-flush metric — always a
    /// previously exact number, possibly one flush window stale).
    pub fn metric(&self) -> f64 {
        match self.primary {
            Primary::OracleRms => self.rms(),
            Primary::Residual => self.tracker().map_or(f64::NAN, |t| t.cached_metric),
        }
    }

    /// Current worst-column RMS error (incrementally maintained).
    /// `NaN` if the monitor carries no oracle references.
    pub fn rms(&self) -> f64 {
        let n = self.n.max(1) as f64;
        self.oracle_state().map_or(f64::NAN, |o| {
            o.sum_sq_err
                .iter()
                .map(|ss| (ss.max(0.0) / n).sqrt())
                .fold(0.0, f64::max)
        })
    }

    /// Current worst-column relative residual `‖b − A·x‖₂ / ‖b‖₂`
    /// (incrementally maintained; any pending deferred folds are applied
    /// first, so the returned value always reflects every update).
    /// `NaN` if the monitor does not track the residual.
    pub fn rel_residual(&mut self) -> f64 {
        let n = self.n;
        match self.tracker_mut() {
            Some(t) => {
                if !t.dirty.is_empty() {
                    Self::flush_tracker(t, n);
                }
                t.cached_metric
            }
            None => f64::NAN,
        }
    }

    /// Exactly recomputed worst-column RMS error (clears accumulated FP
    /// drift). `NaN` if the monitor carries no oracle references.
    pub fn rms_exact(&self) -> f64 {
        match self.oracle_state() {
            Some(_) => self.rms_exact_per_rhs().into_iter().fold(0.0, f64::max),
            None => f64::NAN,
        }
    }

    /// Exactly recomputed RMS error per RHS column. All-`NaN` if the
    /// monitor carries no oracle references.
    pub fn rms_exact_per_rhs(&self) -> Vec<f64> {
        let n = self.n;
        (0..self.k)
            .map(|c| {
                self.oracle_state().map_or(f64::NAN, |o| {
                    dtm_sparse::vector::rms_error(
                        &self.est[c * n..(c + 1) * n],
                        &o.reference[c * n..(c + 1) * n],
                    )
                })
            })
            .collect()
    }

    /// Exactly recomputed relative residual per RHS column (one fused SpMV
    /// per column; does not disturb the incremental accumulators).
    /// All-`NaN` if the monitor does not track the residual.
    pub fn residual_exact_per_rhs(&self) -> Vec<f64> {
        let n = self.n;
        (0..self.k)
            .map(|c| {
                self.tracker().map_or(f64::NAN, |t| {
                    t.a.residual_norm(&self.est[c * n..(c + 1) * n], &t.rhs[c * n..(c + 1) * n])
                        / t.b_scale[c]
                })
            })
            .collect()
    }

    /// Incrementally maintained RMS error of **one** column (rolling
    /// sessions stop columns individually; the worst-column scalar is the
    /// batch pipeline's view). `NaN` if the monitor carries no oracle
    /// references.
    pub fn col_rms(&self, col: usize) -> f64 {
        self.oracle_state().map_or(f64::NAN, |o| {
            (o.sum_sq_err[col].max(0.0) / self.n.max(1) as f64).sqrt()
        })
    }

    /// Relative residual of one column as of the last flush (cheap; may be
    /// one flush window stale — confirm a crossing with
    /// [`residual_exact_col`](Self::residual_exact_col) before acting on
    /// it). `NaN` if the monitor does not track the residual.
    pub fn col_residual(&self, col: usize) -> f64 {
        self.tracker()
            .map_or(f64::NAN, |t| t.sum_sq[col].max(0.0).sqrt() / t.b_scale[col])
    }

    /// Exactly recomputed RMS error of one column. `NaN` if the monitor
    /// carries no oracle references.
    pub fn rms_exact_col(&self, col: usize) -> f64 {
        let n = self.n;
        self.oracle_state().map_or(f64::NAN, |o| {
            dtm_sparse::vector::rms_error(
                &self.est[col * n..(col + 1) * n],
                &o.reference[col * n..(col + 1) * n],
            )
        })
    }

    /// Exactly recomputed relative residual of one column (one fused SpMV;
    /// does not disturb the incremental accumulators). `NaN` if the
    /// monitor does not track the residual.
    pub fn residual_exact_col(&self, col: usize) -> f64 {
        let n = self.n;
        self.tracker().map_or(f64::NAN, |t| {
            t.a.residual_norm(
                &self.est[col * n..(col + 1) * n],
                &t.rhs[col * n..(col + 1) * n],
            ) / t.b_scale[col]
        })
    }

    /// Retire/admit one column in place — the rolling-session hand-off.
    ///
    /// The estimate state is **kept**: the executors' nodes still hold (and
    /// keep reporting) their current solutions, so the incremental diffing
    /// against `part_values` stays consistent; only the *targets* change.
    /// The residual tracker re-anchors on `rhs_col` (its pending deferred
    /// deltas for this column are discarded — they described folds against
    /// the retired right-hand side — and the column's residual is recomputed
    /// exactly against the new one). When the monitor carries an oracle,
    /// `reference` replaces the column's reference (`None` zeroes it —
    /// residual-rule tickets in a mixed session have no oracle and must
    /// never be judged by RMS).
    ///
    /// # Panics
    /// Panics on column/length mismatch.
    pub fn replace_column(&mut self, col: usize, rhs_col: &[f64], reference: Option<&[f64]>) {
        assert!(col < self.k, "column out of range");
        assert_eq!(rhs_col.len(), self.n, "RHS column length");
        let n = self.n;
        if let Some(t) = &mut self.residual {
            t.rhs[col * n..(col + 1) * n].copy_from_slice(rhs_col);
            t.b_scale[col] = dtm_sparse::vector::norm2_or_one(rhs_col);
            // Pending deltas for this column described folds against the
            // retired RHS; the exact recompute below subsumes them.
            for &gi in &t.dirty {
                if gi / n == col {
                    t.pending[gi] = 0.0;
                    t.in_dirty[gi] = false;
                }
            }
            t.dirty.retain(|&gi| gi / n != col);
            let (est_c, resid_c) = (
                &self.est[col * n..(col + 1) * n],
                &mut t.resid[col * n..(col + 1) * n],
            );
            t.a.residual_into(est_c, &t.rhs[col * n..(col + 1) * n], resid_c);
            t.sum_sq[col] = resid_c.iter().map(|r| r * r).sum();
            t.cached_metric = worst_residual(&t.sum_sq, &t.b_scale);
        }
        if let Some(o) = &mut self.oracle {
            let slot = &mut o.reference[col * n..(col + 1) * n];
            match reference {
                Some(r) => {
                    assert_eq!(r.len(), n, "reference column length");
                    slot.copy_from_slice(r);
                }
                None => slot.fill(0.0),
            }
            o.sum_sq_err[col] = self.est[col * n..(col + 1) * n]
                .iter()
                .zip(&o.reference[col * n..(col + 1) * n])
                .map(|(e, r)| (e - r) * (e - r))
                .sum();
        }
    }

    /// Current global estimate of column 0 (copies averaged).
    pub fn estimate(&self) -> &[f64] {
        self.estimate_col(0)
    }

    /// Current global estimate of one RHS column.
    pub fn estimate_col(&self, col: usize) -> &[f64] {
        &self.est[col * self.n..(col + 1) * self.n]
    }

    /// Current global estimates, one vector per RHS column.
    pub fn estimates(&self) -> Vec<Vec<f64>> {
        (0..self.k).map(|c| self.estimate_col(c).to_vec()).collect()
    }

    /// The recorded `(time_ms, metric)` staircase (worst column, in the
    /// primary metric: oracle RMS, or relative residual in reference-free
    /// mode).
    pub fn series(&self) -> &[(f64, f64)] {
        &self.series
    }

    /// Consume into the series.
    pub fn into_series(self) -> Vec<(f64, f64)> {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::evs::{split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;

    fn make() -> (SplitSystem, Vec<f64>) {
        let a = generators::grid2d_laplacian(4, 4);
        let b = generators::random_rhs(16, 1);
        let reference = dtm_sparse::SparseCholesky::factor(&a).unwrap().solve(&b);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_strips(4, 4, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        (split(&g, &plan, &EvsOptions::default()).unwrap(), reference)
    }

    #[test]
    fn starts_at_reference_norm() {
        let (ss, reference) = make();
        let m = Monitor::new(&ss, reference.clone(), SimDuration::ZERO);
        let expect = dtm_sparse::vector::rms_error(&[0.0; 16], &reference);
        assert!((m.rms() - expect).abs() < 1e-12);
    }

    #[test]
    fn feeding_exact_solution_drives_rms_to_zero() {
        let (ss, reference) = make();
        let mut m = Monitor::new(&ss, reference.clone(), SimDuration::ZERO);
        m.set_refresh_below(1e-6);
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let local: Vec<f64> = sd.global_of_local.iter().map(|&g| reference[g]).collect();
            m.update_part(p, SimTime::from_nanos(p as u64), &local);
        }
        assert!(m.rms() < 1e-12, "rms {}", m.rms());
        assert!(m.rms_exact() < 1e-12);
        for (e, r) in m.estimate().iter().zip(&reference) {
            assert!((e - r).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_matches_exact() {
        let (ss, reference) = make();
        let mut m = Monitor::new(&ss, reference, SimDuration::ZERO);
        // Feed arbitrary values in several rounds; drift must stay tiny.
        for round in 0..5 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let local: Vec<f64> = (0..sd.n_local())
                    .map(|l| ((l + round) as f64 * 0.37).sin())
                    .collect();
                m.update_part(p, SimTime::from_nanos((round * 10 + p) as u64), &local);
            }
        }
        assert!((m.rms() - m.rms_exact()).abs() < 1e-10);
    }

    #[test]
    fn update_counter_counts_activations() {
        let (ss, reference) = make();
        let mut m = Monitor::new(&ss, reference, SimDuration::ZERO);
        assert_eq!(m.updates(), 0);
        for k in 0..7u64 {
            let local = vec![k as f64; ss.subdomains[0].n_local()];
            m.update_part(0, SimTime::from_nanos(k), &local);
        }
        assert_eq!(m.updates(), 7);
    }

    #[test]
    fn sampling_interval_throttles_series() {
        let (ss, reference) = make();
        let mut dense = Monitor::new(&ss, reference.clone(), SimDuration::ZERO);
        let mut sparse = Monitor::new(&ss, reference, SimDuration::from_nanos(100));
        for k in 0..50u64 {
            let local: Vec<f64> = vec![k as f64; ss.subdomains[0].n_local()];
            dense.update_part(0, SimTime::from_nanos(k * 10), &local);
            sparse.update_part(0, SimTime::from_nanos(k * 10), &local);
        }
        assert_eq!(dense.series().len(), 50);
        assert!(sparse.series().len() < 10);
    }

    #[test]
    fn residual_monitor_starts_at_one_and_reaches_zero() {
        // est = 0 ⇒ r = b ⇒ ‖r‖/‖b‖ = 1 exactly; feeding the exact
        // solution drives the relative residual to ~0 (reference-free: no
        // direct solve of the original system is involved in the metric).
        let (ss, reference) = make();
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        m.set_refresh_below(1e-6);
        assert!(!m.has_oracle());
        assert!(m.tracks_residual());
        assert!((m.rel_residual() - 1.0).abs() < 1e-12);
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let local: Vec<f64> = sd.global_of_local.iter().map(|&g| reference[g]).collect();
            m.update_part(p, SimTime::from_nanos(p as u64), &local);
        }
        // The incremental accumulator carries cancellation drift until a
        // resync; the exact recompute is clean immediately.
        assert!(m.rel_residual() < 1e-6, "residual {}", m.rel_residual());
        assert!(m.residual_exact_per_rhs()[0] < 1e-10);
        m.resync();
        assert!(m.rel_residual() < 1e-10, "post-resync {}", m.rel_residual());
    }

    #[test]
    fn incremental_residual_matches_exact_recompute() {
        let (ss, _) = make();
        let (a, b) = ss.reconstruct();
        let bnorm = dtm_sparse::vector::norm2(&b);
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        for round in 0..5 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let local: Vec<f64> = (0..sd.n_local())
                    .map(|l| ((l + round) as f64 * 0.61).cos())
                    .collect();
                m.update_part(p, SimTime::from_nanos((round * 10 + p) as u64), &local);
            }
        }
        let exact = a.residual_norm(m.estimate(), &b) / bnorm;
        assert!(
            (m.rel_residual() - exact).abs() < 1e-12,
            "incremental {} vs exact {}",
            m.rel_residual(),
            exact
        );
    }

    #[test]
    fn attached_oracle_cross_checks_residual_mode() {
        // A residual-primary monitor with an oracle attached reports both:
        // the primary metric (and series) stay residual, while the oracle
        // RMS is available for test-only equivalence checks.
        let (ss, reference) = make();
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        m.set_refresh_below(1e-6);
        m.attach_oracle(std::slice::from_ref(&reference));
        assert!(m.has_oracle());
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let local: Vec<f64> = sd.global_of_local.iter().map(|&g| reference[g]).collect();
            // The primary (returned) metric is the residual's cached
            // value — a previously exact number, never the oracle RMS.
            let metric = m.update_part(p, SimTime::from_nanos(p as u64), &local);
            assert!(metric <= 1.0 + 1e-12, "cached residual metric");
        }
        assert!(m.rms_exact() < 1e-12);
        assert!(m.rel_residual() < 1e-6);
        m.resync();
        assert!(m.rel_residual() < 1e-10);
    }

    #[test]
    fn drifted_incremental_value_cannot_declare_convergence() {
        // Regression (stale deferred fold): simulate a drifted incremental
        // accumulator sitting AT or BELOW the stopping tolerance while the
        // exact residual is far above it. The next update_part must resync
        // exactly before reporting, so the returned (stop-deciding) metric
        // is the true one — a drifted value can never terminate a run
        // early.
        let (ss, _) = make();
        let tol = 1e-6;
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        m.set_refresh_below(tol);
        // One genuine update so the estimate is nonzero and far from
        // convergence.
        let local0: Vec<f64> = (0..ss.subdomains[0].n_local())
            .map(|l| 0.5 + l as f64 * 0.1)
            .collect();
        m.update_part(0, SimTime::from_nanos(0), &local0);
        let exact = m.residual_exact_per_rhs()[0];
        assert!(exact > 100.0 * tol, "setup: far from converged ({exact})");
        // Fold all pending deltas, then corrupt the incremental
        // accumulator the way drift would: the cached metric lands exactly
        // on the tolerance (the `<` vs `<=` boundary) and the per-column
        // sum agrees with it.
        m.rel_residual();
        {
            let t = m.residual.as_mut().unwrap();
            t.sum_sq[0] = (tol * t.b_scale[0]).powi(2);
            t.cached_metric = tol;
        }
        assert_eq!(m.metric(), tol, "drifted value is in place");
        // The next update must NOT report the drifted value: the stop
        // decision sees the exact resynced metric.
        let local1 = vec![0.0; ss.subdomains[1].n_local()];
        let reported = m.update_part(1, SimTime::from_nanos(1), &local1);
        assert!(
            reported > tol,
            "reported {reported} must be the exact metric, not the drifted {tol}"
        );
        let exact_now = m.residual_exact_per_rhs()[0];
        assert!(
            (reported - exact_now).abs() <= 1e-12 * exact_now.max(1.0),
            "reported {reported} vs exact {exact_now}"
        );
    }

    #[test]
    fn adversarial_update_orders_stop_only_on_exact_values() {
        // Contract form of the same regression: across an adversarial
        // update order (many tiny alternating-sign changes that maximise
        // cancellation in the deferred folds), every time update_part
        // returns a value at or below the tolerance, the exact
        // recomputation agrees — the stop decision never fires on a stale
        // or drifted number.
        let (ss, reference) = make();
        let tol = 1e-3;
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        m.set_refresh_below(tol);
        let mut crossings = 0;
        for round in 0..120 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                // Converge toward the solution with oscillating over/under
                // shoot so deltas alternate sign (worst case for aggregated
                // folds), approaching the tolerance from above.
                let damp = 1.0 / (1.0 + (round as f64).powi(2) * 0.5);
                let wiggle = if round % 2 == 0 { 1.0 } else { -1.0 };
                let local: Vec<f64> = sd
                    .global_of_local
                    .iter()
                    .enumerate()
                    .map(|(l, &g)| {
                        reference[g] * (1.0 + wiggle * damp * (0.3 + 0.1 * (l as f64).sin()))
                    })
                    .collect();
                let reported =
                    m.update_part(p, SimTime::from_nanos((round * 10 + p) as u64), &local);
                if reported <= tol {
                    crossings += 1;
                    let exact = m.residual_exact_per_rhs()[0];
                    assert!(
                        (reported - exact).abs() <= 1e-12 * exact.max(1.0),
                        "round {round}: stop-eligible value {reported} must be \
                         exact (true residual {exact})"
                    );
                }
            }
        }
        assert!(crossings > 0, "the run must actually cross the tolerance");
    }

    #[test]
    fn zero_rhs_column_has_defined_residual_from_the_start() {
        // An all-zero RHS column: ‖b‖ = 0, so the scale saturates to 1 and
        // the metric is the ABSOLUTE residual — defined (never NaN) and 0
        // at the zero initial guess, because x = 0 solves A·x = 0 exactly.
        let (ss, _) = make();
        let zero = vec![0.0; 16];
        let mut m =
            Monitor::new_residual(&ss, Some(std::slice::from_ref(&zero)), SimDuration::ZERO);
        assert_eq!(m.metric(), 0.0, "initial metric is exactly 0, not NaN/1");
        assert_eq!(m.rel_residual(), 0.0);
        assert_eq!(m.residual_exact_per_rhs()[0], 0.0);
        // Perturbing the estimate raises the absolute residual; it stays
        // finite and returns to ~0 when the parts report zeros again.
        let n0 = ss.subdomains[0].n_local();
        m.update_part(0, SimTime::from_nanos(0), &vec![0.5; n0]);
        let m1 = m.rel_residual();
        assert!(m1.is_finite() && m1 > 0.0, "perturbed metric {m1}");
        m.update_part(0, SimTime::from_nanos(1), &vec![0.0; n0]);
        assert!(m.rel_residual().is_finite());
        m.resync();
        assert!(m.rel_residual() < 1e-12);
    }

    #[test]
    fn replace_column_reanchors_both_metrics_mid_run() {
        // The rolling retire/admit hand-off: replace column 0's RHS (and
        // oracle reference) while the estimate is mid-flight. Both metrics
        // must re-anchor on the new targets against the *current* estimate,
        // and subsequent updates must stay consistent with exact
        // recomputation.
        let (ss, reference) = make();
        let (a, b_old) = ss.reconstruct();
        let mut m =
            Monitor::new_residual(&ss, Some(std::slice::from_ref(&b_old)), SimDuration::ZERO);
        m.attach_oracle(std::slice::from_ref(&reference));
        // Drive the estimate to the OLD solution.
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let local: Vec<f64> = sd.global_of_local.iter().map(|&g| reference[g]).collect();
            m.update_part(p, SimTime::from_nanos(p as u64), &local);
        }
        m.resync();
        assert!(m.rel_residual() < 1e-10, "converged on the old column");

        // Admit a new RHS into the slot.
        let b_new = generators::random_rhs(16, 77);
        let x_new = dtm_sparse::SparseCholesky::factor(&a)
            .unwrap()
            .solve(&b_new);
        m.replace_column(0, &b_new, Some(&x_new));
        let expect_resid =
            a.residual_norm(m.estimate(), &b_new) / dtm_sparse::vector::norm2(&b_new);
        assert!(
            (m.col_residual(0) - expect_resid).abs() <= 1e-12 * expect_resid.max(1.0),
            "residual re-anchored: {} vs {}",
            m.col_residual(0),
            expect_resid
        );
        assert!(
            (m.col_rms(0) - dtm_sparse::vector::rms_error(m.estimate(), &x_new)).abs() < 1e-12,
            "oracle re-anchored"
        );
        // Feed the NEW solution; both metrics drop to ~0 and incremental
        // tracking stayed consistent through the swap.
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let local: Vec<f64> = sd.global_of_local.iter().map(|&g| x_new[g]).collect();
            m.update_part(p, SimTime::from_nanos(10 + p as u64), &local);
        }
        m.resync();
        assert!(m.rel_residual() < 1e-10, "resid {}", m.rel_residual());
        assert!(m.rms_exact_col(0) < 1e-12);
        assert!(m.residual_exact_col(0) < 1e-10);
    }

    #[test]
    fn block_monitor_tracks_worst_column() {
        // Two columns: feed column 0 its exact solution, leave column 1 at
        // zero — the reported RMS must be column 1's error, and the
        // per-column report must distinguish them.
        let (ss, reference) = make();
        let ref2: Vec<f64> = reference.iter().map(|v| v * 2.0).collect();
        let refs = vec![reference.clone(), ref2.clone()];
        let mut m = Monitor::new_block(&ss, &refs, SimDuration::ZERO);
        assert_eq!(m.n_rhs(), 2);
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let nl = sd.n_local();
            let mut block = vec![0.0; nl * 2];
            for (l, &g) in sd.global_of_local.iter().enumerate() {
                block[l] = reference[g]; // column 0 exact
            }
            m.update_part(p, SimTime::from_nanos(p as u64), &block);
        }
        let per = m.rms_exact_per_rhs();
        assert!(per[0] < 1e-12, "column 0 exact, got {}", per[0]);
        let expect = dtm_sparse::vector::rms_error(&[0.0; 16], &ref2);
        assert!((per[1] - expect).abs() < 1e-12);
        assert!((m.rms() - per[1]).abs() < 1e-9, "worst column wins");
        // Column estimates address the right slices.
        for (e, r) in m.estimate_col(0).iter().zip(&reference) {
            assert!((e - r).abs() < 1e-12);
        }
        assert_eq!(m.estimates().len(), 2);
    }
}
