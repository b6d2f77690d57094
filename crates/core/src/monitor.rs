//! The one scorer: every executor's supervisor side, over a block of K
//! column slots.
//!
//! The paper's convergence figures (8, 9, 12, 14) plot the error of the
//! evolving distributed state against the true solution `x* = A⁻¹b`. The
//! [`Monitor`] maintains the *global* estimate (averaging every split
//! vertex's copies) incrementally — O(|part|·K) per activation, not O(n·K)
//! — records a `(time, metric)` staircase series, and holds each column to
//! its own stopping rule: it is the only type in this crate and `dtm-net`
//! that gathers an estimate, computes a residual or an RMS error, or
//! decides that a column is done (`dtm-lint`'s `single-scorer` rule).
//!
//! # Column slots
//!
//! A slot is idle until [`admit`](Monitor::admit) puts a right-hand side
//! in it under a [`Termination`] rule, and idle again after
//! [`retire`](Monitor::retire) hands back its exact final numbers. A
//! one-shot solve admits its K columns at t = 0 under one rule; a rolling
//! session recycles slots as tickets come and go. Each live column is
//! scored by one metric:
//!
//! * **Oracle RMS** (the paper's figures) against a supplied direct
//!   solution, under [`Termination::OracleRms`] and (passively)
//!   [`Termination::LocalDelta`] — one exact substitution per right-hand
//!   side, which no production deployment can pay;
//! * **Relative true residual** `‖b − A·x‖₂ / ‖b‖₂` otherwise (always
//!   under [`Termination::Residual`], where a supplied reference only adds
//!   RMS *reporting*). When an averaged estimate entry moves by δ, only the
//!   residual entries of A's column `g` change (Hong's D-iteration: the
//!   residual is linear in the estimate, `r −= A·Δx`), so deltas are
//!   *aggregated* and the sparse row folds run batched. Staleness between
//!   folds can only delay a stop, never trigger one early.
//!
//! # Feeding it
//!
//! The monitor keeps the last block each part reported, and a part's new
//! block is diffed against it — one per-part fold behind two feeds:
//!
//! * [`update_part`](Monitor::update_part) — one activation (the simulated
//!   engines): the residual folds are deferred (`RESID_FLUSH_EVERY`);
//! * `poll` — whatever the wall-clock workers published since the last
//!   poll, for the columns the pass asks for; the kept copy *is* the
//!   supervisor's mirror of the published blocks, and only a block's fold
//!   runs under its lock. A column most of whose entries moved is
//!   recomputed outright, one where few did is folded.
//!
//! The distributed round executor (`dtm-net`'s supervisor) hands over
//! every part's block at once ([`update_round`](Monitor::update_round)),
//! once per round: every entry moved, so there
//! is nothing to diff — the estimate is gathered afresh and each column
//! recomputed, one gather and one SpMV, exact every round.
//!
//! # Stopping
//!
//! [`done`](Monitor::done) gates on the cheap maintained value and confirms
//! by recomputing the column exactly from the estimate, so **a stop
//! decision is only ever taken on an exactly recomputed value**, of the
//! very estimate [`retire`](Monitor::retire) then returns. A NaN score is
//! never within a tolerance: every worst-of fold here keeps it.
//!
//! # Cadence
//!
//! When to score is decided here too, as constants and one pure function
//! rather than options. A one-shot wall-clock supervisor sleeps between
//! polls for what `next_poll` derives from the decay of the metric it
//! just scored: DTM's error decays geometrically once the wave fronts have
//! crossed the parts, so the supervisor polls rarely far from the
//! tolerance, where no stop decision can change, and densely near the
//! predicted crossing, never less than `POLL_INTERVAL` apart. A rolling
//! session applies the same rule to each column slot on its own: every
//! live column carries the time it is next due, set by `next_poll` of
//! that column's metric and tolerance, and a pass folds in and scores only
//! the due columns (`Monitor::due`, `Monitor::schedule`) — the others'
//! published values wait in their blocks, costing nothing.

use crate::local::has_col;
use crate::runtime::wallclock::SharedBlock;
use crate::runtime::{GatherMap, Termination};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::Csr;
use std::time::{Duration, Instant};

/// Deferred-fold cadence of [`Monitor::update_part`]: pending residual
/// deltas are folded every this many updates while the metric is far from
/// the tolerance. Near the tolerance (within [`RESID_NEAR_FACTOR`]×) every
/// update folds, so the stopping decision is made on fresh values exactly
/// when precision matters. Trades simulated activations spent past the
/// tolerance (at most one window) against a sparse row fold per changed
/// entry per activation.
const RESID_FLUSH_EVERY: usize = 32;
/// See [`RESID_FLUSH_EVERY`].
const RESID_NEAR_FACTOR: f64 = 16.0;

/// Exact-resync cadence while a tolerance is armed: an incremental
/// accumulator can drift *upward* past the stopping tolerance (stalling a
/// run at its budget), so it is recomputed exactly every this many part
/// updates — counted monitor-wide by [`Monitor::update_part`], and per
/// column (folds since that column's last exact recomputation) by `poll`,
/// which may score some columns far more often than others. Trades one
/// SpMV per live column against how long a drifted gate can hide a
/// crossing.
const RESYNC_EVERY: usize = 256;

/// The shortest sleep of a wall-clock supervisor between two scorings of
/// a column — the floor of [`next_poll`]'s cadence, and the whole cadence
/// wherever it has no decay to go by (the first poll, a flat or rising
/// metric, no metric tolerance). Trades `over_tol_share` — the workers keep
/// solving for up to one sleep after the tolerance is met — against
/// supervisor CPU: a poll costs about a gather plus an SpMV, on a core the
/// workers could use.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// The share of the predicted time left to the tolerance that
/// [`next_poll`] sleeps: a half keeps the sleeps shrinking towards a
/// crossing that a slowing decay postpones, and one that an accelerating
/// decay brings forward is overshot by less than one sleep.
const POLL_LEAD: f64 = 0.5;

/// [`next_poll`]'s cap on the growth of the sleep: at most this many times
/// the gap between the last two polls, so one noisy rate estimate cannot
/// buy a long blind stretch.
const POLL_GROWTH: f64 = 2.0;

/// Sample interval of a monitor that keeps no series beyond its first
/// point — rolling sessions: nobody reads one, and a session's life has no
/// bound.
pub(crate) const NO_SERIES: SimDuration = SimDuration::from_nanos(u64::MAX);

/// The series clock of a wall-clock supervisor: time elapsed since
/// `started`.
pub fn wall_time(started: Instant) -> SimTime {
    SimTime::from_nanos(started.elapsed().as_nanos().try_into().unwrap_or(u64::MAX))
}

/// How long a supervisor waits after a poll that did not stop the run —
/// or, in a rolling session, did not retire the column: `now` is that
/// poll's `(time since start, metric)`, `last` the previous poll's, `tol`
/// the metric tolerance (`None` under [`Termination::LocalDelta`]) and
/// `left` what remains of the budget. A one-shot solve feeds the worst
/// live metric and the tightest tolerance, a session each column's own.
///
/// While the metric falls from `m₀` to `m` above `tol` it is taken to
/// decay geometrically at the rate it just showed, `λ = ln(m₀/m)/Δt`; the
/// supervisor sleeps [`POLL_LEAD`] of the predicted `ln(m/tol)/λ` left to
/// the crossing, at least [`POLL_INTERVAL`] and at most [`POLL_GROWTH`]`·Δt`.
/// So it polls rarely far from the tolerance and densely near the
/// predicted crossing. Anything else — the first poll, a flat or rising
/// metric, no or a zero tolerance, a NaN or an infinity — sleeps the floor.
/// No sleep outlasts `left`.
pub(crate) fn next_poll(
    last: Option<(Duration, f64)>,
    now: (Duration, f64),
    tol: Option<f64>,
    left: Duration,
) -> Duration {
    let gap = match (last, tol) {
        (Some((t0, m0)), Some(tol)) if m0.is_finite() && m0 > now.1 && now.1 > tol && tol > 0.0 => {
            let dt = now.0.saturating_sub(t0).as_secs_f64();
            let rate = (m0 / now.1).ln() / dt;
            let remaining = (now.1 / tol).ln() / rate;
            let secs = (POLL_LEAD * remaining)
                .min(POLL_GROWTH * dt)
                .max(POLL_INTERVAL.as_secs_f64());
            Duration::try_from_secs_f64(secs).unwrap_or(POLL_INTERVAL)
        }
        _ => POLL_INTERVAL,
    };
    gap.min(left)
}

/// The worse of two metrics, a NaN winning: `f64::max` drops a NaN, and a
/// column whose score is NaN must never read as within its tolerance.
/// Finite values fold exactly as `f64::max` does.
pub(crate) fn worse(a: f64, b: f64) -> f64 {
    if a > b || a.is_nan() {
        a
    } else {
        b
    }
}

/// What a retiring column hands back: exact final numbers of its gathered
/// estimate.
#[derive(Debug, Clone)]
pub struct Retired {
    /// Gathered global solution (split copies averaged).
    pub solution: Vec<f64>,
    /// Relative residual `‖b − A·x‖₂ / ‖b‖₂` (absolute for an all-zero
    /// `b`) — always computed.
    pub residual: f64,
    /// RMS error against the oracle reference, where the column carried
    /// one.
    pub rms: Option<f64>,
}

/// One column slot: the ticket occupying it and its incremental score.
#[derive(Debug, Clone)]
struct Column {
    /// The occupant's stopping rule; `None` = idle slot.
    rule: Option<Termination>,
    b: Vec<f64>,
    /// `‖b‖₂` (1 where `b` is zero, so the ratio stays defined).
    b_scale: f64,
    /// Oracle reference, where the occupant carries one.
    reference: Option<Vec<f64>>,
    /// Scored by RMS against `reference` rather than by the residual.
    by_oracle: bool,
    /// Running Σ(est − ref)² or Σr², whichever scores the column.
    sum_sq: f64,
    /// `sum_sq` is an exact recomputation of the current estimate, with
    /// nothing folded in since.
    exact: bool,
    /// Residual as of the last fold.
    resid: Vec<f64>,
    /// Aggregated estimate deltas awaiting a fold.
    pending: Vec<f64>,
    /// Rows of `pending` currently recorded.
    dirty: Vec<usize>,
    /// O(1) dedup for `dirty`.
    in_dirty: Vec<bool>,
    /// Part updates folded into this column since it was last recomputed
    /// exactly — `poll`'s drift guard.
    folds_since_sync: usize,
    /// A rolling session's next scoring of this column, as time since the
    /// session started ([`Monitor::schedule`]).
    due: Duration,
    /// The column's last scored `(time, metric)`, whose decay
    /// [`next_poll`] extrapolates; `None` until the occupant is scored.
    last: Option<(Duration, f64)>,
}

impl Column {
    fn idle(n: usize) -> Self {
        Self {
            rule: None,
            b: vec![0.0; n],
            b_scale: 1.0,
            reference: None,
            by_oracle: false,
            sum_sq: 0.0,
            exact: false,
            resid: vec![0.0; n],
            pending: vec![0.0; n],
            dirty: Vec::with_capacity(n),
            in_dirty: vec![false; n],
            folds_since_sync: 0,
            due: Duration::ZERO,
            last: None,
        }
    }

    /// The scoring metric as last maintained (cheap): for the residual a
    /// previously *exact* value, possibly one fold window stale.
    fn metric(&self) -> f64 {
        // Drift can take the running sum below zero; a NaN must stay NaN.
        let sum_sq = worse(self.sum_sq, 0.0);
        if self.by_oracle {
            (sum_sq / self.b.len().max(1) as f64).sqrt()
        } else {
            sum_sq.sqrt() / self.b_scale
        }
    }

    /// Whether the maintained metric meets the occupant's own tolerance.
    /// Idle slots and [`Termination::LocalDelta`] columns (scored
    /// passively; their nodes halt themselves) never do.
    fn within_tol(&self) -> bool {
        let tol = self.rule.and_then(Termination::metric_tol);
        tol.is_some_and(|tol| self.metric() <= tol)
    }

    /// Recompute the score exactly from the estimate. Pending deltas are
    /// already reflected in `est`, so they are simply discarded.
    fn resync(&mut self, a: &Csr, est: &[f64]) {
        match &self.reference {
            Some(reference) if self.by_oracle => {
                self.sum_sq = est
                    .iter()
                    .zip(reference)
                    .map(|(e, r)| (e - r) * (e - r))
                    .sum();
            }
            _ => {
                for &g in &self.dirty {
                    self.pending[g] = 0.0;
                    self.in_dirty[g] = false;
                }
                self.dirty.clear();
                a.residual_into(est, &self.b, &mut self.resid);
                self.sum_sq = self.resid.iter().map(|r| r * r).sum();
            }
        }
        self.exact = true;
        self.folds_since_sync = 0;
    }

    /// Fold all pending residual deltas — one sparse row fold per
    /// aggregated dirty entry: est[g] moved by δ ⇒ r[j] −= A[j,g]·δ over
    /// the nonzeros of column g (A symmetric: row g).
    fn fold(&mut self, a: &Csr) {
        let (rp, ci, vv) = (a.row_ptr(), a.col_idx(), a.values());
        for &g in &self.dirty {
            let delta = self.pending[g];
            self.pending[g] = 0.0;
            self.in_dirty[g] = false;
            if delta == 0.0 {
                continue;
            }
            let mut ssq = self.sum_sq;
            for idx in rp[g]..rp[g + 1] {
                let r_old = self.resid[ci[idx]];
                let r_new = r_old - vv[idx] * delta;
                ssq += r_new * r_new - r_old * r_old;
                self.resid[ci[idx]] = r_new;
            }
            self.sum_sq = ssq;
        }
        self.dirty.clear();
    }

    /// Bring the score up to date with `est` at the lower cost: fold where
    /// few entries moved, recompute outright where most did.
    fn refresh(&mut self, a: &Csr, est: &[f64]) {
        if 2 * self.dirty.len() >= est.len().max(1) {
            self.resync(a, est);
        } else {
            self.fold(a);
        }
    }
}

/// Incremental global-estimate tracker over K column slots, each scored
/// against its own stopping rule — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Monitor {
    /// Original dimension.
    n: usize,
    /// The original matrix.
    a: Csr,
    copy_count: Vec<f64>,
    global_of_local: Vec<Vec<usize>>,
    /// Latest local solution block per part (`n_local·k`) — for the
    /// wall-clock executors, the supervisor's mirror of the published
    /// blocks.
    part_values: Vec<Vec<f64>>,
    /// Per-vertex sum of copies, column-major.
    sum: Vec<f64>,
    /// Per-vertex averaged estimate, column-major.
    est: Vec<f64>,
    cols: Vec<Column>,
    series: Vec<(f64, f64)>,
    sample_interval: SimDuration,
    last_sample: Option<SimTime>,
    /// When the maintained metric drops to this value, resynchronize
    /// exactly before reporting (guards against catastrophic cancellation
    /// near convergence): the tightest live tolerance. Zero disables.
    refresh_below: f64,
    /// [`update_part`](Self::update_part) calls since the last fold.
    updates_since_flush: usize,
    /// [`update_part`](Self::update_part) calls since its last exact
    /// resync of every live column.
    updates_since_sync: usize,
    /// Total part updates — the monitor-side activation counter, uniform
    /// across DTM and the baselines (every algorithm reports exactly one
    /// update per node activation).
    updates_total: u64,
}

impl Monitor {
    /// A monitor of `slots` idle column slots over `map`'s parts and
    /// matrix. `sample_interval` throttles the recorded series (zero =
    /// record every scoring).
    ///
    /// # Panics
    /// Panics if `slots` is zero or the map's copy counts do not cover the
    /// matrix.
    pub fn new(map: &GatherMap<'_>, slots: usize, sample_interval: SimDuration) -> Self {
        assert!(slots > 0, "at least one column slot");
        let n = map.a.n_rows();
        assert_eq!(map.copy_count.len(), n, "copy_count length");
        Self {
            n,
            a: map.a.clone(),
            copy_count: map.copy_count.iter().map(|&c| c as f64).collect(),
            part_values: map
                .parts
                .iter()
                .map(|g2l| vec![0.0; g2l.len() * slots])
                .collect(),
            global_of_local: map.parts.iter().map(|g2l| g2l.to_vec()).collect(),
            sum: vec![0.0; n * slots],
            est: vec![0.0; n * slots],
            cols: (0..slots).map(|_| Column::idle(n)).collect(),
            series: Vec::new(),
            sample_interval,
            last_sample: None,
            refresh_below: 0.0,
            updates_since_flush: 0,
            updates_since_sync: 0,
            updates_total: 0,
        }
    }

    /// A **reference-free** monitor for `split` with every column live and
    /// scored by its residual, none ever done: `rhs_cols = None` tracks the
    /// split's own right-hand side (the scalar pipeline), `Some` supplies
    /// the K global columns of a block solve.
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
        let map = GatherMap::of_split(split, &a, &own_b, rhs_cols);
        let mut m = Self::new(&map, map.b_cols.len(), sample_interval);
        m.admit_all(&map.b_cols, Termination::Residual { tol: 0.0 }, None);
        m
    }

    /// Admit a ticket into slot `c`: right-hand side `b` under `rule`,
    /// with its oracle `reference` if it has one. The estimate state is
    /// **kept** — the executors' nodes still hold (and keep reporting)
    /// their current solutions, so the diffing against the kept blocks
    /// stays consistent; only the *targets* change, and the column's score
    /// is recomputed exactly against them. Whatever the slot's previous
    /// occupant scored is forgotten, its decay included.
    ///
    /// # Panics
    /// Panics on column/length mismatch.
    pub fn admit(&mut self, c: usize, b: &[f64], rule: Termination, reference: Option<&[f64]>) {
        let n = self.n;
        assert_eq!(b.len(), n, "RHS column length");
        let col = &mut self.cols[c];
        col.rule = Some(rule);
        (col.due, col.last) = (Duration::ZERO, None);
        col.b.copy_from_slice(b);
        col.b_scale = dtm_sparse::vector::norm2_or_one(b);
        col.reference = reference.map(|r| {
            assert_eq!(r.len(), n, "reference column length");
            r.to_vec()
        });
        // Residual termination stays residual-scored even when a reference
        // was supplied; the other modes score against the oracle exactly
        // when one exists.
        col.by_oracle = reference.is_some() && !matches!(rule, Termination::Residual { .. });
        col.resync(&self.a, &self.est[c * n..(c + 1) * n]);
        self.arm();
    }

    /// [`admit`](Self::admit) one column per slot, all under `rule` — a
    /// one-shot solve.
    pub(crate) fn admit_all(
        &mut self,
        b_cols: &[&[f64]],
        rule: Termination,
        references: Option<&[Vec<f64>]>,
    ) {
        for (c, b) in b_cols.iter().enumerate() {
            self.admit(c, b, rule, references.map(|refs| refs[c].as_slice()));
        }
    }

    /// Whether slot `c`'s ticket has met its own tolerance: the maintained
    /// value gates, an exact recomputation of the column confirms, so a
    /// stale or drifted number can never retire a ticket. Idle slots and
    /// [`Termination::LocalDelta`] columns are never done.
    pub fn done(&mut self, c: usize) -> bool {
        let n = self.n;
        let col = &mut self.cols[c];
        if col.within_tol() && !col.exact {
            col.resync(&self.a, &self.est[c * n..(c + 1) * n]);
        }
        col.within_tol()
    }

    /// Whether every slot is [`done`](Self::done) — a one-shot solve's
    /// stopping rule. All maintained values gate before any is confirmed,
    /// so a batch pays for exact recomputation only once its slowest column
    /// crosses.
    pub fn all_done(&mut self) -> bool {
        self.cols.iter().all(Column::within_tol) && (0..self.cols.len()).all(|c| self.done(c))
    }

    /// Free slot `c` and return its ticket's exact final numbers.
    pub fn retire(&mut self, c: usize) -> Retired {
        let n = self.n;
        let col = &mut self.cols[c];
        col.rule = None;
        let est = &self.est[c * n..(c + 1) * n];
        let retired = Retired {
            solution: est.to_vec(),
            residual: self.a.residual_norm(est, &col.b) / col.b_scale,
            rms: col
                .reference
                .as_deref()
                .map(|r| dtm_sparse::vector::rms_error(est, r)),
        };
        self.arm();
        retired
    }

    /// [`retire`](Self::retire) every slot, in order — the end of a
    /// one-shot solve.
    pub fn retire_all(&mut self) -> Vec<Retired> {
        (0..self.cols.len()).map(|c| self.retire(c)).collect()
    }

    /// Re-derive the exact-refresh threshold: the tightest live tolerance.
    fn arm(&mut self) {
        let live = self.cols.iter().filter_map(|col| col.rule);
        let tightest = live
            .filter_map(Termination::metric_tol)
            .fold(f64::INFINITY, f64::min);
        self.refresh_below = if tightest.is_finite() { tightest } else { 0.0 };
    }

    /// Override the exact-refresh threshold [`admit`](Self::admit) and
    /// [`retire`](Self::retire) derive: resynchronize whenever the
    /// maintained metric falls to `threshold`.
    pub fn set_refresh_below(&mut self, threshold: f64) {
        self.refresh_below = threshold;
    }

    /// The original matrix the columns are scored against.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// Total part updates observed — the activations this monitor has
    /// witnessed. The simulated driver asserts it against the engine's own
    /// activation counter, so the uniform counters stay uniform by
    /// construction.
    pub fn updates(&self) -> u64 {
        self.updates_total
    }

    /// The live columns.
    fn live(&self) -> impl Iterator<Item = &Column> {
        self.cols.iter().filter(|col| col.rule.is_some())
    }

    /// The live columns due for scoring at `now` (time since the session
    /// started), as a column mask for [`poll`](Self::poll) — saturated
    /// (every column) once the block is 64 or more wide and any is due.
    pub(crate) fn due(&self, now: Duration) -> u64 {
        let saturated = self.cols.len() >= 64;
        let mut mask = 0;
        for (c, col) in self.cols.iter().enumerate() {
            if col.rule.is_some() && col.due <= now {
                if saturated {
                    return u64::MAX;
                }
                mask |= 1 << c;
            }
        }
        mask
    }

    /// When the earliest live column is next due, if any column is live.
    pub(crate) fn next_due(&self) -> Option<Duration> {
        self.live().map(|col| col.due).min()
    }

    /// Set slot `c`'s next scoring after a pass scored (or admitted) it at
    /// `now` without retiring it: [`next_poll`] of the column's own metric
    /// and tolerance, at least [`POLL_INTERVAL`] ahead.
    pub(crate) fn schedule(&mut self, c: usize, now: Duration) {
        let col = &mut self.cols[c];
        let metric = col.metric();
        let tol = col.rule.and_then(Termination::metric_tol);
        let gap = next_poll(col.last, (now, metric), tol, Duration::MAX);
        col.due = now.saturating_add(gap);
        col.last = Some((now, metric));
    }

    /// Worst maintained metric over the live columns.
    pub fn metric(&self) -> f64 {
        self.live().map(Column::metric).fold(0.0, worse)
    }

    /// Worst relative residual over the live residual-scored columns, with
    /// every pending fold applied first — the returned value reflects every
    /// update.
    pub fn rel_residual(&mut self) -> f64 {
        let mut worst = 0.0_f64;
        for col in &mut self.cols {
            if col.rule.is_some() && !col.by_oracle {
                col.fold(&self.a);
                worst = worse(worst, col.metric());
            }
        }
        self.updates_since_flush = 0;
        worst
    }

    /// Recompute every live column's score exactly and return the exact
    /// worst metric.
    pub fn resync(&mut self) -> f64 {
        let n = self.n;
        for (c, col) in self.cols.iter_mut().enumerate() {
            if col.rule.is_some() {
                col.resync(&self.a, &self.est[c * n..(c + 1) * n]);
            }
        }
        self.updates_since_flush = 0;
        self.metric()
    }

    /// The one per-part fold: diff the columns of `x` selected by `cols`
    /// (a bitmask; saturated = all) against the kept block, move the
    /// estimate, and account each live column's score — eagerly for the
    /// oracle, as an aggregated pending delta for the residual.
    // lint: hot-path
    fn absorb(&mut self, part: usize, x: &[f64], cols: u64) {
        let g2l = &self.global_of_local[part];
        let values = &mut self.part_values[part];
        let (nl, n, k) = (g2l.len(), self.n, self.cols.len());
        assert_eq!(x.len(), nl * k, "monitor: local block length");
        self.updates_total += 1;
        for (c, col) in self.cols.iter_mut().enumerate() {
            if !has_col(cols, c, k) {
                continue;
            }
            col.folds_since_sync += 1;
            let live = col.rule.is_some();
            let oracle = col.reference.as_deref().filter(|_| live && col.by_oracle);
            let mut moved = false;
            for (l, &g) in g2l.iter().enumerate() {
                let (li, gi) = (c * nl + l, c * n + g);
                let old = values[li];
                if old == x[li] {
                    continue;
                }
                values[li] = x[li];
                self.sum[gi] += x[li] - old;
                let new_est = self.sum[gi] / self.copy_count[g];
                if let Some(reference) = oracle {
                    let e_old = self.est[gi] - reference[g];
                    let e_new = new_est - reference[g];
                    col.sum_sq += e_new * e_new - e_old * e_old;
                } else if live {
                    col.pending[g] += new_est - self.est[gi];
                    if !col.in_dirty[g] {
                        col.in_dirty[g] = true;
                        col.dirty.push(g);
                    }
                }
                self.est[gi] = new_est;
                moved = true;
            }
            col.exact &= !moved;
        }
    }

    /// Record `metric` in the series if a sample is due.
    fn record(&mut self, time: SimTime, metric: f64) {
        let due = match self.last_sample {
            None => true,
            Some(t0) => time.since(t0) >= self.sample_interval,
        };
        if due {
            self.series.push((time.as_millis_f64(), metric));
            self.last_sample = Some(time);
        }
    }

    /// Fold one part's newly solved local block in (`x` is the part's
    /// `n_local·k` column-major solution); returns the current worst
    /// maintained metric — exactly recomputed whenever it is at or below
    /// the tightest live tolerance.
    pub fn update_part(&mut self, part: usize, time: SimTime, x: &[f64]) -> f64 {
        self.absorb(part, x, u64::MAX);
        // Deferred residual fold: every RESID_FLUSH_EVERY updates — or
        // every update once the metric is within RESID_NEAR_FACTOR of the
        // refresh threshold (≈ the stopping tolerance), where freshness
        // decides when the run ends.
        self.updates_since_flush += 1;
        let by_residual = self.live().filter(|col| !col.by_oracle);
        let worst_residual = by_residual.map(Column::metric).fold(0.0, worse);
        let near =
            self.refresh_below > 0.0 && worst_residual < self.refresh_below * RESID_NEAR_FACTOR;
        if near || self.updates_since_flush >= RESID_FLUSH_EVERY {
            self.rel_residual();
        }
        let mut metric = self.metric();
        self.updates_since_sync += 1;
        // `<=`, not `<`: a stop decision compares `metric <= tol`, so the
        // boundary value must also be re-derived exactly. A maintained
        // value that drifted **at or below** the threshold is never allowed
        // to terminate a run by itself.
        if self.refresh_below > 0.0
            && (metric <= self.refresh_below || self.updates_since_sync >= RESYNC_EVERY)
        {
            metric = self.resync();
            self.updates_since_sync = 0;
        }
        self.record(time, metric);
        metric
    }

    /// Take a whole round in — `blocks` yields every part's block, in
    /// ascending part order (with three or more copies of a vertex the
    /// order of the additions is part of the bits) — and score it exactly.
    /// Every entry moves every round, so nothing is diffed: the estimate is
    /// gathered afresh (no drift carried from round to round) and each live
    /// column recomputed outright — one gather and one SpMV per column.
    /// Returns the worst metric.
    ///
    /// # Panics
    /// Panics unless `blocks` yields exactly one right-sized block per part.
    pub fn update_round<'a>(
        &mut self,
        time: SimTime,
        blocks: impl IntoIterator<Item = &'a [f64]>,
    ) -> f64 {
        let n = self.n;
        self.sum.fill(0.0);
        let mut parts = 0;
        for (x, (g2l, values)) in blocks
            .into_iter()
            .zip(self.global_of_local.iter().zip(&mut self.part_values))
        {
            values.copy_from_slice(x);
            for (c, col) in x.chunks_exact(g2l.len().max(1)).enumerate() {
                for (&g, &v) in g2l.iter().zip(col) {
                    self.sum[c * n + g] += v;
                }
            }
            parts += 1;
        }
        assert_eq!(parts, self.part_values.len(), "one block per part");
        self.updates_total += parts as u64;
        for (est, sum) in self.est.chunks_exact_mut(n).zip(self.sum.chunks_exact(n)) {
            for ((e, &s), &cc) in est.iter_mut().zip(sum).zip(&self.copy_count) {
                *e = s / cc;
            }
        }
        let metric = self.resync();
        self.record(time, metric);
        metric
    }

    /// One supervisor pass over the wall-clock workers' published blocks,
    /// for the columns in `want` (`u64::MAX` = every column, a one-shot
    /// solve): fold in what the workers dirtied of them since they were
    /// last wanted — each block under its own lock, nothing else — then
    /// bring every wanted live column that moved up to date, folding or
    /// recomputing, whichever is less work — recomputing outright once
    /// [`RESYNC_EVERY`] folds went into the column since its last exact
    /// recomputation; returns the worst maintained metric. The other
    /// columns stay dirty in their blocks and keep their scores. A pass
    /// where nothing wanted changed takes no lock; nothing here allocates.
    // lint: hot-path
    pub(crate) fn poll(&mut self, time: SimTime, snapshots: &[SharedBlock], want: u64) -> f64 {
        for (p, snap) in snapshots.iter().enumerate() {
            snap.drain(want, |block, cols| self.absorb(p, block, cols));
        }
        let (n, k) = (self.n, self.cols.len());
        let armed = self.refresh_below > 0.0;
        for (c, col) in self.cols.iter_mut().enumerate() {
            if !has_col(want, c, k) || col.rule.is_none() || col.exact {
                continue;
            }
            let est = &self.est[c * n..(c + 1) * n];
            if armed && col.folds_since_sync >= RESYNC_EVERY {
                col.resync(&self.a, est);
            } else {
                col.refresh(&self.a, est);
            }
        }
        let metric = self.metric();
        self.record(time, metric);
        metric
    }

    /// Current global estimate of column 0 (copies averaged).
    pub fn estimate(&self) -> &[f64] {
        self.estimate_col(0)
    }

    /// Current global estimate of one column.
    pub fn estimate_col(&self, col: usize) -> &[f64] {
        &self.est[col * self.n..(col + 1) * self.n]
    }

    /// Consume into the recorded `(time_ms, metric)` staircase (worst live
    /// column).
    pub fn into_series(self) -> Vec<(f64, f64)> {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_graph::evs::{split, EvsOptions};
    use dtm_graph::{ElectricGraph, PartitionPlan};
    use dtm_sparse::{generators, vector};

    fn make() -> (SplitSystem, Vec<f64>) {
        let a = generators::grid2d_laplacian(4, 4);
        let b = generators::random_rhs(16, 1);
        let reference = dtm_sparse::SparseCholesky::factor(&a).unwrap().solve(&b);
        let g = ElectricGraph::from_system(a, b).unwrap();
        let asg = dtm_graph::partition::grid_strips(4, 4, 2);
        let plan = PartitionPlan::from_assignment(&g, &asg).unwrap();
        (split(&g, &plan, &EvsOptions::default()).unwrap(), reference)
    }

    /// `slots` idle slots over `ss`.
    fn idle(ss: &SplitSystem, slots: usize, sample_interval: SimDuration) -> Monitor {
        let (a, b) = ss.reconstruct();
        Monitor::new(
            &GatherMap::of_split(ss, &a, &b, None),
            slots,
            sample_interval,
        )
    }

    /// One column per reference, scored by oracle RMS at `tol`.
    fn oracle(ss: &SplitSystem, refs: &[Vec<f64>], tol: f64, interval: SimDuration) -> Monitor {
        let (_, b) = ss.reconstruct();
        let mut m = idle(ss, refs.len(), interval);
        for (c, r) in refs.iter().enumerate() {
            m.admit(c, &b, Termination::OracleRms { tol }, Some(r));
        }
        m
    }

    /// Part `p`'s local copy of the global vector `x`.
    fn local(ss: &SplitSystem, p: usize, x: &[f64]) -> Vec<f64> {
        let g2l = &ss.subdomains[p].global_of_local;
        g2l.iter().map(|&g| x[g]).collect()
    }

    /// Feed every part its local copy of `x`.
    fn feed(m: &mut Monitor, ss: &SplitSystem, x: &[f64], t0: u64) {
        for p in 0..ss.n_parts() {
            m.update_part(p, SimTime::from_nanos(t0 + p as u64), &local(ss, p, x));
        }
    }

    /// Poll a metric `m(t)` (t in seconds) on [`next_poll`]'s cadence from
    /// t = 0 until it reaches `tol` or the budget runs out; returns every
    /// poll's `(time, gap slept before it)`.
    fn cadence(m: impl Fn(f64) -> f64, tol: f64, budget: Duration) -> Vec<(Duration, Duration)> {
        let (mut t, mut gap, mut last, mut polls) = (Duration::ZERO, POLL_INTERVAL, None, vec![]);
        loop {
            t += gap;
            polls.push((t, gap));
            let now = (t, m(t.as_secs_f64()));
            if now.1 <= tol || t >= budget {
                return polls;
            }
            gap = next_poll(last, now, Some(tol), budget - t);
            last = Some(now);
        }
    }

    #[test]
    fn geometric_decay_is_polled_in_logarithmically_many_steps() {
        let floor = POLL_INTERVAL.as_secs_f64();
        for (tol, span) in [(1e-8, 1.0), (1e-6, 0.05), (1e-10, 20.0)] {
            // m(t) = tol^(t/span): from 1 at t = 0 to tol at t = span.
            let polls = cadence(|t| tol.powf(t / span), tol, Duration::from_secs(3600));
            let bound = 2.0 * (span / floor).log2() + 4.0;
            assert!(
                (polls.len() as f64) <= bound,
                "span {span}: {} polls, bound {bound}",
                polls.len()
            );
            for pair in polls.windows(2) {
                assert!(pair[1].1 <= 2 * pair[0].1, "span {span}: gap grew past 2×");
            }
            // The rate is predicted exactly, so the crossing is seen within
            // one floor interval.
            let crossed = polls.last().unwrap().0.as_secs_f64();
            assert!(
                crossed >= span && crossed <= span + floor + 1e-9,
                "{crossed}"
            );
        }
    }

    #[test]
    fn no_decay_to_go_by_sleeps_the_floor() {
        let (t0, t1) = (Duration::from_millis(4), Duration::from_millis(8));
        let left = Duration::from_secs(10);
        let floor = |last: Option<(Duration, f64)>, m: f64, tol: Option<f64>| {
            next_poll(last, (t1, m), tol, left) == POLL_INTERVAL
        };
        let decay = Some((t0, 1e-2));
        assert!(
            !floor(decay, 1e-3, Some(1e-8)),
            "a falling metric sleeps longer"
        );
        assert!(floor(None, 1e-3, Some(1e-8)), "first poll");
        assert!(floor(Some((t0, 1e-4)), 1e-3, Some(1e-8)), "rising");
        assert!(floor(Some((t0, 1e-3)), 1e-3, Some(1e-8)), "flat");
        assert!(floor(decay, f64::NAN, Some(1e-8)), "NaN metric");
        assert!(floor(Some((t0, f64::NAN)), 1e-3, Some(1e-8)), "NaN before");
        assert!(
            floor(Some((t0, f64::INFINITY)), 1e-3, Some(1e-8)),
            "Inf before"
        );
        assert!(floor(decay, 1e-3, Some(f64::NAN)), "NaN tolerance");
        assert!(floor(decay, 1e-3, Some(0.0)), "τ = 0");
        assert!(floor(decay, 1e-3, None), "no metric tolerance");
        assert!(floor(decay, 1e-9, Some(1e-8)), "already within");
        assert!(floor(Some((t1, 1e-2)), 1e-3, Some(1e-8)), "no time passed");
    }

    #[test]
    fn no_sleep_crosses_the_budget() {
        let (t0, t1) = (Duration::from_millis(100), Duration::from_millis(200));
        for left_us in [0, 1, 300, 499, 500, 501, 10_000, 150_000, 10_000_000] {
            let left = Duration::from_micros(left_us);
            for last in [None, Some((t0, 1e-1))] {
                let gap = next_poll(last, (t1, 1e-2), Some(1e-12), left);
                assert!(gap <= left, "{gap:?} past {left:?}");
            }
        }
        // Simulated under a budget the decay cannot meet: the last poll
        // falls on the budget, not a growing gap beyond it.
        let budget = Duration::from_millis(200);
        let polls = cadence(|t| (-t).exp(), 1e-12, budget);
        assert_eq!(polls.last().unwrap().0, budget);
        assert!(polls.len() < 40, "{} polls", polls.len());
    }

    #[test]
    fn an_accelerating_decay_is_overshot_by_at_most_one_gap() {
        // m(t) = tol^((t/span)²): the rate keeps rising, so every estimate
        // is too slow and the prediction errs late.
        let (tol, span) = (1e-8, 0.2);
        let polls = cadence(|t| tol.powf((t / span).powi(2)), tol, Duration::MAX);
        let (crossed, gap) = *polls.last().unwrap();
        let before = polls[polls.len() - 2].0.as_secs_f64();
        assert!(before < span && crossed.as_secs_f64() >= span);
        let overshoot = crossed.as_secs_f64() - span;
        assert!(overshoot < gap.as_secs_f64(), "overshoot {overshoot}");
        assert!(overshoot < span / 2.0, "overshoot {overshoot} of {span}");
        assert!(polls.len() < 30, "{} polls", polls.len());
    }

    #[test]
    fn each_column_is_due_on_its_own_decay() {
        let (ss, _) = make();
        let (_, b) = ss.reconstruct();
        let rule = Termination::Residual { tol: 1e-6 };
        let mut m = idle(&ss, 3, NO_SERIES);
        assert_eq!((m.due(Duration::MAX), m.next_due()), (0, None), "idle");
        m.admit(0, &b, rule, None);
        m.admit(2, &b, rule, None);
        assert_eq!(m.due(Duration::ZERO), 0b101, "an admitted column is due");
        let t1 = Duration::from_millis(1);
        m.schedule(0, t1);
        m.schedule(2, t1);
        assert_eq!(m.next_due(), Some(t1 + POLL_INTERVAL), "no decay yet");
        assert_eq!(m.due(t1 + POLL_INTERVAL / 2), 0);
        // Column 0's metric falls tenfold in a millisecond, column 2's
        // stays put: column 0 waits longer, column 2 the floor.
        m.cols[0].sum_sq /= 100.0;
        let t2 = Duration::from_millis(2);
        m.schedule(0, t2);
        m.schedule(2, t2);
        assert_eq!(m.due(t2 + POLL_INTERVAL), 0b100);
        assert_eq!(m.cols[0].due, t2 + 2 * (t2 - t1), "growth-capped");
        // Too wide for the mask: any due column makes every column due.
        let mut wide = idle(&ss, 64, NO_SERIES);
        wide.admit(63, &b, rule, None);
        assert_eq!(wide.due(Duration::ZERO), u64::MAX);
        wide.schedule(63, t1);
        assert_eq!(wide.due(t1), 0);
    }

    #[test]
    fn a_rarely_scored_column_is_resynced_after_its_own_folds() {
        // One part holding every unknown of the 4×4 grid, two slots.
        // Column 1 is wanted on every pass and column 0 only on every
        // fourth, off the passes where a count of all part updates would
        // come round to `RESYNC_EVERY`.
        let a = generators::grid2d_laplacian(4, 4);
        let (rows, copies) = ((0..16).collect::<Vec<_>>(), [1; 16]);
        let b = generators::random_rhs(16, 3);
        let map = GatherMap::new(vec![&rows[..]], &copies, &a, vec![&b[..]]);
        let mut m = Monitor::new(&map, 2, NO_SERIES);
        let rule = Termination::Residual { tol: 1e-9 };
        m.admit(0, &b, rule, None);
        m.admit(1, &b, rule, None);
        // Drift column 0's running sum: a fold carries it along, only an
        // exact recomputation removes it.
        m.cols[0].sum_sq += 1.0;
        let block = SharedBlock::new(16, 2);
        let mut x = vec![0.0; 32];
        let mut folds = 0;
        for pass in 1..4 * RESYNC_EVERY + 8 {
            // One entry of each column moves per pass, so each refresh
            // folds rather than recomputes.
            x[pass % 16] += 1e-3;
            x[16 + pass % 16] += 1e-3;
            block.publish(&x, 0b11);
            let want = if pass % 4 == 1 { 0b11 } else { 0b10 };
            m.poll(SimTime::ZERO, std::slice::from_ref(&block), want);
            if want & 1 == 0 {
                continue;
            }
            folds += 1;
            let exact = a.residual_norm(m.estimate_col(0), &b) / vector::norm2(&b);
            let drifted = (m.cols[0].metric() - exact).abs() > 1e-9;
            assert_eq!(drifted, folds < RESYNC_EVERY, "fold {folds} of column 0");
        }
        assert!(folds > RESYNC_EVERY);
    }

    #[test]
    fn a_nan_score_is_never_within_tolerance() {
        let (ss, _) = make();
        let (_, b) = ss.reconstruct();
        let mut m = idle(&ss, 2, SimDuration::ZERO);
        let mut bad = b.clone();
        bad[3] = f64::NAN;
        m.admit(0, &b, Termination::Residual { tol: 1e300 }, None);
        m.admit(1, &bad, Termination::Residual { tol: 1e300 }, None);
        assert!(m.metric().is_nan(), "the NaN column is the worst");
        assert!(m.done(0) && !m.done(1) && !m.all_done());
        assert!(m.rel_residual().is_nan() && m.resync().is_nan());
        assert_eq!(worse(1.0, 2.0), 2.0);
        assert!(worse(f64::NAN, 2.0).is_nan() && worse(2.0, f64::NAN).is_nan());
    }

    #[test]
    fn starts_at_reference_norm() {
        let (ss, reference) = make();
        let m = oracle(
            &ss,
            std::slice::from_ref(&reference),
            1e-6,
            SimDuration::ZERO,
        );
        let expect = vector::rms_error(&[0.0; 16], &reference);
        assert!((m.metric() - expect).abs() < 1e-12);
    }

    #[test]
    fn feeding_exact_solution_drives_rms_to_zero() {
        let (ss, reference) = make();
        let mut m = oracle(
            &ss,
            std::slice::from_ref(&reference),
            1e-6,
            SimDuration::ZERO,
        );
        feed(&mut m, &ss, &reference, 0);
        assert!(m.metric() < 1e-12, "rms {}", m.metric());
        assert!(m.done(0));
        for (e, r) in m.estimate().iter().zip(&reference) {
            assert!((e - r).abs() < 1e-12);
        }
        assert!(m.retire(0).rms.unwrap() < 1e-12);
    }

    #[test]
    fn incremental_matches_exact() {
        let (ss, reference) = make();
        let mut m = oracle(&ss, &[reference], 0.0, SimDuration::ZERO);
        // Feed arbitrary values in several rounds; drift must stay tiny.
        for round in 0..5 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let local: Vec<f64> = (0..sd.n_local())
                    .map(|l| ((l + round) as f64 * 0.37).sin())
                    .collect();
                m.update_part(p, SimTime::from_nanos((round * 10 + p) as u64), &local);
            }
        }
        let incremental = m.metric();
        assert!((incremental - m.resync()).abs() < 1e-10);
    }

    #[test]
    fn update_counter_counts_activations() {
        let (ss, reference) = make();
        let mut m = oracle(&ss, &[reference], 1e-6, SimDuration::ZERO);
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
        let refs = [reference];
        let mut dense = oracle(&ss, &refs, 1e-6, SimDuration::ZERO);
        let mut sparse = oracle(&ss, &refs, 1e-6, SimDuration::from_nanos(100));
        for k in 0..50u64 {
            let local: Vec<f64> = vec![k as f64; ss.subdomains[0].n_local()];
            dense.update_part(0, SimTime::from_nanos(k * 10), &local);
            sparse.update_part(0, SimTime::from_nanos(k * 10), &local);
        }
        assert_eq!(dense.into_series().len(), 50);
        assert!(sparse.into_series().len() < 10);
    }

    #[test]
    fn residual_monitor_starts_at_one_and_reaches_zero() {
        // est = 0 ⇒ r = b ⇒ ‖r‖/‖b‖ = 1 exactly; feeding the exact
        // solution drives the relative residual to ~0 (reference-free: no
        // direct solve of the original system is involved in the metric).
        let (ss, reference) = make();
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        m.set_refresh_below(1e-6);
        assert!((m.rel_residual() - 1.0).abs() < 1e-12);
        feed(&mut m, &ss, &reference, 0);
        // The incremental accumulator carries cancellation drift until a
        // resync; the exact recompute is clean immediately.
        assert!(m.rel_residual() < 1e-6, "residual {}", m.rel_residual());
        assert!(m.resync() < 1e-10);
        let done = m.retire(0);
        assert!(done.residual < 1e-10);
        assert_eq!(done.rms, None, "reference-free");
    }

    #[test]
    fn incremental_residual_matches_exact_recompute() {
        let (ss, _) = make();
        let (a, b) = ss.reconstruct();
        let bnorm = vector::norm2(&b);
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
        // A residual-rule column that carries a reference stays
        // residual-scored — the metric (and the series) never see the
        // oracle — and reports its RMS when it retires.
        let (ss, reference) = make();
        let (_, b) = ss.reconstruct();
        let mut m = idle(&ss, 1, SimDuration::ZERO);
        m.admit(0, &b, Termination::Residual { tol: 1e-6 }, Some(&reference));
        assert!(
            (m.metric() - 1.0).abs() < 1e-12,
            "‖b − A·0‖/‖b‖, not an RMS"
        );
        for p in 0..ss.n_parts() {
            let metric =
                m.update_part(p, SimTime::from_nanos(p as u64), &local(&ss, p, &reference));
            assert!(metric <= 1.0 + 1e-12, "residual metric");
        }
        assert!(!m.done(0), "the maintained value is a fold window stale");
        assert!(m.rel_residual() < 1e-6);
        assert!(m.done(0));
        let done = m.retire(0);
        assert!(done.residual < 1e-10);
        assert!(done.rms.unwrap() < 1e-12);
    }

    #[test]
    fn drifted_incremental_value_cannot_declare_convergence() {
        // Regression (stale deferred fold): simulate a drifted incremental
        // accumulator sitting AT the stopping tolerance while the exact
        // residual is far above it. Neither `done` nor the next
        // `update_part` may act on it: both re-derive the value exactly
        // first.
        let (ss, _) = make();
        let (a, b) = ss.reconstruct();
        let tol = 1e-6;
        let drift = |m: &mut Monitor| {
            m.rel_residual();
            let col = &mut m.cols[0];
            col.sum_sq = (tol * col.b_scale).powi(2);
            col.exact = false;
            assert_eq!(m.metric(), tol, "drifted value is in place");
        };
        let exact = |m: &Monitor| a.residual_norm(m.estimate(), &b) / vector::norm2(&b);
        let mut m = idle(&ss, 1, SimDuration::ZERO);
        m.admit(0, &b, Termination::Residual { tol }, None);
        // One genuine update so the estimate is nonzero and far from
        // convergence.
        let local0: Vec<f64> = (0..ss.subdomains[0].n_local())
            .map(|l| 0.5 + l as f64 * 0.1)
            .collect();
        m.update_part(0, SimTime::from_nanos(0), &local0);
        assert!(exact(&m) > 100.0 * tol, "setup: far from converged");

        drift(&mut m);
        assert!(
            !m.done(0),
            "the gate passed, the exact confirmation did not"
        );
        assert_eq!(m.metric(), exact(&m), "and the drift is gone");

        drift(&mut m);
        let local1 = vec![0.0; ss.subdomains[1].n_local()];
        let reported = m.update_part(1, SimTime::from_nanos(1), &local1);
        assert_eq!(reported, exact(&m), "reported the exact metric, not {tol}");
        assert!(reported > tol);
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
        let (a, b) = ss.reconstruct();
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
                    let exact = a.residual_norm(m.estimate(), &b) / vector::norm2(&b);
                    assert_eq!(reported, exact, "round {round}: stop-eligible value");
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
        // Perturbing the estimate raises the absolute residual; it stays
        // finite and returns to ~0 when the parts report zeros again.
        let n0 = ss.subdomains[0].n_local();
        m.update_part(0, SimTime::from_nanos(0), &vec![0.5; n0]);
        let m1 = m.rel_residual();
        assert!(m1.is_finite() && m1 > 0.0, "perturbed metric {m1}");
        m.update_part(0, SimTime::from_nanos(1), &vec![0.0; n0]);
        assert!(m.rel_residual().is_finite());
        assert!(m.resync() < 1e-12);
        assert_eq!(m.retire(0).residual, 0.0);
    }

    #[test]
    fn block_monitor_tracks_worst_column() {
        // Two columns: feed column 0 its exact solution, leave column 1 at
        // zero — the reported RMS must be column 1's error, and the
        // per-column numbers must distinguish them.
        let (ss, reference) = make();
        let ref2: Vec<f64> = reference.iter().map(|v| v * 2.0).collect();
        let mut m = oracle(
            &ss,
            &[reference.clone(), ref2.clone()],
            1e-6,
            SimDuration::ZERO,
        );
        for (p, sd) in ss.subdomains.iter().enumerate() {
            let nl = sd.n_local();
            let mut block = vec![0.0; nl * 2];
            block[..nl].copy_from_slice(&local(&ss, p, &reference)); // column 0 exact
            m.update_part(p, SimTime::from_nanos(p as u64), &block);
        }
        let expect = vector::rms_error(&[0.0; 16], &ref2);
        assert!((m.metric() - expect).abs() < 1e-9, "worst column wins");
        assert!(m.done(0) && !m.done(1) && !m.all_done());
        // Column estimates address the right slices.
        for (e, r) in m.estimate_col(0).iter().zip(&reference) {
            assert!((e - r).abs() < 1e-12);
        }
        let per = m.retire_all();
        assert!(per[0].rms.unwrap() < 1e-12, "column 0 exact");
        assert!((per[1].rms.unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn mixed_rule_slots_admit_score_retire_and_readmit() {
        // K = 3 under mixed rules — a loose residual ticket, a tight oracle
        // ticket, an idle slot — driven through the whole life-cycle while
        // the estimate is mid-flight. Every `done` is checked against a
        // from-scratch recomputation of that column's own metric.
        let (ss, _) = make();
        let (a, _) = ss.reconstruct();
        let factor = dtm_sparse::SparseCholesky::factor(&a).unwrap();
        let rhs = |seed| generators::random_rhs(16, seed);
        let (b0, b1, b2) = (rhs(70), rhs(71), rhs(72));
        let (x0, x1, x2) = (factor.solve(&b0), factor.solve(&b1), factor.solve(&b2));
        let (loose, tight) = (1e-3, 1e-8);
        let resid = |x: &[f64], b: &[f64]| a.residual_norm(x, b) / vector::norm2(b);

        let mut m = idle(&ss, 3, SimDuration::ZERO);
        m.admit(0, &b0, Termination::Residual { tol: loose }, None);
        m.admit(1, &b1, Termination::OracleRms { tol: tight }, Some(&x1));
        // Approach (x0, x1, junk) geometrically, part by part; slot 2 is
        // idle and carries values nobody scores.
        let mut first_done = [None; 2];
        for step in 0..40 {
            let err = 0.5_f64.powi(step);
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let wobble = |g: usize| 1.0 + err * (1.0 + 0.3 * ((g + p) as f64).sin());
                let col = |x: &[f64]| -> Vec<f64> {
                    let g2l = &sd.global_of_local;
                    g2l.iter().map(|&g| x[g] * wobble(g)).collect()
                };
                let block = [col(&x0), col(&x1), vec![step as f64; sd.n_local()]].concat();
                m.update_part(
                    p,
                    SimTime::from_nanos((step * 10) as u64 + p as u64),
                    &block,
                );
                let scratch = [
                    resid(m.estimate_col(0), &b0) <= loose,
                    vector::rms_error(m.estimate_col(1), &x1) <= tight,
                ];
                for c in 0..2 {
                    // A stale maintained value may hold a `done` back, never
                    // bring one forward.
                    let done = m.done(c);
                    assert!(!done || scratch[c], "step {step}: slot {c} done early");
                    if done {
                        first_done[c].get_or_insert(step);
                    }
                }
                assert!(!m.done(2), "an idle slot is never done");
                assert!(!m.all_done(), "… so the block never is either");
            }
        }
        assert!(
            first_done[0].unwrap() < first_done[1].unwrap(),
            "the loose ticket finishes first: {first_done:?}"
        );

        // Retire the loose ticket; its numbers are those of the estimate.
        let r0 = m.retire(0);
        assert_eq!(r0.residual, resid(&r0.solution, &b0));
        assert!(r0.residual <= loose && r0.rms.is_none());
        assert!(!m.done(0), "a retired slot is idle, not done");
        // Re-admit a new ticket into it mid-run: the score re-anchors on the
        // new targets against the *current* estimate — the old answer.
        m.admit(0, &b2, Termination::OracleRms { tol: tight }, Some(&x2));
        assert!(!m.done(0), "the outgoing estimate does not answer b2");
        assert_eq!(m.metric(), vector::rms_error(m.estimate_col(0), &x2));
        // And the idle slot goes live under a residual rule.
        m.admit(2, &b0, Termination::Residual { tol: tight }, None);
        assert_eq!(m.metric().max(1.0), m.metric(), "slot 2 holds junk");
        let blocks: Vec<Vec<f64>> = (0..ss.n_parts())
            .map(|p| [local(&ss, p, &x2), local(&ss, p, &x1), local(&ss, p, &x0)].concat())
            .collect();
        for (p, block) in blocks.iter().enumerate() {
            m.update_part(p, SimTime::from_nanos(1_000), block);
        }
        m.resync();
        assert!(m.all_done());
        let all = m.retire_all();
        assert!(all[0].rms.unwrap() <= tight && all[1].rms.unwrap() <= tight);
        assert!(all[2].residual <= tight && all[2].rms.is_none());
    }
}
