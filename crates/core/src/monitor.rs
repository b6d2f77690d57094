//! The one scorer: every executor's supervisor side, over a block of K
//! column slots.
//!
//! The paper's convergence figures (8, 9, 12, 14) plot the error of the
//! evolving distributed state against the true solution `x* = A⁻¹b`. The
//! [`Monitor`] keeps the *global* estimate (averaging every split vertex's
//! copies), scores every live column exactly each time the estimate moves,
//! records a `(time, metric)` staircase series, and holds each column to
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
//!   RMS *reporting*).
//!
//! There is one way to score a column: recompute its metric outright from
//! the estimate — one SpMV for a residual column, one O(n) difference
//! against the reference for an oracle column. No running sum is carried
//! from one scoring to the next, so no rounding error of earlier, larger
//! terms is carried either: a score is exact down to the last bits of the
//! estimate, whatever the tolerance. The one refinement is where the
//! SpMV's rows are computed: once [`update_part`](Monitor::update_part)
//! feeds the monitor, a residual column keeps each row's square, an
//! activation recomputes only the rows its part's vertices appear in —
//! no other row's terms moved — and all n squares are summed in row
//! order, [`Csr::residual_norm`] bit for bit.
//!
//! # Feeding it
//!
//! The monitor keeps the last block each part reported — three feeds:
//!
//! * [`update_part`](Monitor::update_part) — one activation (the simulated
//!   and lock-step machines): the part's new block is diffed against the
//!   kept one, the estimate moves entry by entry, and every live column
//!   the block moved is scored exactly — one scoring per moved column per
//!   activation, over the rows the part touches (reading the block of a
//!   part on the port path completes its interior, once per activation);
//! * `poll` — whatever the wall-clock workers published since the last
//!   poll, for the columns the pass asks for: each block's dirty wanted
//!   columns are copied into the kept copy — the supervisor's mirror of
//!   the published blocks — under the block's lock, a slice copy and
//!   nothing else; then every wanted live column that any part published
//!   is gathered afresh from the mirror and scored. A part on the port
//!   path is published by the pool just before the poll
//!   ([`Pool::snapshots`](crate::fabric::Pool::snapshots) completes its
//!   interior), not by its worker after each step.
//! * [`update_round`](Monitor::update_round) — the distributed round
//!   executor (`dtm-net`'s supervisor) hands over every part's block at
//!   once for each round it scores — the rounds [`next_round`] picks, not
//!   every round: every entry moved since the last scored round, so there
//!   is nothing to diff — and every column is gathered afresh and scored.
//!   The groups are told the next such round and build no snapshot (so
//!   complete no port-path interior) for the rounds before it.
//!
//! `poll` and `update_round` share the one gather (copies summed in
//! ascending part order, then averaged); `update_part` moves the estimate
//! by the per-entry difference instead, which costs O(|part|·K) rather
//! than a gather, and whose bits every simulated figure is pinned to.
//!
//! # Warm-started admission
//!
//! DTM's wave iteration contracts from any starting state (Theorem 6.1),
//! and a node's state is linear in its right-hand side and its waves, so
//! a scaled state is exactly the state of a scaled right-hand side.
//! [`admit`](Monitor::admit) therefore starts a slot's new ticket `b` from
//! the multiple `α·x̂` of the slot's kept estimate `x̂` that is closest to
//! `x* = A⁻¹b` in the A-norm, `α = x̂ᵀb / x̂ᵀAx̂` — the one-vector case of
//! Fischer's projection for successive right-hand sides — and returns `α`
//! for the executor to scale the column's node state by. `α = 0` (the
//! zero start of eq. (5.6)) is one of the candidates, so the start's
//! A-norm error is never above the cold start's; an uncorrelated ticket
//! gets `α ≈ 0`, a never-used slot exactly 0.
//!
//! # Stopping
//!
//! [`done`](Monitor::done) reads a score that is already exact: every feed
//! rescored the columns it moved, so **a stop decision is only ever taken
//! on an exactly recomputed value**, of the very estimate
//! [`retire`](Monitor::retire) then returns, and a run stops at the first
//! feed whose estimate meets the tolerance. A NaN score is never within a
//! tolerance: every worst-of fold here keeps it.
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
//! that column's metric and tolerance, and a pass copies in and scores only
//! the due columns (`Monitor::due`, `Monitor::schedule`) — the others'
//! published values wait in their blocks, costing nothing. The round
//! supervisor applies the rule on a clock that counts rounds
//! ([`next_round`]): it scores round `r` and then the round that the decay
//! between its last two scored rounds calls for, at least the next one —
//! a pure function of round indices and exact metrics, so every run of the
//! same problem scores the same rounds and stops at the same one.

use crate::local::{has_col, scale_or_zero};
use crate::runtime::wallclock::SharedBlock;
use crate::runtime::{GatherMap, Termination};
use dtm_graph::evs::SplitSystem;
use dtm_simnet::{SimDuration, SimTime};
use dtm_sparse::Csr;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
/// No sleep outlasts `left`. [`next_round`] is the same rule in rounds.
pub(crate) fn next_poll(
    last: Option<(Duration, f64)>,
    now: (Duration, f64),
    tol: Option<f64>,
    left: Duration,
) -> Duration {
    let gap = match (last, tol) {
        (Some((t0, m0)), Some(tol)) => {
            let dt = now.0.saturating_sub(t0).as_secs_f64();
            decay_gap(dt, m0, now.1, tol).map_or(POLL_INTERVAL, |secs| {
                let secs = secs.max(POLL_INTERVAL.as_secs_f64());
                Duration::try_from_secs_f64(secs).unwrap_or(POLL_INTERVAL)
            })
        }
        _ => POLL_INTERVAL,
    };
    gap.min(left)
}

/// The round a round-by-round supervisor scores next, after scoring round
/// `now.0` at metric `now.1` under the metric tolerance `tol` — `last` is
/// the previous scored round and its metric. The wall-clock supervisors'
/// cadence on a clock that counts rounds: half the predicted rounds left to
/// the crossing, at most twice the gap between the last two scored rounds,
/// and at least one round — the whole cadence wherever there is no decay
/// to go by (the first round, a flat or rising metric, a NaN, `tol ≤ 0`).
/// A pure function of round indices and metrics: runs that score the same
/// metrics score the same rounds.
pub fn next_round(last: Option<(u64, f64)>, now: (u64, f64), tol: f64) -> u64 {
    let gap = last
        .filter(|&(r0, _)| r0 < now.0)
        .and_then(|(r0, m0)| decay_gap((now.0 - r0) as f64, m0, now.1, tol))
        .map_or(1, |rounds| (rounds.floor() as u64).max(1));
    now.0.saturating_add(gap)
}

/// The cadence both clocks share: having scored `m₀` and then `m`, `dt`
/// apart, the wait before the next scoring, before the clock's floor —
/// while `m₀ > m > tol > 0` (all finite), [`POLL_LEAD`] of the predicted
/// `ln(m/tol)/λ` left to the crossing under the rate `λ = ln(m₀/m)/dt` the
/// metric just showed, capped at [`POLL_GROWTH`]`·dt`; `None` otherwise.
fn decay_gap(dt: f64, m0: f64, m: f64, tol: f64) -> Option<f64> {
    if !(m0.is_finite() && m0 > m && m > tol && tol > 0.0) {
        return None;
    }
    let rate = (m0 / m).ln() / dt;
    let remaining = (m / tol).ln() / rate;
    Some((POLL_LEAD * remaining).min(POLL_GROWTH * dt))
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

/// One column slot: the ticket occupying it and its exact score.
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
    /// The column's metric — RMS error or relative residual — of the
    /// estimate as last scored.
    score: f64,
    /// A rolling session's next scoring of this column, as time since the
    /// session started ([`Monitor::schedule`]).
    due: Duration,
    /// The column's last scored `(time, metric)`, whose decay
    /// [`next_poll`] extrapolates; `None` until the occupant is scored.
    last: Option<(Duration, f64)>,
    /// Each row's squared residual as last scored, kept once the monitor
    /// rescores row by row ([`Monitor::update_part`]); empty until then.
    sq: Vec<f64>,
}

impl Column {
    fn idle(n: usize) -> Self {
        Self {
            rule: None,
            b: vec![0.0; n],
            b_scale: 1.0,
            reference: None,
            by_oracle: false,
            score: 0.0,
            due: Duration::ZERO,
            last: None,
            sq: Vec::new(),
        }
    }

    /// Whether the metric meets the occupant's own tolerance. Idle slots
    /// and [`Termination::LocalDelta`] columns (scored passively; their
    /// nodes halt themselves) never do.
    fn within_tol(&self) -> bool {
        let tol = self.rule.and_then(Termination::metric_tol);
        tol.is_some_and(|tol| self.score <= tol)
    }

    /// Score the column exactly from the estimate: one O(n) difference
    /// against the reference, or the residual — the very numbers
    /// [`Monitor::retire`] reports. Where the column keeps its rows'
    /// squares, those of `rows` (`None`: every row) are recomputed and all
    /// n are summed in row order, which is [`Csr::residual_norm`] bit for
    /// bit as long as no other row has moved since its square was kept;
    /// otherwise the residual is one SpMV.
    fn rescore(&mut self, a: &Csr, est: &[f64], rows: Option<&[u32]>) {
        self.score = match &self.reference {
            Some(reference) if self.by_oracle => dtm_sparse::vector::rms_error(est, reference),
            _ if self.sq.is_empty() => a.residual_norm(est, &self.b) / self.b_scale,
            _ => {
                let (sq, b) = (&mut self.sq, &self.b);
                let mut redo = |r: usize| sq[r] = a.residual_sq(r, est, b[r]);
                match rows {
                    Some(rows) => rows.iter().for_each(|&r| redo(r as usize)),
                    None => (0..b.len()).for_each(redo),
                }
                sq.iter().fold(0.0, |sum, &q| sum + q).sqrt() / self.b_scale
            }
        };
    }
}

/// Global-estimate tracker over K column slots, each scored exactly against
/// its own stopping rule whenever its estimate moves — see the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct Monitor {
    /// Original dimension.
    n: usize,
    /// The original matrix, shared with the map it came from.
    a: Arc<Csr>,
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
    /// Scratch for the `A·x̂` of [`admit`](Self::admit)'s projection.
    ax: Vec<f64>,
    /// Per part, the rows of `A` with a stored entry in one of the part's
    /// columns — every row whose residual an
    /// [`update_part`](Self::update_part) of that part can move. Built by
    /// the first `update_part`, the one feed that rescores row by row;
    /// empty until then.
    part_rows: Vec<Vec<u32>>,
    cols: Vec<Column>,
    series: Vec<(f64, f64)>,
    sample_interval: SimDuration,
    last_sample: Option<SimTime>,
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
            a: Arc::clone(&map.a),
            copy_count: map.copy_count.iter().map(|&c| c as f64).collect(),
            part_values: map
                .parts
                .iter()
                .map(|g2l| vec![0.0; g2l.len() * slots])
                .collect(),
            global_of_local: map.parts.iter().map(|g2l| g2l.to_vec()).collect(),
            sum: vec![0.0; n * slots],
            est: vec![0.0; n * slots],
            ax: vec![0.0; n],
            part_rows: Vec::new(),
            cols: (0..slots).map(|_| Column::idle(n)).collect(),
            series: Vec::new(),
            sample_interval,
            last_sample: None,
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
        let map = GatherMap::of_split(split, rhs_cols);
        let mut m = Self::new(&map, map.b_cols.len(), sample_interval);
        m.admit_all(&map.b_cols, Termination::Residual { tol: 0.0 }, None);
        m
    }

    /// Admit a ticket into slot `c`: right-hand side `b` under `rule`,
    /// with its oracle `reference` if it has one, warm-started — returns
    /// the `α` the executor scales the column's node state by. The slot's
    /// kept state (the part blocks, their sums, the estimate `x̂`) is
    /// scaled by `α = x̂ᵀb / x̂ᵀAx̂`, the A-norm-optimal multiple of `x̂`
    /// for `b` (see [warm-started admission](self#warm-started-admission)),
    /// or set to exact zeros where `x̂ᵀAx̂` is not a positive finite number
    /// (a never-used slot, a one-shot solve's zero start) — so the kept
    /// blocks stay the nodes' own once they scale theirs by the same `α`.
    /// The column's score is then recomputed exactly against the new
    /// targets. Whatever the slot's previous occupant scored is forgotten,
    /// its decay included.
    ///
    /// # Panics
    /// Panics on column/length mismatch.
    pub fn admit(
        &mut self,
        c: usize,
        b: &[f64],
        rule: Termination,
        reference: Option<&[f64]>,
    ) -> f64 {
        let n = self.n;
        assert_eq!(b.len(), n, "RHS column length");
        let alpha = self.projection(c, b);
        self.scale_col(c, alpha);
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
        col.rescore(&self.a, &self.est[c * n..(c + 1) * n], None);
        alpha
    }

    /// The A-norm-optimal multiple of slot `c`'s estimate `x̂` for the
    /// right-hand side `b`: `α = x̂ᵀb / x̂ᵀAx̂` minimizes `‖A⁻¹b − α·x̂‖_A`.
    /// 0 unless `x̂ᵀAx̂` is a positive finite number (and `α` finite); a
    /// zero estimate costs no SpMV.
    fn projection(&mut self, c: usize, b: &[f64]) -> f64 {
        let n = self.n;
        let est = &self.est[c * n..(c + 1) * n];
        if est.iter().all(|&v| v == 0.0) {
            return 0.0;
        }
        self.a.matvec_into(est, &mut self.ax);
        let energy = dtm_sparse::vector::dot(est, &self.ax);
        let alpha = dtm_sparse::vector::dot(est, b) / energy;
        if energy > 0.0 && energy.is_finite() && alpha.is_finite() {
            alpha
        } else {
            0.0
        }
    }

    /// Scale slot `c`'s kept state — every part's block, the sums and the
    /// estimate — by `alpha`, writing exact zeros for `alpha == 0`.
    fn scale_col(&mut self, c: usize, alpha: f64) {
        let n = self.n;
        scale_or_zero(&mut self.sum[c * n..(c + 1) * n], alpha);
        scale_or_zero(&mut self.est[c * n..(c + 1) * n], alpha);
        for (values, g2l) in self.part_values.iter_mut().zip(&self.global_of_local) {
            let nl = g2l.len();
            scale_or_zero(&mut values[c * nl..(c + 1) * nl], alpha);
        }
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

    /// Whether slot `c`'s ticket has met its own tolerance, on its exact
    /// score. Idle slots and [`Termination::LocalDelta`] columns are never
    /// done.
    pub fn done(&self, c: usize) -> bool {
        self.cols[c].within_tol()
    }

    /// Whether every slot is [`done`](Self::done) — a one-shot solve's
    /// stopping rule.
    pub fn all_done(&self) -> bool {
        self.cols.iter().all(Column::within_tol)
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
        retired
    }

    /// [`retire`](Self::retire) every slot, in order — the end of a
    /// one-shot solve.
    pub fn retire_all(&mut self) -> Vec<Retired> {
        (0..self.cols.len()).map(|c| self.retire(c)).collect()
    }

    /// Does nothing: every feed leaves every score it touched exact, so
    /// there is no threshold below which a score needs refreshing. Kept so
    /// that callers which set one still build.
    pub fn set_refresh_below(&mut self, _threshold: f64) {}

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
        let metric = col.score;
        let tol = col.rule.and_then(Termination::metric_tol);
        let gap = next_poll(col.last, (now, metric), tol, Duration::MAX);
        col.due = now.saturating_add(gap);
        col.last = Some((now, metric));
    }

    /// Worst metric over the live columns, as last scored.
    pub fn metric(&self) -> f64 {
        self.live().map(|col| col.score).fold(0.0, worse)
    }

    /// Score every live column afresh from the estimate and return the
    /// worst metric — what every feed already did for the columns it
    /// moved, so outside [`update_round`](Self::update_round)'s gather this
    /// only recomputes the same values.
    pub fn resync(&mut self) -> f64 {
        let n = self.n;
        for (c, col) in self.cols.iter_mut().enumerate() {
            if col.rule.is_some() {
                col.rescore(&self.a, &self.est[c * n..(c + 1) * n], None);
            }
        }
        self.metric()
    }

    /// Switch row-by-row rescoring on: list each part's rows
    /// ([`part_rows`](Self::part_rows)) — through the parts holding each
    /// vertex, so the lists are exact for any pattern of `A` — and give
    /// every column its rows' squares, scored afresh where it is live.
    fn track_rows(&mut self) {
        let n = self.n;
        let mut ptr = vec![0usize; n + 1];
        for &g in self.global_of_local.iter().flatten() {
            ptr[g + 1] += 1;
        }
        for g in 0..n {
            ptr[g + 1] += ptr[g];
        }
        let mut holders = vec![0usize; ptr[n]];
        let mut next = ptr.clone();
        for (p, g2l) in self.global_of_local.iter().enumerate() {
            for &g in g2l {
                holders[next[g]] = p;
                next[g] += 1;
            }
        }
        let n_parts = self.global_of_local.len();
        let (mut rows, mut last) = (vec![Vec::new(); n_parts], vec![usize::MAX; n_parts]);
        for r in 0..n {
            for (c, _) in self.a.row(r) {
                for &p in &holders[ptr[c]..ptr[c + 1]] {
                    if last[p] != r {
                        last[p] = r;
                        // `A` is square and its columns fit `u32`.
                        rows[p].push(r as u32);
                    }
                }
            }
        }
        self.part_rows = rows;
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.sq = vec![0.0; n];
            if col.rule.is_some() {
                col.rescore(&self.a, &self.est[c * n..(c + 1) * n], None);
            }
        }
    }

    /// [`update_part`](Self::update_part)'s per-part feed: diff `x` against
    /// the kept block, move the estimate entry by entry, and score every
    /// live column that moved — only the rows the part touches recomputed.
    // lint: hot-path
    fn absorb(&mut self, part: usize, x: &[f64]) {
        let g2l = &self.global_of_local[part];
        let rows = &self.part_rows[part];
        let values = &mut self.part_values[part];
        let (nl, n) = (g2l.len(), self.n);
        assert_eq!(x.len(), nl * self.cols.len(), "monitor: local block length");
        self.updates_total += 1;
        for (c, col) in self.cols.iter_mut().enumerate() {
            let mut moved = false;
            for (l, &g) in g2l.iter().enumerate() {
                let (li, gi) = (c * nl + l, c * n + g);
                let old = values[li];
                if old == x[li] {
                    continue;
                }
                values[li] = x[li];
                self.sum[gi] += x[li] - old;
                self.est[gi] = self.sum[gi] / self.copy_count[g];
                moved = true;
            }
            if moved && col.rule.is_some() {
                col.rescore(&self.a, &self.est[c * n..(c + 1) * n], Some(rows));
            }
        }
    }

    /// Gather column `c`'s estimate afresh from the kept blocks: every
    /// part's copies summed in ascending part order (with three or more
    /// copies of a vertex the order of the additions is part of the bits),
    /// then averaged — the one gather of `poll` and
    /// [`update_round`](Self::update_round).
    // lint: hot-path
    fn gather(&mut self, c: usize) {
        let n = self.n;
        let sum = &mut self.sum[c * n..(c + 1) * n];
        sum.fill(0.0);
        for (g2l, values) in self.global_of_local.iter().zip(&self.part_values) {
            let nl = g2l.len();
            for (&g, &v) in g2l.iter().zip(&values[c * nl..(c + 1) * nl]) {
                sum[g] += v;
            }
        }
        let est = &mut self.est[c * n..(c + 1) * n];
        for ((e, &s), &cc) in est.iter_mut().zip(&*sum).zip(&self.copy_count) {
            *e = s / cc;
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
    /// `n_local·k` column-major solution) and return the worst live metric
    /// — exact: every column the block moved is scored afresh.
    pub fn update_part(&mut self, part: usize, time: SimTime, x: &[f64]) -> f64 {
        if self.part_rows.is_empty() {
            self.track_rows();
        }
        self.absorb(part, x);
        let metric = self.metric();
        self.record(time, metric);
        metric
    }

    /// Take a whole round in — `blocks` yields every part's block, in
    /// ascending part order — and score it exactly. Called for the rounds
    /// the supervisor scores ([`next_round`]), not necessarily every round;
    /// either way every entry has moved since the last call, so nothing is
    /// diffed: every column is gathered afresh (no drift carried from one
    /// scored round to the next) and each live column recomputed outright
    /// — one gather and one SpMV per column. Returns the worst metric.
    ///
    /// # Panics
    /// Panics unless `blocks` yields exactly one right-sized block per part.
    pub fn update_round<'a>(
        &mut self,
        time: SimTime,
        blocks: impl IntoIterator<Item = &'a [f64]>,
    ) -> f64 {
        let mut parts = 0;
        for (x, values) in blocks.into_iter().zip(&mut self.part_values) {
            values.copy_from_slice(x);
            parts += 1;
        }
        assert_eq!(parts, self.part_values.len(), "one block per part");
        self.updates_total += parts as u64;
        for c in 0..self.cols.len() {
            self.gather(c);
        }
        let metric = self.resync();
        self.record(time, metric);
        metric
    }

    /// One supervisor pass over the wall-clock workers' published blocks,
    /// for the columns in `want` (`u64::MAX` = every column, a one-shot
    /// solve): copy the columns of `want` the workers dirtied since they
    /// were last wanted into the kept blocks — a slice copy under each
    /// block's lock, nothing else — then gather every wanted live column
    /// that any part published afresh and recompute its score exactly;
    /// returns the worst metric. The other columns stay dirty
    /// in their blocks and keep their scores. A pass where nothing wanted
    /// changed takes no lock; nothing here allocates.
    // lint: hot-path
    pub(crate) fn poll(&mut self, time: SimTime, snapshots: &[SharedBlock], want: u64) -> f64 {
        let k = self.cols.len();
        let mut published = 0;
        for ((snap, values), g2l) in snapshots
            .iter()
            .zip(&mut self.part_values)
            .zip(&self.global_of_local)
        {
            let nl = g2l.len();
            snap.drain(want, |block, cols| {
                for c in (0..k).filter(|&c| has_col(cols, c, k)) {
                    let r = c * nl..(c + 1) * nl;
                    values[r.clone()].copy_from_slice(&block[r]);
                }
                published |= cols;
            });
        }
        // Drained bits are all wanted; an empty mask scores nothing, even
        // when a block too wide for the mask saturates `has_col`.
        let n = self.n;
        for c in (0..k).filter(|&c| published != 0 && has_col(published, c, k)) {
            if self.cols[c].rule.is_some() {
                self.gather(c);
                self.cols[c].rescore(&self.a, &self.est[c * n..(c + 1) * n], None);
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
        Monitor::new(&GatherMap::of_split(ss, None), slots, sample_interval)
    }

    /// One column per reference, scored by oracle RMS at `tol`.
    fn oracle(ss: &SplitSystem, refs: &[Vec<f64>], tol: f64, interval: SimDuration) -> Monitor {
        let (_, b) = ss.reconstruct().unwrap();
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

    /// Score a metric `m(r)` on [`next_round`]'s cadence from round 0 until
    /// it reaches `tol` or round `cap`; returns the scored rounds.
    fn round_cadence(m: impl Fn(u64) -> f64, tol: f64, cap: u64) -> Vec<u64> {
        let (mut r, mut last, mut scored) = (0, None, vec![]);
        while r < cap {
            scored.push(r);
            let now = (r, m(r));
            if now.1 <= tol {
                break;
            }
            r = next_round(last, now, tol);
            last = Some(now);
        }
        scored
    }

    #[test]
    fn a_geometric_decay_is_scored_in_logarithmically_many_rounds_and_stops_at_its_crossing() {
        for (rho, tol) in [
            (0.95_f64, 1e-6),
            (0.9, 1e-9),
            (0.99, 1e-3),
            (0.5, 1e-12),
            (0.995, 1e-8),
        ] {
            let m = |r: u64| rho.powi(r as i32);
            let first = (0..).find(|&r| m(r) <= tol).unwrap();
            let scored = round_cadence(m, tol, u64::MAX);
            // An exact rate predicts the crossing exactly, and half of it is
            // never past it: the first round at or below `tol` is scored.
            assert_eq!(*scored.last().unwrap(), first, "ρ {rho}: {scored:?}");
            let bound = 2.0 * (first as f64).log2() + 4.0;
            assert!((scored.len() as f64) <= bound, "ρ {rho}: {scored:?}");
            assert_eq!(scored[..3], [0, 1, 3], "the first gaps double");
            for w in scored.windows(3) {
                assert!(w[2] - w[1] <= 2 * (w[1] - w[0]), "ρ {rho}: grew past 2×");
            }
        }
    }

    #[test]
    fn no_decay_to_go_by_scores_the_next_round() {
        let next = |last: Option<(u64, f64)>, m: f64, tol: f64| next_round(last, (8, m), tol);
        let decay = Some((4, 1e-2));
        assert!(next(decay, 1e-3, 1e-8) > 9, "a falling metric skips rounds");
        assert_eq!(next(None, 1e-3, 1e-8), 9, "first round");
        assert_eq!(next(Some((4, 1e-4)), 1e-3, 1e-8), 9, "rising");
        assert_eq!(next(Some((4, 1e-3)), 1e-3, 1e-8), 9, "flat");
        assert_eq!(next(decay, f64::NAN, 1e-8), 9, "NaN metric");
        assert_eq!(next(Some((4, f64::NAN)), 1e-3, 1e-8), 9, "NaN before");
        assert_eq!(next(Some((4, f64::INFINITY)), 1e-3, 1e-8), 9, "Inf before");
        assert_eq!(next(decay, 1e-3, f64::NAN), 9, "NaN tolerance");
        assert_eq!(next(decay, 1e-3, 0.0), 9, "τ = 0");
        assert_eq!(next(decay, 1e-3, -1.0), 9, "τ < 0");
        assert_eq!(next(decay, 1e-9, 1e-8), 9, "already within");
        assert_eq!(next(Some((8, 1e-2)), 1e-3, 1e-8), 9, "same round");
        assert_eq!(next(Some((12, 1e-2)), 1e-3, 1e-8), 9, "a later round");
        assert_eq!(next_round(None, (u64::MAX, 1.0), 1e-8), u64::MAX);
    }

    #[test]
    fn the_round_clock_takes_the_wall_clock_decision() {
        // Round r at r·POLL_INTERVAL: the wall-clock sleep, in floor
        // intervals, rounded down is the round gap.
        let at = |r: u64| POLL_INTERVAL * u32::try_from(r).unwrap();
        for (r0, m0, r, m, tol) in [
            (0, 1.0, 1, 0.7, 1e-6),
            (63, 3e-2, 127, 4e-4, 1e-6),
            (127, 4e-4, 200, 2e-5, 1e-6),
            (270, 1.3e-6, 272, 1.1e-6, 1e-6),
            (10, 0.5, 30, 0.49, 1e-9),
            (100, 1e-3, 101, 1e-5, 1e-6),
        ] {
            let gap = next_round(Some((r0, m0)), (r, m), tol) - r;
            let sleep = next_poll(Some((at(r0), m0)), (at(r), m), Some(tol), Duration::MAX);
            let floors = sleep.as_secs_f64() / POLL_INTERVAL.as_secs_f64();
            assert!(
                gap as f64 <= floors + 1e-6 && floors < (gap + 1) as f64 - 1e-6,
                "round {r}: {gap} rounds vs {floors} floor intervals"
            );
        }
    }

    #[test]
    fn each_column_is_due_on_its_own_decay() {
        let (ss, _) = make();
        let (_, b) = ss.reconstruct().unwrap();
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
        m.cols[0].score /= 10.0;
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

    /// A monitor of `slots` slots over one part holding every unknown of
    /// `a` — the estimate is the part's block, bit for bit.
    fn one_part(a: &Csr, slots: usize) -> Monitor {
        let n = a.n_rows();
        let (rows, copies) = ((0..n).collect::<Vec<_>>(), vec![1; n]);
        let (zero, a) = (vec![0.0; n], Arc::new(a.clone()));
        let map = GatherMap::new(vec![&rows[..]], &copies, a, vec![&zero[..]]);
        Monitor::new(&map, slots, NO_SERIES)
    }

    #[test]
    fn every_poll_scores_its_columns_exactly() {
        // One part holding every unknown of the 4×4 grid, two slots;
        // column 1 is wanted on every pass, column 0 on every fourth. Each
        // pass moves one entry of each column and corrupts both scores
        // first: a wanted column's corruption is gone after the poll, an
        // unwanted one keeps its score and its published data waits.
        let a = generators::grid2d_laplacian(4, 4);
        let b = generators::random_rhs(16, 3);
        let mut m = one_part(&a, 2);
        let rule = Termination::Residual { tol: 1e-9 };
        m.admit(0, &b, rule, None);
        m.admit(1, &b, rule, None);
        let exact = |x: &[f64]| a.residual_norm(x, &b) / vector::norm2(&b);
        let block = SharedBlock::new(16, 2);
        let mut x = vec![0.0; 32];
        for pass in 1..40 {
            x[pass % 16] += 1e-3;
            x[16 + pass % 16] += 1e-3;
            block.publish(&x, 0b11);
            m.cols[0].score += 1.0;
            m.cols[1].score += 1.0;
            let kept = m.cols[0].score;
            let want = if pass % 4 == 1 { 0b11 } else { 0b10 };
            m.poll(SimTime::ZERO, std::slice::from_ref(&block), want);
            assert_eq!(m.estimate_col(1), &x[16..], "pass {pass}: gathered");
            assert!((m.cols[1].score - exact(&x[16..])).abs() < 1e-15);
            if want & 1 == 1 {
                assert_eq!(m.estimate_col(0), &x[..16], "pass {pass}: gathered");
                assert!((m.cols[0].score - exact(&x[..16])).abs() < 1e-15);
            } else {
                assert_eq!(m.cols[0].score, kept, "pass {pass}: kept");
                assert_ne!(m.estimate_col(0), &x[..16], "pass {pass}: waits");
            }
        }
        // Column 0's last publication is still dirty: a pass that wants it
        // takes it in with nothing newly published.
        m.cols[0].score += 1.0;
        m.poll(SimTime::ZERO, std::slice::from_ref(&block), 0b01);
        assert_eq!(m.estimate_col(0), &x[..16]);
        assert!((m.cols[0].score - exact(&x[..16])).abs() < 1e-15);
    }

    #[test]
    fn admission_starts_from_the_a_norm_projection_of_the_slot_estimate() {
        let (ss, _) = make();
        let (a, b1) = ss.reconstruct().unwrap();
        let b2 = generators::random_rhs(16, 8);
        let xhat: Vec<f64> = (0..16).map(|i| 1.0 + 0.3 * (i as f64).sin()).collect();
        let mut m = idle(&ss, 1, NO_SERIES);
        m.admit(0, &b1, Termination::Residual { tol: 1e-9 }, None);
        feed(&mut m, &ss, &xhat, 0);
        m.retire(0);
        let alpha = m.admit(0, &b2, Termination::Residual { tol: 1e-9 }, None);
        let expect = vector::dot(&xhat, &b2) / vector::dot(&xhat, &a.matvec(&xhat));
        assert!(
            (alpha - expect).abs() <= 1e-14 * expect.abs(),
            "{alpha} vs {expect}"
        );
        for (e, x) in m.estimate_col(0).iter().zip(&xhat) {
            assert!((e - alpha * x).abs() <= 1e-14 * x.abs(), "scaled estimate");
        }
        let start = a.residual_norm(m.estimate_col(0), &b2) / vector::norm2(&b2);
        assert_eq!(m.metric(), start, "scored exactly on the warm start");
        // The kept blocks are scaled too: a part that reports the scaled
        // copy moves nothing.
        m.update_part(0, SimTime::ZERO, &local(&ss, 0, m.estimate_col(0)));
        assert_eq!(m.metric(), start);
    }

    #[test]
    fn a_fresh_slot_starts_cold() {
        let (ss, reference) = make();
        let (_, b) = ss.reconstruct().unwrap();
        let mut m = idle(&ss, 2, NO_SERIES);
        assert_eq!(
            m.admit(0, &b, Termination::Residual { tol: 1e-9 }, None),
            0.0
        );
        assert_eq!(
            m.admit(
                1,
                &b,
                Termination::OracleRms { tol: 1e-9 },
                Some(&reference)
            ),
            0.0
        );
        assert!(m.est.iter().chain(&m.sum).all(|v| v.to_bits() == 0));
        assert_eq!(m.cols[0].score, 1.0);
        assert_eq!(m.cols[1].score, vector::rms_error(&[0.0; 16], &reference));
        // A slot whose estimate went back to zero starts cold again.
        for fill in [0.5, 0.0] {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                m.update_part(p, SimTime::ZERO, &vec![fill; 2 * sd.n_local()]);
            }
        }
        m.retire(0);
        assert_eq!(
            m.admit(0, &b, Termination::Residual { tol: 1e-9 }, None),
            0.0
        );
    }

    #[test]
    fn readmitting_the_retired_rhs_starts_from_its_answer() {
        let (ss, reference) = make();
        let (_, b) = ss.reconstruct().unwrap();
        let mut m = idle(&ss, 1, NO_SERIES);
        m.admit(0, &b, Termination::Residual { tol: 1e-9 }, None);
        feed(&mut m, &ss, &reference, 0);
        m.resync();
        assert!(m.done(0));
        let retired = m.retire(0);
        let alpha = m.admit(0, &b, Termination::Residual { tol: 1e-9 }, None);
        assert!((alpha - 1.0).abs() < 1e-14, "α = {alpha}");
        assert!(retired.residual < 1e-14);
        assert!((m.metric() - retired.residual).abs() < 1e-14);
        assert!(m.done(0), "the answer is still the answer");
    }

    mod warm_start_props {
        use super::*;
        use proptest::prelude::*;

        /// `‖v‖_A`.
        fn a_norm(a: &Csr, v: &[f64]) -> f64 {
            vector::dot(v, &a.matvec(v)).sqrt()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// On random SPD grids (a Laplacian plus a random diagonal
            /// shift) and random pairs of right-hand sides, the warm start
            /// of the second ticket from the first one's estimate is never
            /// further from its answer in the A-norm than the cold start,
            /// nor than any other multiple of the estimate tried.
            #[test]
            fn a_warm_start_is_never_worse_than_the_cold_start_in_the_a_norm(
                nx in 2usize..7,
                ny in 2usize..7,
                shift_seed in 0u64..1_000,
                seeds in (0u64..1_000, 0u64..1_000),
                progress in 0.0f64..1.0,
            ) {
                let n = nx * ny;
                let shift: Vec<f64> = generators::random_rhs(n, shift_seed)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let a = generators::grid2d_laplacian(nx, ny).add_to_diagonal(&shift);
                let factor = dtm_sparse::SparseCholesky::factor(&a).unwrap();
                let (b1, b2) = (
                    generators::random_rhs(n, seeds.0),
                    generators::random_rhs(n, 1_000 + seeds.1),
                );
                // The first ticket retires part-way to its answer.
                let xhat: Vec<f64> = factor.solve(&b1).iter().map(|x| x * progress).collect();
                let mut m = one_part(&a, 1);
                m.admit(0, &b1, Termination::Residual { tol: 0.0 }, None);
                m.update_part(0, SimTime::ZERO, &xhat);
                m.retire(0);
                let alpha = m.admit(0, &b2, Termination::Residual { tol: 0.0 }, None);
                let x_star = factor.solve(&b2);
                let error = |beta: f64| {
                    let e: Vec<f64> = x_star.iter().zip(&xhat).map(|(x, h)| x - beta * h).collect();
                    a_norm(&a, &e)
                };
                let warm = error(alpha);
                let slack = 1e-12 * a_norm(&a, &x_star);
                prop_assert!(warm <= error(0.0) + slack, "{} > cold {}", warm, error(0.0));
                for beta in [0.5 * alpha, 2.0 * alpha, alpha + 0.1, alpha - 0.1] {
                    prop_assert!(warm <= error(beta) + slack, "α {} loses to {}", alpha, beta);
                }
                let e: Vec<f64> = x_star
                    .iter()
                    .zip(m.estimate_col(0))
                    .map(|(x, h)| x - h)
                    .collect();
                prop_assert!((a_norm(&a, &e) - warm).abs() <= slack, "the estimate is α·x̂");
            }
        }
    }

    #[test]
    fn a_nan_score_is_never_within_tolerance() {
        let (ss, _) = make();
        let (_, b) = ss.reconstruct().unwrap();
        let mut m = idle(&ss, 2, SimDuration::ZERO);
        let mut bad = b.clone();
        bad[3] = f64::NAN;
        m.admit(0, &b, Termination::Residual { tol: 1e300 }, None);
        m.admit(1, &bad, Termination::Residual { tol: 1e300 }, None);
        assert!(m.metric().is_nan(), "the NaN column is the worst");
        assert!(m.done(0) && !m.done(1) && !m.all_done());
        assert!(m.resync().is_nan());
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
        // Feed arbitrary values in several rounds: every feed scores the
        // column afresh, so a recomputation changes no bit.
        for round in 0..5 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let local: Vec<f64> = (0..sd.n_local())
                    .map(|l| ((l + round) as f64 * 0.37).sin())
                    .collect();
                m.update_part(p, SimTime::from_nanos((round * 10 + p) as u64), &local);
            }
        }
        let incremental = m.metric();
        assert_eq!(incremental, m.resync());
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
        assert!((m.metric() - 1.0).abs() < 1e-12);
        feed(&mut m, &ss, &reference, 0);
        assert!(m.metric() < 1e-10, "residual {}", m.metric());
        let done = m.retire(0);
        assert!(done.residual < 1e-10);
        assert_eq!(done.rms, None, "reference-free");
    }

    #[test]
    fn incremental_residual_matches_exact_recompute() {
        let (ss, _) = make();
        let (a, b) = ss.reconstruct().unwrap();
        let bnorm = vector::norm2(&b);
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        for round in 0..5 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                let local: Vec<f64> = (0..sd.n_local())
                    .map(|l| ((l + round) as f64 * 0.61).cos())
                    .collect();
                let reported =
                    m.update_part(p, SimTime::from_nanos((round * 10 + p) as u64), &local);
                let exact = a.residual_norm(m.estimate(), &b) / bnorm;
                assert_eq!(reported, exact, "round {round}, part {p}");
            }
        }
    }

    #[test]
    fn attached_oracle_cross_checks_residual_mode() {
        // A residual-rule column that carries a reference stays
        // residual-scored — the metric (and the series) never see the
        // oracle — and reports its RMS when it retires.
        let (ss, reference) = make();
        let (_, b) = ss.reconstruct().unwrap();
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
        assert!(m.done(0), "scored exactly on the last feed");
        let done = m.retire(0);
        assert!(done.residual < 1e-10);
        assert!(done.rms.unwrap() < 1e-12);
    }

    #[test]
    fn adversarial_update_orders_stop_only_on_exact_values() {
        // Across an adversarial update order (many tiny alternating-sign
        // changes, the worst case for a sum kept by differences), every
        // time update_part returns a value at or below the tolerance, the
        // exact recomputation agrees — the stop decision never fires on a
        // stale or drifted number.
        let (ss, reference) = make();
        let (a, b) = ss.reconstruct().unwrap();
        let tol = 1e-3;
        let mut m = Monitor::new_residual(&ss, None, SimDuration::ZERO);
        let mut crossings = 0;
        for round in 0..120 {
            for (p, sd) in ss.subdomains.iter().enumerate() {
                // Converge toward the solution with oscillating over/under
                // shoot so deltas alternate sign, approaching the tolerance
                // from above.
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
        // Perturbing the estimate raises the absolute residual; it stays
        // finite and returns to ~0 when the parts report zeros again.
        let n0 = ss.subdomains[0].n_local();
        let m1 = m.update_part(0, SimTime::from_nanos(0), &vec![0.5; n0]);
        assert!(m1.is_finite() && m1 > 0.0, "perturbed metric {m1}");
        assert!(m.update_part(0, SimTime::from_nanos(1), &vec![0.0; n0]) < 1e-12);
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
        let (a, _) = ss.reconstruct().unwrap();
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
                    // Every feed scored the column exactly: `done` is the
                    // from-scratch verdict, never early and never late.
                    let done = m.done(c);
                    assert_eq!(done, scratch[c], "step {step}: slot {c}");
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
        // And the idle slot goes live under a residual rule, warm-started
        // from the junk it holds: no further from b0's answer in the
        // A-norm than the cold start.
        m.admit(2, &b0, Termination::Residual { tol: tight }, None);
        let a_err = |x: &[f64]| {
            let e: Vec<f64> = x0.iter().zip(x).map(|(s, x)| s - x).collect();
            vector::dot(&e, &a.matvec(&e)).sqrt()
        };
        assert!(
            a_err(m.estimate_col(2)) <= a_err(&[0.0; 16]),
            "slot 2 holds junk"
        );
        assert!(!m.done(2));
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
