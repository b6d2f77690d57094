//! The hand-rolled binary wire format of the socket backend.
//!
//! Everything on a socket is a **frame**: a 4-byte little-endian payload
//! length followed by the payload, whose first byte is a message tag. All
//! integers are little-endian; `usize` fields travel as `u64` so the
//! format is identical across pointer widths; a [`Csr`]'s column indices
//! travel as the `u32`s they are stored as. [`SmallBlock`]s are encoded
//! losslessly as `u32` length + that many `f64`s — the inline-vs-spill
//! distinction is a property of the length alone, so decode rebuilds the
//! exact in-memory representation via [`SmallBlock::from_fn`].
//!
//! Decoding is total: any truncated frame, overlong count or malformed
//! structure returns a typed [`Error`] — the decoder never panics and
//! never trusts a length field without checking it against the bytes
//! actually present.
//!
//! **A batch is the unit of I/O.** In steady state a peer link carries a
//! [`Msg::WaveBatch`] per colour class and round (every wave one group's
//! class owes one peer group), the supervisor link a
//! [`Msg::SnapshotBatch`] per round (every part's solution, back to
//! back). A
//! [`FrameWriter`] encodes the batch behind its length prefix into one
//! reused buffer and hands the socket a single `write_all`; a
//! [`FrameReader`] sits behind a [`BufReader`] and reuses its payload
//! buffer, so a round's frame costs one `write` and typically one `read`.
//! Runs of `f64`s are copied in bulk (`chunks_exact(8)`), not one
//! cursor-checked element at a time.

use dtm_core::runtime::{DtmMsg, PortUpdate, SmallBlock, Termination};
use dtm_graph::evs::{Port, PortRef, Subdomain};
use dtm_sparse::csr::check_n_cols;
use dtm_sparse::{Csr, Error, Result};
use std::io::{BufReader, Read, Write};

/// Hard cap on a frame's payload length: guards the reader against a
/// garbage length prefix committing us to a gigantic allocation.
pub const MAX_FRAME_LEN: usize = 1 << 30;

/// One group's share of the solve, shipped parent → child after `Hello`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
    /// This child's group id.
    pub group: u64,
    /// Total number of groups (= processes).
    pub n_groups: u64,
    /// Total number of parts across all groups.
    pub n_parts: u64,
    /// Part → group map (length `n_parts`).
    pub group_of_part: Vec<u64>,
    /// Part → colour map (length `n_parts`): the sweep order of the
    /// round executor.
    pub colour_of_part: Vec<u64>,
    /// Round cap: children run rounds `0..max_rounds` unless stopped.
    pub max_rounds: u64,
    /// Stopping rule (the parent enforces it; shipped for node
    /// construction).
    pub termination: Termination,
    /// Safety cap on solves per node.
    pub max_solves_per_node: u64,
    /// Where this child should listen for peer-group links: a filesystem
    /// path for UDS, `"127.0.0.1:0"` for TCP.
    pub listen_spec: String,
    /// The subdomains this group executes, with their port impedances.
    pub parts: Vec<PartPlan>,
}

/// One subdomain plus the impedances the parent assigned to its ports.
#[derive(Debug, Clone, PartialEq)]
pub struct PartPlan {
    /// The subdomain (matrix, rhs, ports — everything `build_node`
    /// needs).
    pub sub: Subdomain,
    /// One characteristic impedance per port of `sub`.
    pub z_ports: Vec<f64>,
}

/// One cross-group wave: a [`DtmMsg`] tagged with its round and route.
#[derive(Debug, Clone, PartialEq)]
pub struct Wave {
    /// Round that produced this wave.
    pub round: u64,
    /// Sending part.
    pub src: u64,
    /// Receiving part.
    pub dst: u64,
    /// The wave-front payload.
    pub msg: DtmMsg,
}

/// One group's solutions for one round, child → parent: every part's
/// local solution back to back in one buffer, so a round costs the
/// sender one copy per part and the receiver one bulk decode.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotBatch {
    round: u64,
    /// `(part, value count)` per snapshot, in the sender's sweep order.
    parts: Vec<(u64, usize)>,
    /// The parts' solutions (`n_local × k`, column-major) in `parts`
    /// order; its length is the sum of the counts.
    values: Vec<f64>,
}

impl SnapshotBatch {
    /// An empty batch for `round` with room for `n_parts` snapshots of
    /// `n_values` values in total.
    pub fn with_capacity(round: u64, n_parts: usize, n_values: usize) -> Self {
        Self {
            round,
            parts: Vec::with_capacity(n_parts),
            values: Vec::with_capacity(n_values),
        }
    }

    /// Empty the batch for reuse at `round`, keeping its buffers.
    pub fn reset(&mut self, round: u64) {
        self.round = round;
        self.parts.clear();
        self.values.clear();
    }

    /// Append one part's solution.
    // lint: hot-path
    pub fn push(&mut self, part: u64, values: &[f64]) {
        self.parts.push((part, values.len()));
        self.values.extend_from_slice(values);
    }

    /// The round the solutions belong to.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of snapshots in the batch.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the batch holds no snapshot.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total number of values across all snapshots.
    pub fn n_values(&self) -> usize {
        self.values.len()
    }

    /// `(part, solution)` per snapshot, in push order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[f64])> {
        let mut rest = self.values.as_slice();
        self.parts.iter().map(move |&(part, n)| {
            let (head, tail) = rest.split_at(n);
            rest = tail;
            (part, head)
        })
    }
}

/// Per-round work rates of one group — the deterministic counter basis:
/// totals are `rounds × rate`, independent of how far children overshoot
/// the stop round before the `Stop` frame lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupRates {
    /// Local solves per round (= parts in the group).
    pub solves_per_round: u64,
    /// Messages scattered per round (= wave routes of the group).
    pub messages_per_round: u64,
    /// Estimated flops per round.
    pub flops_per_round: u64,
}

/// Every message of the parent/child and peer/peer protocols.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Child → parent, first frame on the supervisor link.
    Hello {
        /// The connecting child's group id.
        group: u64,
    },
    /// Peer → peer, first frame on a peer link (sent by the connecting,
    /// lower-id group).
    PeerHello {
        /// The connecting group's id.
        group: u64,
    },
    /// Parent → child: the group's share of the solve.
    Plan(Box<GroupPlan>),
    /// Child → parent: the child's peer listener is bound at `addr`.
    Listening {
        /// UDS path or `ip:port`.
        addr: String,
    },
    /// Parent → child: every group's peer listener address.
    PeerMap {
        /// `(group, addr)` pairs, ascending by group.
        addrs: Vec<(u64, String)>,
    },
    /// Child → parent: nodes built, peer links up; includes the group's
    /// per-round work rates.
    Ready(GroupRates),
    /// Parent → child: start round 0.
    Go,
    /// Peer → peer: one cross-group wave. The steady state ships
    /// [`Msg::WaveBatch`] instead; a lone wave is read as a batch of one.
    Wave(Wave),
    /// Peer → peer: every wave the sending group owes the receiving
    /// group for one round.
    WaveBatch(Vec<Wave>),
    /// Child → parent: every part's solution for one round.
    SnapshotBatch(SnapshotBatch),
    /// Parent → child: cease after the current round.
    Stop,
    /// Parent → child: the next round the supervisor scores. Snapshots of
    /// earlier rounds would be dropped unscored, so the group neither
    /// builds nor ships them.
    Due(u64),
    /// Child → parent: round loop finished (stop or round cap).
    Done,
    /// Child → parent: fatal error; the parent tears the run down.
    Err {
        /// Human-readable cause.
        text: String,
    },
}

const TAG_HELLO: u8 = 0;
const TAG_PEER_HELLO: u8 = 1;
const TAG_PLAN: u8 = 2;
const TAG_LISTENING: u8 = 3;
const TAG_PEER_MAP: u8 = 4;
const TAG_READY: u8 = 5;
const TAG_GO: u8 = 6;
const TAG_WAVE: u8 = 7;
const TAG_SNAPSHOT_BATCH: u8 = 8;
const TAG_STOP: u8 = 9;
const TAG_DONE: u8 = 10;
const TAG_ERR: u8 = 11;
const TAG_WAVE_BATCH: u8 = 12;
const TAG_DUE: u8 = 13;

/// Bytes of the little-endian payload-length prefix of a frame.
const LEN_PREFIX: usize = 4;

fn parse_err(what: &str) -> Error {
    Error::Parse(format!("wire: {what}"))
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Appends to a caller-owned buffer, so a hot caller can reuse one
/// allocation across frames.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn us(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A run of `f64`s with no count, written in bulk: the buffer grows
    /// once and the fixed-width chunk loop compiles to a block copy.
    // lint: hot-path
    fn f64_run(&mut self, vs: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + 8 * vs.len(), 0);
        for (chunk, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            chunk.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.us(vs.len());
        self.f64_run(vs);
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.us(vs.len());
        for &v in vs {
            self.us(v);
        }
    }

    /// A count, then that many `u32`s: a [`Csr`]'s column indices, at
    /// the width they are stored.
    fn u32s(&mut self, vs: &[u32]) {
        self.us(vs.len());
        for &v in vs {
            self.u32(v);
        }
    }

    fn str(&mut self, s: &str) {
        self.us(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A handful of columns: element-wise beats setting up a bulk copy.
    // lint: hot-path
    fn small_block(&mut self, b: &SmallBlock) {
        self.u32(b.len() as u32);
        for &v in b.as_slice() {
            self.f64(v);
        }
    }

    // lint: hot-path
    fn dtm_msg(&mut self, m: &DtmMsg) {
        self.us(m.updates.len());
        for u in &m.updates {
            self.us(u.port);
            self.small_block(&u.u);
            self.small_block(&u.omega);
        }
    }

    // lint: hot-path
    fn wave(&mut self, w: &Wave) {
        self.u64(w.round);
        self.u64(w.src);
        self.u64(w.dst);
        self.dtm_msg(&w.msg);
    }

    // lint: hot-path
    fn wave_batch(&mut self, waves: &[Wave]) {
        self.u8(TAG_WAVE_BATCH);
        self.us(waves.len());
        for w in waves {
            self.wave(w);
        }
    }

    // lint: hot-path
    fn snapshot_batch(&mut self, b: &SnapshotBatch) {
        self.u8(TAG_SNAPSHOT_BATCH);
        self.u64(b.round);
        self.us(b.parts.len());
        for &(part, n) in &b.parts {
            self.u64(part);
            self.us(n);
        }
        self.f64s(&b.values);
    }

    fn csr(&mut self, a: &Csr) {
        self.us(a.n_rows());
        self.us(a.n_cols());
        self.usizes(a.row_ptr());
        self.u32s(a.col_idx());
        self.f64s(a.values());
    }

    fn subdomain(&mut self, sd: &Subdomain) {
        self.us(sd.part);
        self.csr(&sd.matrix);
        self.f64s(&sd.rhs);
        self.f64s(&sd.rhs_weight);
        self.usizes(&sd.global_of_local);
        self.us(sd.n_copies);
        self.us(sd.ports.len());
        for p in &sd.ports {
            self.us(p.local_vertex);
            self.us(p.global_vertex);
            self.us(p.peer.part);
            self.us(p.peer.port);
            self.us(p.dtlp);
        }
    }

    fn termination(&mut self, t: Termination) {
        match t {
            Termination::OracleRms { tol } => {
                self.u8(0);
                self.f64(tol);
            }
            Termination::Residual { tol } => {
                self.u8(1);
                self.f64(tol);
            }
            Termination::LocalDelta { tol, patience } => {
                self.u8(2);
                self.f64(tol);
                self.us(patience);
            }
        }
    }
}

/// Encode one message into a frame payload (tag + body, no length
/// prefix).
pub fn encode(msg: &Msg) -> Vec<u8> {
    // Room for a typical wave, so a small payload is not built through a
    // ladder of doubling reallocations.
    let mut buf = Vec::with_capacity(512);
    encode_msg(&mut Enc { buf: &mut buf }, msg);
    buf
}

/// Append one message's payload (tag + body).
fn encode_msg(e: &mut Enc<'_>, msg: &Msg) {
    match msg {
        Msg::Hello { group } => {
            e.u8(TAG_HELLO);
            e.u64(*group);
        }
        Msg::PeerHello { group } => {
            e.u8(TAG_PEER_HELLO);
            e.u64(*group);
        }
        Msg::Plan(p) => {
            e.u8(TAG_PLAN);
            e.u64(p.group);
            e.u64(p.n_groups);
            e.u64(p.n_parts);
            e.us(p.group_of_part.len());
            for &g in &p.group_of_part {
                e.u64(g);
            }
            e.us(p.colour_of_part.len());
            for &c in &p.colour_of_part {
                e.u64(c);
            }
            e.u64(p.max_rounds);
            e.termination(p.termination);
            e.u64(p.max_solves_per_node);
            e.str(&p.listen_spec);
            e.us(p.parts.len());
            for part in &p.parts {
                e.subdomain(&part.sub);
                e.f64s(&part.z_ports);
            }
        }
        Msg::Listening { addr } => {
            e.u8(TAG_LISTENING);
            e.str(addr);
        }
        Msg::PeerMap { addrs } => {
            e.u8(TAG_PEER_MAP);
            e.us(addrs.len());
            for (g, a) in addrs {
                e.u64(*g);
                e.str(a);
            }
        }
        Msg::Ready(r) => {
            e.u8(TAG_READY);
            e.u64(r.solves_per_round);
            e.u64(r.messages_per_round);
            e.u64(r.flops_per_round);
        }
        Msg::Go => e.u8(TAG_GO),
        Msg::Wave(w) => {
            e.u8(TAG_WAVE);
            e.wave(w);
        }
        Msg::WaveBatch(ws) => e.wave_batch(ws),
        Msg::SnapshotBatch(b) => e.snapshot_batch(b),
        Msg::Stop => e.u8(TAG_STOP),
        Msg::Due(round) => {
            e.u8(TAG_DUE);
            e.u64(*round);
        }
        Msg::Done => e.u8(TAG_DONE),
        Msg::Err { text } => {
            e.u8(TAG_ERR);
            e.str(text);
        }
    }
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

struct Dec<'a> {
    b: &'a [u8],
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.b.len() < n {
            return Err(parse_err("truncated frame"));
        }
        let (head, rest) = self.b.split_at(n);
        self.b = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(u64::from_le_bytes(a))
    }

    fn us(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| parse_err("count exceeds address space"))
    }

    fn f64(&mut self) -> Result<f64> {
        let s = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        Ok(f64::from_le_bytes(a))
    }

    /// A count followed by that many fixed-width items: refuse counts the
    /// remaining bytes cannot possibly satisfy before allocating.
    fn count(&mut self, item_width: usize) -> Result<usize> {
        let n = self.us()?;
        let need = n
            .checked_mul(item_width)
            .ok_or_else(|| parse_err("count overflow"))?;
        if need > self.b.len() {
            return Err(parse_err("count exceeds frame"));
        }
        Ok(n)
    }

    /// `n` `f64`s with no count, as one bounds check and one pass over
    /// fixed-width chunks instead of `n` cursor-checked reads.
    // lint: hot-path
    fn f64_run(&mut self, n: usize) -> Result<impl Iterator<Item = f64> + 'a> {
        let need = n
            .checked_mul(8)
            .ok_or_else(|| parse_err("count overflow"))?;
        Ok(self.take(need)?.chunks_exact(8).map(|c| {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            f64::from_le_bytes(a)
        }))
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        out.extend(self.f64_run(n)?);
        Ok(out)
    }

    fn usizes(&mut self) -> Result<Vec<usize>> {
        let n = self.count(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.us()?);
        }
        Ok(out)
    }

    fn u32s(&mut self) -> Result<Vec<u32>> {
        let n = self.count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn str(&mut self) -> Result<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| parse_err("invalid utf-8 string"))
    }

    /// The length is checked against the frame before the block is built,
    /// so inline widths decode without touching the heap.
    // lint: hot-path
    fn small_block(&mut self) -> Result<SmallBlock> {
        let len = self.u32()? as usize;
        let mut vals = self.f64_run(len)?;
        Ok(SmallBlock::from_fn(len, |_| vals.next().unwrap_or(0.0)))
    }

    fn dtm_msg(&mut self) -> Result<DtmMsg> {
        // Each update is at least 8 (port) + 4 + 4 (two block headers).
        let n = self.count(16)?;
        let mut updates = Vec::with_capacity(n);
        for _ in 0..n {
            let port = self.us()?;
            let u = self.small_block()?;
            let omega = self.small_block()?;
            updates.push(PortUpdate { port, u, omega });
        }
        Ok(DtmMsg { updates })
    }

    fn wave(&mut self) -> Result<Wave> {
        Ok(Wave {
            round: self.u64()?,
            src: self.u64()?,
            dst: self.u64()?,
            msg: self.dtm_msg()?,
        })
    }

    fn wave_batch(&mut self) -> Result<Vec<Wave>> {
        // Each wave is at least round + src + dst + an update count.
        let n = self.count(32)?;
        let mut waves = Vec::with_capacity(n);
        for _ in 0..n {
            waves.push(self.wave()?);
        }
        Ok(waves)
    }

    fn snapshot_batch(&mut self) -> Result<SnapshotBatch> {
        let round = self.u64()?;
        let n_parts = self.count(16)?;
        let mut parts = Vec::with_capacity(n_parts);
        let mut total = 0usize;
        for _ in 0..n_parts {
            let part = self.u64()?;
            let n = self.us()?;
            total = total
                .checked_add(n)
                .ok_or_else(|| parse_err("snapshot sizes overflow"))?;
            parts.push((part, n));
        }
        let values = self.f64s()?;
        if values.len() != total {
            return Err(parse_err("snapshot sizes disagree with values"));
        }
        Ok(SnapshotBatch {
            round,
            parts,
            values,
        })
    }

    /// Decode a CSR matrix, re-validating every invariant
    /// [`Csr::from_raw_parts`] asserts so a malformed frame surfaces as a
    /// typed error instead of a panic — a width the `u32` column indices
    /// cannot name first of all, before anything is read or allocated.
    fn csr(&mut self) -> Result<Csr> {
        let n_rows = self.us()?;
        let n_cols = self.us()?;
        check_n_cols("a wire CSR", n_cols)?;
        let row_ptr = self.usizes()?;
        let col_idx = self.u32s()?;
        let values = self.f64s()?;
        if row_ptr.len() != n_rows + 1 || row_ptr.first() != Some(&0) {
            return Err(parse_err("csr row_ptr malformed"));
        }
        if row_ptr.last() != Some(&col_idx.len()) || col_idx.len() != values.len() {
            return Err(parse_err("csr lengths disagree"));
        }
        for r in 0..n_rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if lo > hi || hi > col_idx.len() {
                return Err(parse_err("csr row_ptr not monotone"));
            }
            let cols = &col_idx[lo..hi];
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(parse_err("csr columns not strictly increasing"));
            }
            if cols.last().is_some_and(|&c| c as usize >= n_cols) {
                return Err(parse_err("csr column out of bounds"));
            }
        }
        Ok(Csr::from_raw_parts(
            n_rows, n_cols, row_ptr, col_idx, values,
        ))
    }

    fn subdomain(&mut self) -> Result<Subdomain> {
        let part = self.us()?;
        let matrix = self.csr()?;
        let rhs = self.f64s()?;
        let rhs_weight = self.f64s()?;
        let global_of_local = self.usizes()?;
        let n_copies = self.us()?;
        let n_ports = self.count(40)?;
        let mut ports = Vec::with_capacity(n_ports);
        for _ in 0..n_ports {
            ports.push(Port {
                local_vertex: self.us()?,
                global_vertex: self.us()?,
                peer: PortRef {
                    part: self.us()?,
                    port: self.us()?,
                },
                dtlp: self.us()?,
            });
        }
        let n_local = matrix.n_rows();
        if rhs.len() != n_local
            || rhs_weight.len() != n_local
            || global_of_local.len() != n_local
            || n_copies > n_local
            || ports.iter().any(|p| p.local_vertex >= n_local)
        {
            return Err(parse_err("subdomain fields disagree with matrix"));
        }
        Ok(Subdomain {
            part,
            matrix,
            rhs,
            rhs_weight,
            global_of_local,
            n_copies,
            ports,
        })
    }

    fn termination(&mut self) -> Result<Termination> {
        match self.u8()? {
            0 => Ok(Termination::OracleRms { tol: self.f64()? }),
            1 => Ok(Termination::Residual { tol: self.f64()? }),
            2 => Ok(Termination::LocalDelta {
                tol: self.f64()?,
                patience: self.us()?,
            }),
            _ => Err(parse_err("unknown termination tag")),
        }
    }
}

/// Decode one frame payload (as produced by [`encode`]).
///
/// # Errors
/// Returns a typed parse error on any truncation, unknown tag, overlong
/// count or structural violation. Never panics, whatever the bytes.
pub fn decode(payload: &[u8]) -> Result<Msg> {
    let mut d = Dec { b: payload };
    let tag = d.u8()?;
    let msg = match tag {
        TAG_HELLO => Msg::Hello { group: d.u64()? },
        TAG_PEER_HELLO => Msg::PeerHello { group: d.u64()? },
        TAG_PLAN => {
            let group = d.u64()?;
            let n_groups = d.u64()?;
            let n_parts = d.u64()?;
            let n_map = d.count(8)?;
            let mut group_of_part = Vec::with_capacity(n_map);
            for _ in 0..n_map {
                group_of_part.push(d.u64()?);
            }
            let n_colours = d.count(8)?;
            let mut colour_of_part = Vec::with_capacity(n_colours);
            for _ in 0..n_colours {
                colour_of_part.push(d.u64()?);
            }
            if [n_map, n_colours].iter().any(|&len| len as u64 != n_parts) {
                return Err(parse_err(
                    "plan's group or colour map does not have one entry per part",
                ));
            }
            let max_rounds = d.u64()?;
            let termination = d.termination()?;
            let max_solves_per_node = d.u64()?;
            let listen_spec = d.str()?;
            let n_parts_here = d.count(1)?;
            let mut parts = Vec::with_capacity(n_parts_here.min(1024));
            for _ in 0..n_parts_here {
                parts.push(PartPlan {
                    sub: d.subdomain()?,
                    z_ports: d.f64s()?,
                });
            }
            Msg::Plan(Box::new(GroupPlan {
                group,
                n_groups,
                n_parts,
                group_of_part,
                colour_of_part,
                max_rounds,
                termination,
                max_solves_per_node,
                listen_spec,
                parts,
            }))
        }
        TAG_LISTENING => Msg::Listening { addr: d.str()? },
        TAG_PEER_MAP => {
            let n = d.count(16)?;
            let mut addrs = Vec::with_capacity(n);
            for _ in 0..n {
                let g = d.u64()?;
                let a = d.str()?;
                addrs.push((g, a));
            }
            Msg::PeerMap { addrs }
        }
        TAG_READY => Msg::Ready(GroupRates {
            solves_per_round: d.u64()?,
            messages_per_round: d.u64()?,
            flops_per_round: d.u64()?,
        }),
        TAG_GO => Msg::Go,
        TAG_WAVE => Msg::Wave(d.wave()?),
        TAG_WAVE_BATCH => Msg::WaveBatch(d.wave_batch()?),
        TAG_SNAPSHOT_BATCH => Msg::SnapshotBatch(d.snapshot_batch()?),
        TAG_STOP => Msg::Stop,
        TAG_DUE => Msg::Due(d.u64()?),
        TAG_DONE => Msg::Done,
        TAG_ERR => Msg::Err { text: d.str()? },
        _ => return Err(parse_err("unknown message tag")),
    };
    if !d.b.is_empty() {
        return Err(parse_err("trailing bytes after message"));
    }
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame.
///
/// # Errors
/// Propagates I/O errors as typed parse errors.
pub fn write_frame(w: &mut impl Write, msg: &Msg) -> Result<()> {
    FrameWriter::new(w).write(msg)
}

/// The steady-state write half of a link: frames are encoded behind
/// their length prefix into one reused buffer and reach the socket as a
/// single `write_all` each.
pub struct FrameWriter<W: Write> {
    w: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a link's write half.
    pub fn new(w: W) -> Self {
        Self { w, buf: Vec::new() }
    }

    /// Encode one frame — length prefix, then whatever `body` appends —
    /// into the reused buffer and hand it to the link as **one**
    /// `write_all`.
    // lint: hot-path
    fn frame(&mut self, body: impl FnOnce(&mut Enc<'_>)) -> Result<()> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0u8; LEN_PREFIX]);
        body(&mut Enc { buf: &mut self.buf });
        let n = self.buf.len() - LEN_PREFIX;
        if n > MAX_FRAME_LEN {
            return Err(parse_err("frame too large"));
        }
        self.buf[..LEN_PREFIX].copy_from_slice(&(n as u32).to_le_bytes());
        self.w
            .write_all(&self.buf)
            .and_then(|()| self.w.flush())
            .map_err(|e| parse_err(&format!("write failed: {e}")))
    }

    /// Write any message as one frame.
    ///
    /// # Errors
    /// Propagates I/O errors as typed parse errors.
    pub fn write(&mut self, msg: &Msg) -> Result<()> {
        self.frame(|e| encode_msg(e, msg))
    }

    /// Write `waves` as one [`Msg::WaveBatch`] frame, without taking
    /// ownership of them.
    ///
    /// # Errors
    /// Propagates I/O errors as typed parse errors.
    pub fn write_waves(&mut self, waves: &[Wave]) -> Result<()> {
        self.frame(|e| e.wave_batch(waves))
    }

    /// Write `batch` as one [`Msg::SnapshotBatch`] frame, without taking
    /// ownership of it.
    ///
    /// # Errors
    /// Propagates I/O errors as typed parse errors.
    pub fn write_snapshots(&mut self, batch: &SnapshotBatch) -> Result<()> {
        self.frame(|e| e.snapshot_batch(batch))
    }
}

/// Read one length-prefixed frame. `Ok(None)` is a clean EOF **between**
/// frames; EOF inside a frame is an error.
///
/// # Errors
/// Returns a typed parse error on I/O failure, an oversized length
/// prefix, a mid-frame EOF, or an undecodable payload.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Msg>> {
    read_frame_via(r, &mut Vec::new())
}

/// [`read_frame`] through a caller-owned payload buffer.
fn read_frame_via(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<Option<Msg>> {
    let mut len = [0u8; LEN_PREFIX];
    match read_exact_or_eof(r, &mut len)? {
        ReadStatus::Eof => return Ok(None),
        ReadStatus::Full => {}
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_LEN {
        return Err(parse_err("frame length prefix too large"));
    }
    // The buffer grows only as bytes arrive: a prefix is a peer's claim,
    // and four bytes must not make the reader allocate a gigabyte.
    payload.clear();
    payload.reserve(n.min(FIRST_READ_RESERVE));
    match r.take(n as u64).read_to_end(payload) {
        Ok(got) if got == n => decode(payload).map(Some),
        Ok(_) => Err(parse_err("eof inside frame")),
        Err(e) => Err(parse_err(&format!("read failed: {e}"))),
    }
}

/// What [`read_frame_via`] reserves before a frame's bytes arrive: a
/// steady-state frame of a reused buffer fits without growing, and an
/// untrusted length prefix costs at most this much.
const FIRST_READ_RESERVE: usize = 1 << 16;

/// The steady-state read half of a link: a [`BufReader`] sized so a
/// round's frame usually arrives in one `read`, and a payload buffer
/// reused across frames. Only wrap a link once its unbuffered handshake
/// reads are over — bytes a `BufReader` has pulled in are gone for any
/// other reader of the same socket.
pub struct FrameReader<R: Read> {
    r: BufReader<R>,
    payload: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a link's read half.
    pub fn new(r: R) -> Self {
        Self {
            r: BufReader::with_capacity(1 << 16, r),
            payload: Vec::new(),
        }
    }

    /// Read the next frame; `Ok(None)` is a clean EOF between frames.
    ///
    /// # Errors
    /// As [`read_frame`].
    pub fn read(&mut self) -> Result<Option<Msg>> {
        read_frame_via(&mut self.r, &mut self.payload)
    }
}

enum ReadStatus {
    Full,
    Eof,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadStatus> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(ReadStatus::Eof)
                } else {
                    Err(parse_err("eof inside frame"))
                }
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(parse_err(&format!("read failed: {e}"))),
        }
    }
    Ok(ReadStatus::Full)
}
