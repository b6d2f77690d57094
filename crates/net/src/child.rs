//! The child-process side of the socket backend: one process per
//! partition group.
//!
//! A child connects back to the parent, introduces itself (`Hello`),
//! receives its [`GroupPlan`](crate::wire::GroupPlan) (its subdomains, impedances and solver
//! settings), rebuilds its nodes with
//! [`build_node`] — bitwise-identical to the
//! in-process construction — then wires up the peer mesh and runs the
//! same [`crate::round::run_group`] loop the in-process mode runs on a
//! thread. Sockets only ever appear here, behind the executor's
//! [`GroupLinks`].
//!
//! Threads of a child in steady state:
//! - **main** runs the round loop and does all the writing itself: one
//!   [`Msg::WaveBatch`] frame per colour class and peer group per round
//!   and one
//!   [`Msg::SnapshotBatch`] frame per round, each encoded into a reused
//!   buffer and written with a single `write_all` (`SocketLinks`). No
//!   writer thread, no outbound queue: every link's far end is drained by
//!   a reader thread that never waits on anything but its socket, so a
//!   direct write cannot deadlock.
//! - **one reader per peer link** decodes each incoming frame into a
//!   wave batch and passes it to main whole (one channel send per
//!   round).
//! - **one parent watcher**, the orphan protection: `Stop` *or EOF* on
//!   the parent link raises the stop flag, so a dying parent takes its
//!   children down instead of leaking solver processes. It also stores
//!   each `Due` round, the first one whose snapshots the round loop ships.

use crate::round::{self, GroupCtx, GroupIo, GroupLinks};
use crate::runner::FAIL_ENV;
use crate::socket::{Listener, Stream, TransportKind};
use crate::wire::{self, FrameReader, FrameWriter, Msg, SnapshotBatch, Wave};
use dtm_core::runtime::{build_node, CommonConfig, NodeRuntime};
use dtm_sparse::{Error, Result};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(30);

fn derr(what: impl std::fmt::Display) -> Error {
    Error::Parse(format!("net-child: {what}"))
}

/// Flag-style argument lookup (mirrors the `repro` CLI idiom).
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Entry point of the hidden `net-child` mode: parse the protocol flags,
/// run the group, report the outcome on the parent link. Returns the
/// process exit code (0 success, 1 runtime failure, 2 usage error).
pub fn child_main(args: &[String]) -> i32 {
    let Some(addr) = flag_value(args, "--connect") else {
        eprintln!("net-child: missing --connect <addr>");
        return 2;
    };
    let Some(group) = flag_value(args, "--group").and_then(|s| s.parse::<usize>().ok()) else {
        eprintln!("net-child: missing or invalid --group <n>");
        return 2;
    };
    let Some(kind) = flag_value(args, "--transport").and_then(TransportKind::parse) else {
        eprintln!("net-child: missing or invalid --transport <uds|tcp>");
        return 2;
    };

    match run_child(kind, addr, group) {
        Ok(()) => 0,
        Err(e) => {
            // Best effort: the parent learns more from an Err frame than
            // from an exit status, but the link may be what failed.
            if let Ok(mut s) = Stream::connect(kind, addr) {
                let _ = wire::write_frame(
                    &mut s,
                    &Msg::Hello {
                        group: group as u64,
                    },
                );
                let _ = wire::write_frame(
                    &mut s,
                    &Msg::Err {
                        text: e.to_string(),
                    },
                );
            }
            eprintln!("net-child group {group}: {e}");
            1
        }
    }
}

fn run_child(kind: TransportKind, addr: &str, group: usize) -> Result<()> {
    // Handshake: introduce, receive the plan.
    let mut parent = Stream::connect(kind, addr)?;
    parent.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    wire::write_frame(
        &mut parent,
        &Msg::Hello {
            group: group as u64,
        },
    )?;
    let plan = match wire::read_frame(&mut parent)? {
        Some(Msg::Plan(p)) => *p,
        other => return Err(derr(format!("expected Plan, got {other:?}"))),
    };
    if plan.group as usize != group {
        return Err(derr(format!(
            "plan addressed to group {}, this child is group {group}",
            plan.group
        )));
    }

    // Rebuild this group's nodes exactly as the in-process mode would.
    let common = CommonConfig {
        termination: plan.termination,
        max_solves_per_node: usize::try_from(plan.max_solves_per_node).unwrap_or(usize::MAX),
        ..Default::default()
    };
    let mut nodes: BTreeMap<usize, NodeRuntime> = BTreeMap::new();
    for pp in &plan.parts {
        let node = build_node(&pp.sub, &pp.z_ports, &common)?;
        nodes.insert(pp.sub.part, node);
    }

    // Bind the peer listener, report where it actually landed.
    let (listener, peer_addr) = Listener::bind(kind, &plan.listen_spec)?;
    wire::write_frame(&mut parent, &Msg::Listening { addr: peer_addr })?;
    let peer_map = match wire::read_frame(&mut parent)? {
        Some(Msg::PeerMap { addrs }) => addrs,
        other => return Err(derr(format!("expected PeerMap, got {other:?}"))),
    };

    // Full mesh: connect to every lower group, accept every higher one.
    let n_groups = plan.n_groups as usize;
    let mut peer_links: BTreeMap<usize, Stream> = BTreeMap::new();
    for h in 0..group {
        let addr = peer_map
            .iter()
            .find(|&&(g, _)| g as usize == h)
            .map(|(_, a)| a.as_str())
            .ok_or_else(|| derr(format!("peer map missing group {h}")))?;
        let mut s = Stream::connect(kind, addr)?;
        wire::write_frame(
            &mut s,
            &Msg::PeerHello {
                group: group as u64,
            },
        )?;
        peer_links.insert(h, s);
    }
    for _ in group + 1..n_groups {
        let mut s = listener.accept()?;
        s.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
        match wire::read_frame(&mut s)? {
            Some(Msg::PeerHello { group: h }) => {
                s.set_read_timeout(None)?;
                peer_links.insert(h as usize, s);
            }
            other => return Err(derr(format!("expected PeerHello, got {other:?}"))),
        }
    }

    // Mesh up: report per-round rates, wait for the starting gun.
    wire::write_frame(&mut parent, &Msg::Ready(round::group_rates(&nodes)))?;
    match wire::read_frame(&mut parent)? {
        Some(Msg::Go) => {}
        other => return Err(derr(format!("expected Go, got {other:?}"))),
    }
    parent.set_read_timeout(None)?;

    // Steady state: a reader thread per incoming link; the write halves
    // stay on this thread, behind the executor's links.
    let stop = Arc::new(AtomicBool::new(false));
    let (wave_tx, wave_rx) = channel::<Vec<Wave>>();
    let mut peers = BTreeMap::new();
    for (h, link) in peer_links {
        let reader = link.try_clone()?;
        let tx_in = wave_tx.clone();
        std::thread::spawn(move || peer_reader(reader, &tx_in));
        peers.insert(h, FrameWriter::new(link));
    }
    drop(wave_tx);
    let (stop_in, due) = (stop.clone(), Arc::new(AtomicU64::new(0)));
    let due_in = due.clone();
    let parent_reader = parent.try_clone()?;
    std::thread::spawn(move || watch_parent(parent_reader, &stop_in, &due_in));

    let ctx = GroupCtx {
        group,
        group_of_part: plan.group_of_part.iter().map(|&g| g as usize).collect(),
        colour_of_part: plan.colour_of_part.iter().map(|&c| c as usize).collect(),
        max_rounds: plan.max_rounds,
        fail_after_round: std::env::var(FAIL_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok()),
    };
    let mut io = GroupIo {
        wave_rx,
        links: SocketLinks {
            peers,
            parent: FrameWriter::new(parent),
        },
        stop,
        due,
    };
    let run = round::run_group(&mut nodes, &ctx, &mut io);

    let parent = &mut io.links.parent;
    match run {
        Ok(()) => {
            // After Stop the parent may already have decided the run and
            // closed the link — a failed Done is then benign teardown
            // noise, not a protocol error.
            if let Err(e) = parent.write(&Msg::Done) {
                if !io.stop.load(Ordering::Acquire) {
                    return Err(e);
                }
            }
            Ok(())
        }
        Err(e) => {
            let _ = parent.write(&Msg::Err {
                text: e.to_string(),
            });
            Err(e)
        }
    }
}

/// The socket links of one group: every batch becomes one frame, encoded
/// into the link's reused buffer and written from the calling thread
/// with a single `write_all`.
struct SocketLinks<W: Write> {
    peers: BTreeMap<usize, FrameWriter<W>>,
    parent: FrameWriter<W>,
}

impl<W: Write> GroupLinks for SocketLinks<W> {
    // lint: hot-path
    fn send_waves(&mut self, peer: usize, waves: &mut Vec<Wave>) -> Result<()> {
        self.peers
            .get_mut(&peer)
            .ok_or_else(|| derr(format!("no link to group {peer}")))?
            .write_waves(waves)
    }

    // lint: hot-path
    fn send_snapshots(&mut self, batch: &mut SnapshotBatch) -> Result<()> {
        self.parent.write_snapshots(batch)
    }
}

/// Pump one peer link's incoming wave batches into the shared inbox, one
/// channel send per frame. EOF or a wire error ends the pump; if the run
/// is still live the executor notices (the wave it is waiting for never
/// arrives), and the *parent* — watching the dead peer's supervisor link
/// — tears the run down, so nothing needs to escalate from here.
fn peer_reader(link: Stream, tx: &Sender<Vec<Wave>>) {
    let mut frames = FrameReader::new(link);
    loop {
        let batch = match frames.read() {
            Ok(Some(Msg::WaveBatch(waves))) => waves,
            Ok(Some(Msg::Wave(wave))) => vec![wave],
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break,
        };
        if tx.send(batch).is_err() {
            break;
        }
    }
}

/// Watch the parent link: `Stop` is the graceful shutdown signal, EOF or
/// an error means the parent is gone — either way, stop solving. `Due`
/// moves the round the snapshots are shipped from.
fn watch_parent(mut link: Stream, stop: &AtomicBool, due: &AtomicU64) {
    loop {
        match wire::read_frame(&mut link) {
            Ok(Some(Msg::Stop)) | Ok(None) | Err(_) => {
                stop.store(true, Ordering::Release);
                break;
            }
            Ok(Some(Msg::Due(round))) => due.store(round, Ordering::Release),
            Ok(Some(_)) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_core::impedance;
    use dtm_graph::evs::{split as evs_split, EvsOptions};
    use dtm_graph::{partition, ElectricGraph, PartitionPlan};
    use dtm_sparse::generators;
    use std::sync::Mutex;

    /// A link that keeps what every single `write` call was handed.
    #[derive(Clone, Default)]
    struct WriteLog(Arc<Mutex<Vec<Vec<u8>>>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().expect("log lock").push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl WriteLog {
        /// The frames written so far, asserting each `write` call carried
        /// exactly one whole frame.
        fn frames(&self) -> Vec<Msg> {
            let log = self.0.lock().expect("log lock");
            log.iter()
                .map(|call| {
                    let mut bytes = call.as_slice();
                    let msg = wire::read_frame(&mut bytes).expect("a frame");
                    assert!(bytes.is_empty(), "one write call, one frame");
                    msg.expect("not an eof")
                })
                .collect()
        }
    }

    #[test]
    fn one_write_per_peer_per_round_and_one_to_the_supervisor() {
        middle_group_frames(0);
    }

    /// Announced due rounds: the rounds below ship no snapshot frame, the
    /// cap's last round always ships one, and the waves do not change.
    #[test]
    fn rounds_below_the_due_one_ship_no_snapshots() {
        for due in [1, 2, 9] {
            middle_group_frames(due);
        }
    }

    /// Run the middle of three groups for three rounds with `due`
    /// announced, and check every frame it writes.
    fn middle_group_frames(due: u64) {
        // Three strips, one per group: the middle group has two peers.
        let side = 9;
        let a = generators::grid2d_laplacian(side, side);
        let b = generators::random_rhs(side * side, 31);
        let g = ElectricGraph::from_system(a, b).expect("symmetric");
        let plan = PartitionPlan::from_assignment(&g, &partition::grid_strips(side, side, 3))
            .expect("valid");
        let split = evs_split(&g, &plan, &EvsOptions::default()).expect("splits");
        let common = CommonConfig::default();
        let z = impedance::per_port(&split, &common.impedance.assign(&split).expect("z"));
        let mut built: Vec<NodeRuntime> = split
            .subdomains
            .iter()
            .zip(&z)
            .map(|(sd, z)| build_node(sd, z, &common).expect("builds"))
            .collect();

        // The outer groups' waves for every round, as their readers would
        // deliver them: one batch per peer per round. The outer parts are
        // coloured below the middle one, so it absorbs them in the round
        // they were sent in.
        const ROUNDS: u64 = 3;
        let (wave_tx, wave_rx) = channel();
        for round in 0..ROUNDS {
            for src in [0usize, 2] {
                let mut outbox: Vec<(usize, dtm_core::runtime::DtmMsg)> = Vec::new();
                let _ = built[src].step(&mut outbox);
                let batch: Vec<Wave> = outbox
                    .into_iter()
                    .map(|(dst, msg)| Wave {
                        round,
                        src: src as u64,
                        dst: dst as u64,
                        msg,
                    })
                    .collect();
                assert!(batch.iter().all(|w| w.dst == 1));
                wave_tx.send(batch).expect("inbox open");
            }
        }

        let (to_0, to_2, to_parent) = (
            WriteLog::default(),
            WriteLog::default(),
            WriteLog::default(),
        );
        let mut io = GroupIo {
            wave_rx,
            links: SocketLinks {
                peers: BTreeMap::from([
                    (0, FrameWriter::new(to_0.clone())),
                    (2, FrameWriter::new(to_2.clone())),
                ]),
                parent: FrameWriter::new(to_parent.clone()),
            },
            stop: Arc::new(AtomicBool::new(false)),
            due: Arc::new(AtomicU64::new(due)),
        };
        let ctx = GroupCtx {
            group: 1,
            group_of_part: vec![0, 1, 2],
            colour_of_part: crate::colour_assignment(&split),
            max_rounds: ROUNDS,
            fail_after_round: None,
        };
        let mut nodes = BTreeMap::from([(1, built.remove(1))]);
        round::run_group(&mut nodes, &ctx, &mut io).expect("runs to the cap");

        // The final round's waves go to lower-coloured parts, which would
        // absorb them in a round that never comes: two wave frames per
        // peer, three snapshot frames.
        for (peer, log) in [(0u64, &to_0), (2, &to_2)] {
            let frames = log.frames();
            assert_eq!(frames.len() as u64, ROUNDS - 1, "peer {peer}");
            for (round, frame) in frames.iter().enumerate() {
                let Msg::WaveBatch(waves) = frame else {
                    panic!("peer {peer} got {frame:?}");
                };
                assert!(!waves.is_empty());
                assert!(waves
                    .iter()
                    .all(|w| (w.round, w.src, w.dst) == (round as u64, 1, peer)));
            }
        }
        let shipped: Vec<u64> = (0..ROUNDS)
            .filter(|&r| r >= due || r == ROUNDS - 1)
            .collect();
        let frames = to_parent.frames();
        assert_eq!(frames.len(), shipped.len(), "due {due}");
        for (&round, frame) in shipped.iter().zip(&frames) {
            let Msg::SnapshotBatch(batch) = frame else {
                panic!("supervisor got {frame:?}");
            };
            assert_eq!((batch.round(), batch.len()), (round, 1));
        }
    }
}
