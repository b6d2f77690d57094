//! Property tests for the shared runtime's wave algebra.
//!
//! Eq. (2.1) — `U_out(t) + Z·I_out(t) = U_in(t−τ) − Z·I_in(t−τ)` — is the
//! entire message contract between DTM nodes: whatever a sender scatters,
//! the receiver's merge must reconstruct the same wave value `u − Z·ω`,
//! and the receiver's next solve must satisfy the Robin condition
//! `u + Z·ω = w` at every port. These properties pin that down across
//! arbitrary impedances, arbitrary boundary states, and arbitrary
//! delivery delays (a delayed wave is just an older message — the algebra
//! must hold whenever it arrives).

use dtm_repro::core::dtl;
use dtm_repro::core::runtime::{build_nodes, CommonConfig, DtmMsg, PortUpdate};
use dtm_repro::core::ImpedancePolicy;
use proptest::prelude::*;

mod common;

use common::example_5_1_split as paper_split;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Pure algebra: a scatter followed by the neighbour's merge preserves
    /// the eq. (2.1) invariant `U + Z·I` for any impedance and any state.
    #[test]
    fn scatter_merge_preserves_wave_invariant(
        u_send in -1e3f64..1e3,
        omega_send in -1e3f64..1e3,
        u_recv in -1e3f64..1e3,
        z_exp in -6.0f64..6.0,
    ) {
        let z = (2.0f64).powf(z_exp);
        // Sender side of eq. (2.1): the transmitted wave.
        let w = dtl::outgoing_wave(u_send, omega_send, z);
        // Receiver merge: the incident wave from the transmitted pair must
        // equal the sender's outgoing wave bit-for-bit (same formula).
        let w_merged = dtl::incident_wave(u_send, omega_send, z);
        prop_assert_eq!(w, w_merged);
        // Whatever potential the receiver's solve lands on, the implied
        // inflow current restores the invariant  u + z·ω = w.
        let omega_recv = dtl::inflow_current(w_merged, u_recv, z);
        prop_assert!(
            dtl::satisfies_delay_equation(u_recv, omega_recv, w_merged, z, 1e-9 * w.abs().max(1.0)),
            "u + zω = {} vs w = {}", u_recv + z * omega_recv, w
        );
    }

    /// Runtime level: node 0's step scatters exactly the waves node 1's
    /// merge reconstructs, and node 1's next solve satisfies the delay
    /// equation at every port — for arbitrary DTLP impedances.
    #[test]
    fn runtime_scatter_then_merge_satisfies_delay_equation(
        z2_exp in -4.0f64..4.0,
        z3_exp in -4.0f64..4.0,
        rounds in 1usize..6,
    ) {
        let z2 = (2.0f64).powf(z2_exp);
        let z3 = (2.0f64).powf(z3_exp);
        let ss = paper_split();
        let common = CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![z2, z3]),
            ..Default::default()
        };
        let mut nodes = build_nodes(&ss, &common).expect("factors");
        let mut transport: Vec<(usize, DtmMsg)> = Vec::new();
        for _ in 0..rounds {
            nodes[0].step(&mut transport);
        }
        // Deliver the *last* wave front (freshest boundary conditions).
        let (dst, msg) = transport.last().expect("scattered").clone();
        prop_assert_eq!(dst, 1);
        nodes[1].absorb_msg(&msg);
        let mut sink: Vec<(usize, DtmMsg)> = Vec::new();
        nodes[1].step(&mut sink);
        for update in &msg.updates {
            let z = nodes[1].local().impedances()[update.port];
            // The merged incident wave is the sender's u − z·ω (scalar
            // pipeline: the block payload is one column wide).
            prop_assert_eq!(update.u.len(), 1);
            let w = nodes[1].local().incident_wave(update.port);
            prop_assert!(
                (w - dtl::incident_wave(update.u[0], update.omega[0], z)).abs()
                    <= 1e-12 * w.abs().max(1.0),
                "incident wave mismatch at port {}", update.port
            );
            // And the receiver's solve satisfies  u + z·ω = w  there.
            let (u, omega) = nodes[1].local().outgoing(update.port);
            prop_assert!(
                dtl::satisfies_delay_equation(u, omega, w, z, 1e-8 * w.abs().max(1.0)),
                "port {}: u + zω = {} vs w = {}", update.port, u + z * omega, w
            );
        }
    }

    /// Delay-independence: a wave delivered late (any earlier scatter of
    /// the same sender) still satisfies eq. (2.1) on merge — the invariant
    /// carries no timestamp, exactly why arbitrary link delays are safe
    /// (Theorem 6.1).
    #[test]
    fn delayed_waves_preserve_the_invariant(
        z2_exp in -3.0f64..3.0,
        total in 2usize..7,
        pick in 0usize..6,
    ) {
        prop_assume!(pick < total);
        let z2 = (2.0f64).powf(z2_exp);
        let ss = paper_split();
        let common = CommonConfig {
            impedance: ImpedancePolicy::PerDtlp(vec![z2, 0.1]),
            ..Default::default()
        };
        let mut nodes = build_nodes(&ss, &common).expect("factors");
        let mut transport: Vec<(usize, DtmMsg)> = Vec::new();
        // Sender advances `total` states; its wave fronts pile up in the
        // transport (in flight with different delays).
        for _ in 0..total {
            nodes[0].step(&mut transport);
        }
        // An arbitrarily delayed front (the `pick`-th oldest) arrives.
        let (_, msg) = transport[pick].clone();
        let updates: Vec<PortUpdate> = msg.updates.clone();
        nodes[1].absorb_msg(&msg);
        let mut sink: Vec<(usize, DtmMsg)> = Vec::new();
        nodes[1].step(&mut sink);
        for update in &updates {
            let z = nodes[1].local().impedances()[update.port];
            let w = nodes[1].local().incident_wave(update.port);
            let (u, omega) = nodes[1].local().outgoing(update.port);
            prop_assert!(
                dtl::satisfies_delay_equation(u, omega, w, z, 1e-8 * w.abs().max(1.0)),
                "delayed wave broke eq. (2.1) at port {}", update.port
            );
        }
    }
}
