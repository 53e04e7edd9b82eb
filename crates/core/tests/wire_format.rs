//! What each phase of the plain CA drivers puts on the wire, read off live
//! `CommStats`: sources out (32 B), forces back (16 B), whole particles only
//! when ownership changes (64 B). The element and message counts are pinned
//! to what the drivers sent while every phase still shipped 64-byte
//! particles — the wire format changed the size of an element, never how
//! many move or in how many messages. One column has moved since, on
//! purpose: re-assignment's message count is its neighbourhood's, no longer
//! `teams − 1` per leader ([`REASSIGN_1D`], [`REASSIGN_2D`]); what it
//! carries has not.

use ca_nbody::sim::{run_distributed, Method, SimConfig};
use nbody_comm::Phase;
use nbody_physics::{
    init, Boundary, Cutoff, Domain, Particle, RepulsiveInverseSquare, SemiImplicitEuler, Source,
    Vec2,
};

/// The phases of a force evaluation and of re-assignment, with the bytes of
/// the element each carries.
const WIRE: [(Phase, usize); 5] = [
    (Phase::Broadcast, std::mem::size_of::<Source>()),
    (Phase::Skew, std::mem::size_of::<Source>()),
    (Phase::Shift, std::mem::size_of::<Source>()),
    (Phase::Reduce, std::mem::size_of::<Vec2>()),
    (Phase::Reassign, std::mem::size_of::<Particle>()),
];

/// Per phase, summed over ranks: point-to-point messages and elements,
/// collectives, their elements and their tree messages.
type Totals = [[u64; 5]; 5];

/// Re-assignment sends of the two steps on 4 clipped slabs: the edge teams
/// have one neighbour and the inner two have two (24 as an all-to-all).
const REASSIGN_1D: u64 = 2 * (1 + 2 + 2 + 1);
/// On the clipped 2 × 2 grid every team is a corner with three neighbours —
/// all the other teams, so as many as the all-to-all sent.
const REASSIGN_2D: u64 = 2 * (4 * 3);

/// `(method, p)` and the totals of a two-step run on 40 uniform particles,
/// recorded from the 64-byte wire.
const PINNED: [(Method, usize, Totals); 6] = [
    (
        Method::CaAllPairs { c: 1 },
        4,
        [[0; 5], [0; 5], [32, 320, 0, 0, 0], [0; 5], [0; 5]],
    ),
    (
        Method::CaAllPairs { c: 2 },
        8,
        [
            [0, 0, 16, 160, 8],
            [8, 80, 0, 0, 0],
            [32, 320, 0, 0, 0],
            [0, 0, 16, 160, 8],
            [0; 5],
        ],
    ),
    (
        Method::Ca1dCutoff { c: 1 },
        4,
        [
            [0; 5],
            [0; 5],
            [28, 273, 0, 0, 0],
            [0; 5],
            [REASSIGN_1D, 2, 0, 0, 0],
        ],
    ),
    (
        Method::Ca1dCutoff { c: 2 },
        8,
        [
            [0, 0, 16, 160, 8],
            [6, 62, 0, 0, 0],
            [28, 273, 0, 0, 0],
            [0, 0, 16, 160, 8],
            [REASSIGN_1D, 2, 0, 0, 0],
        ],
    ),
    (
        Method::Ca2dCutoff { c: 1 },
        4,
        [
            [0; 5],
            [0; 5],
            [32, 320, 0, 0, 0],
            [0; 5],
            [REASSIGN_2D, 1, 0, 0, 0],
        ],
    ),
    (
        Method::Ca2dCutoff { c: 2 },
        8,
        [
            [0, 0, 16, 160, 8],
            [4, 41, 0, 0, 0],
            [32, 320, 0, 0, 0],
            [0, 0, 16, 160, 8],
            [REASSIGN_2D, 1, 0, 0, 0],
        ],
    ),
];

#[test]
fn every_phase_carries_its_own_element_in_the_same_messages_as_before() {
    let cfg = SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        // Clipped windows: the home-route sends are on the wire too.
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 2,
    };
    let mut initial = init::uniform(40, &cfg.domain, 7);
    init::thermalize(&mut initial, 0.5, 7);
    for (method, p, pinned) in PINNED {
        let run = run_distributed(&cfg, method, p, &initial);
        let mut totals: Totals = [[0; 5]; 5];
        for (rank, stats) in run.stats.iter().enumerate() {
            for (i, (phase, element)) in WIRE.into_iter().enumerate() {
                let c = stats.phase(phase);
                let ctx = format!("{method:?} p={p} rank {rank} {phase:?}");
                assert_eq!(c.bytes, c.elements * element as u64, "{ctx}");
                assert_eq!(
                    c.collective_bytes,
                    c.collective_elements * element as u64,
                    "{ctx}: collective"
                );
                let counted = [
                    c.messages,
                    c.elements,
                    c.collectives,
                    c.collective_elements,
                    c.collective_messages,
                ];
                for (total, x) in totals[i].iter_mut().zip(counted) {
                    *total += x;
                }
            }
        }
        assert_eq!(totals, pinned, "{method:?} p={p}");
    }
}
