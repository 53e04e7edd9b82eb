//! What each phase of the plain CA drivers puts on the wire, read off live
//! `CommStats`: sources out (32 B), forces back (16 B), whole particles only
//! when ownership changes (64 B). The element and message counts are pinned
//! to what the drivers sent while every phase still shipped 64-byte
//! particles — the wire format changed the size of an element, never how
//! many move or in how many messages. Two columns have moved since, on
//! purpose. Re-assignment's message count is its neighbourhood's, no longer
//! `teams − 1` per leader ([`REASSIGN_1D`], [`REASSIGN_2D`]); what it
//! carries has not. And the cutoff rows' Shift column lost the hop that
//! carried each row's own block home: a row now updates from the copy it
//! holds (`cutoff::traversal`): one message fewer per team and timestep.
//! The all-pairs rows, whose ring still ships it, are unchanged.
//!
//! Those pins are the paper's full window, under a law that does not
//! promise `f_ji = −f_ij` ([`OneWay`]). Under the symmetric law itself the
//! cutoff rows walk the half window: a Shift message then carries sources
//! (32 B), sources with the reactions they gathered (48 B) or a return of
//! bare reactions (16 B), in fewer Shift messages and elements
//! ([`HALF`]).

use ca_nbody::sim::{run_distributed, Method, SimConfig};
use nbody_comm::Phase;
use nbody_physics::{
    init, Boundary, Cutoff, Domain, ForceLaw, OneWay, Particle, RepulsiveInverseSquare,
    SemiImplicitEuler, Source, Vec2,
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
            [20, 193, 0, 0, 0],
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
            [20, 193, 0, 0, 0],
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
            [24, 240, 0, 0, 0],
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
            [24, 240, 0, 0, 0],
            [0, 0, 16, 160, 8],
            [REASSIGN_2D, 1, 0, 0, 0],
        ],
    ),
];

/// The cutoff rows' Skew and Shift columns under the symmetric law, on
/// the half window: messages, elements and bytes summed over ranks; the
/// other phases are [`PINNED`]'s. The all-pairs rows have no cutoff and
/// keep the full ring.
/// The clipped 2 × 2 grid at `c = 2` keeps the full window
/// (`cutoff::walked_window`): its busiest rank would send more on the half.
const HALF: [(Method, usize, [[u64; 3]; 2]); 4] = [
    (Method::Ca1dCutoff { c: 1 }, 4, [[0, 0, 0], [16, 165, 4944]]),
    (
        Method::Ca1dCutoff { c: 2 },
        8,
        [[6, 62, 1984], [16, 165, 4944]],
    ),
    (Method::Ca2dCutoff { c: 1 }, 4, [[0, 0, 0], [20, 216, 6192]]),
    (
        Method::Ca2dCutoff { c: 2 },
        8,
        [[4, 41, 1312], [24, 240, 7680]],
    ),
];

/// The two-step run the pins were recorded on, under `law`.
fn config<F: ForceLaw>(law: F) -> (SimConfig<F, SemiImplicitEuler>, Vec<Particle>) {
    let cfg = SimConfig {
        law,
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        // Clipped windows: the home-route sends are on the wire too.
        boundary: Boundary::Reflective,
        dt: 0.01,
        steps: 2,
    };
    let mut initial = init::uniform(40, &cfg.domain, 7);
    init::thermalize(&mut initial, 0.5, 7);
    (cfg, initial)
}

/// The symmetric law the pins were recorded under.
fn law() -> Cutoff<RepulsiveInverseSquare> {
    let law = RepulsiveInverseSquare {
        strength: 1e-3,
        softening: 1e-3,
    };
    Cutoff::new(law, 0.25)
}

#[test]
fn every_phase_carries_its_own_element_in_the_same_messages_as_before() {
    let (cfg, initial) = config(OneWay(law()));
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

/// The half window on the wire: every phase but Skew and Shift moves what
/// the full window moved, and those two move what [`HALF`] pins — fewer
/// Shift messages and elements than [`PINNED`]'s, a buffer that gathered
/// reactions carrying 48 B a particle and a return 16 B. The physics is the
/// same but for the rounding of the reactions' sums.
#[test]
fn the_half_window_moves_fewer_shift_messages_and_elements() {
    let (cfg, initial) = config(law());
    let (full_cfg, _) = config(OneWay(law()));
    for (method, p, pinned) in HALF {
        let run = run_distributed(&cfg, method, p, &initial);
        let full = run_distributed(&full_cfg, method, p, &initial);
        let ctx = format!("{method:?} p={p}");
        let mut moved = [[0; 3]; 2];
        for (rank, (stats, whole)) in run.stats.iter().zip(&full.stats).enumerate() {
            for phase in [Phase::Broadcast, Phase::Reduce, Phase::Reassign] {
                let (a, b) = (stats.phase(phase), whole.phase(phase));
                assert_eq!(
                    (a.messages, a.collectives),
                    (b.messages, b.collectives),
                    "{ctx} rank {rank} {phase:?}"
                );
            }
            for (i, phase) in [Phase::Skew, Phase::Shift].into_iter().enumerate() {
                let c = stats.phase(phase);
                for (total, x) in moved[i].iter_mut().zip([c.messages, c.elements, c.bytes]) {
                    *total += x;
                }
            }
        }
        assert_eq!(moved, pinned, "{ctx}");
        let shift = |stats: &[nbody_comm::CommStats]| -> [u64; 2] {
            let c = stats.iter().map(|s| s.phase(Phase::Shift));
            c.fold([0, 0], |[m, e], c| [m + c.messages, e + c.elements])
        };
        let (half, whole) = (shift(&run.stats), shift(&full.stats));
        let kept = pinned[1][2] == 32 * pinned[1][1];
        let fewer = half[0] <= whole[0] && half[1] < whole[1];
        assert!(
            kept && half == whole || fewer,
            "{ctx}: {half:?} against {whole:?}"
        );
        for (a, b) in run.particles.iter().zip(&full.particles) {
            assert_eq!(a.id, b.id);
            assert!((a.pos - b.pos).norm() < 1e-12, "{ctx}: particle {}", a.id);
        }
    }
}
