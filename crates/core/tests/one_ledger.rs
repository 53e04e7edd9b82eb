//! A rank keeps one ledger: the transport counts every message once, in the
//! rank's `CommStats`, and a traced run's `comm_*` metrics are that ledger
//! read out when the rank finishes. So every `comm_*` sample of the
//! snapshot equals the matching ledger field, rank by rank and phase by
//! phase — receive counts and the message-size histogram included — and
//! every per-peer send sample equals the ledger's channel, on a replicated
//! all-pairs run, a re-assigning cutoff run and a fault-injected run alike.

use ca_nbody::recovery::RetryPolicy;
use ca_nbody::sim::{Method, Run, RunOutput, SimConfig};
use nbody_comm::{CommStats, FaultPlan, MetricsSnapshot, Phase, ALL_PHASES};
use nbody_physics::{init, Boundary, Cutoff, Domain, RepulsiveInverseSquare, SemiImplicitEuler};

fn cfg(boundary: Boundary) -> SimConfig<Cutoff<RepulsiveInverseSquare>, SemiImplicitEuler> {
    SimConfig {
        law: Cutoff::new(
            RepulsiveInverseSquare {
                strength: 1e-3,
                softening: 1e-3,
            },
            0.25,
        ),
        integrator: SemiImplicitEuler,
        domain: Domain::unit(),
        boundary,
        dt: 0.01,
        steps: 3,
    }
}

/// The ledgers of a finished run and its exported snapshot.
fn ledgers_and_snapshot(out: RunOutput, label: &str) -> (Vec<CommStats>, MetricsSnapshot) {
    let run = out.result.unwrap_or_else(|e| panic!("{label}: {e}"));
    (run.stats, out.artifacts.metrics)
}

/// Every `comm_*` sample is the ledger field it names, and no sample is
/// left over.
fn assert_snapshot_is_the_ledger(stats: &[CommStats], metrics: &MetricsSnapshot, label: &str) {
    assert_eq!(metrics.ranks.len(), stats.len(), "{label}");
    for (rank, (s, rm)) in stats.iter().zip(&metrics.ranks).enumerate() {
        assert_eq!(rm.rank as usize, rank, "{label}");
        let mut nonzero = 0;
        for phase in ALL_PHASES {
            let c = s.phase(phase);
            let at = Some(phase);
            for (name, field) in [
                ("comm_send_messages", c.messages),
                ("comm_send_elements", c.elements),
                ("comm_send_bytes", c.bytes),
                ("comm_recv_messages", c.recv_messages),
                ("comm_recv_elements", c.recv_elements),
                ("comm_recv_bytes", c.recv_bytes),
                ("comm_collective_messages", c.collective_messages),
                ("comm_collective_elements", c.collective_elements),
                ("comm_collective_bytes", c.collective_bytes),
            ] {
                let got = rm.counter(name, at);
                assert_eq!(got, field, "{label}: rank {rank} {phase:?} {name}");
                nonzero += usize::from(field > 0);
            }
            let hist = rm.histogram("comm_message_size_bytes", at);
            assert_eq!(
                hist.copied().unwrap_or_default(),
                c.message_sizes,
                "{label}: rank {rank} {phase:?} sizes"
            );
            nonzero += usize::from(c.message_sizes.count() > 0);
            // Every message on the wire is bucketed once.
            assert_eq!(
                c.message_sizes.count(),
                c.messages + c.collective_messages,
                "{label}: rank {rank} {phase:?}"
            );
        }
        // The sends are exported per channel, and nowhere else.
        let mut channels = 0;
        for ch in s.channels() {
            for (name, field) in [
                ("comm_send_messages", ch.messages),
                ("comm_send_elements", ch.elements),
            ] {
                let sample = rm.counters.iter().find(|c| {
                    c.name == name && c.phase == Some(ch.phase) && c.peer == Some(ch.peer)
                });
                let got = sample.map_or(0, |c| c.value);
                assert_eq!(got, field, "{label}: rank {rank} {ch:?} {name}");
                channels += usize::from(field > 0);
            }
        }
        let peered = rm.counters.iter().filter(|c| c.peer.is_some()).count();
        assert_eq!(peered, channels, "{label}: rank {rank}: channels");
        // Samples are sorted by (name, phase, peer): a channel's samples
        // fold into their (name, phase), which must be a ledger field.
        let counters = rm.counters.iter().map(|s| (&s.name, s.phase));
        let mut exported: Vec<_> = counters
            .chain(rm.histograms.iter().map(|s| (&s.name, s.phase)))
            .filter(|(name, _)| name.starts_with("comm_"))
            .collect();
        exported.dedup();
        assert_eq!(
            exported.len(),
            nonzero,
            "{label}: rank {rank}: samples beyond the ledger"
        );
    }
}

/// On a run that loses and duplicates nothing, every point-to-point send is
/// received in the phase it was sent in.
fn assert_every_send_is_received(stats: &[CommStats], label: &str) {
    for phase in ALL_PHASES {
        let sum = |f: fn(&nbody_comm::PhaseCounters) -> [u64; 3]| {
            stats
                .iter()
                .map(|s| f(s.phase(phase)))
                .fold([0; 3], |a, b| [a[0] + b[0], a[1] + b[1], a[2] + b[2]])
        };
        let sent = sum(|c| [c.messages, c.elements, c.bytes]);
        let received = sum(|c| [c.recv_messages, c.recv_elements, c.recv_bytes]);
        assert_eq!(sent, received, "{label}: {phase:?}");
    }
}

#[test]
fn traced_replicated_all_pairs_exports_its_ledger() {
    let cfg = cfg(Boundary::Reflective);
    let initial = init::uniform(64, &cfg.domain, 3);
    let label = "ca c=2 p=8";
    let out = Run::new(&cfg, Method::CaAllPairs { c: 2 }, 8)
        .trace()
        .execute(&initial);
    let (stats, metrics) = ledgers_and_snapshot(out, label);
    assert_snapshot_is_the_ledger(&stats, &metrics, label);
    assert_every_send_is_received(&stats, label);
    assert!(stats
        .iter()
        .any(|s| s.phase(Phase::Shift).recv_messages > 0));
}

#[test]
fn traced_reassigning_cutoff_run_exports_its_ledger() {
    let cfg = cfg(Boundary::Periodic);
    let initial = init::uniform(96, &cfg.domain, 5);
    let label = "ca-cutoff-1d periodic p=4";
    let out = Run::new(&cfg, Method::Ca1dCutoff { c: 1 }, 4)
        .trace()
        .execute(&initial);
    let (stats, metrics) = ledgers_and_snapshot(out, label);
    assert_snapshot_is_the_ledger(&stats, &metrics, label);
    assert_every_send_is_received(&stats, label);
    let reassigned: u64 = stats
        .iter()
        .map(|s| s.phase(Phase::Reassign).recv_messages)
        .sum();
    assert_eq!(reassigned, 3 * 4 * 2, "two neighbours per leader-step");
}

#[test]
fn traced_run_under_drop_and_dup_exports_its_ledger() {
    let cfg = cfg(Boundary::Reflective);
    let initial = init::uniform(64, &cfg.domain, 7);
    let plan = FaultPlan::parse("drop:1@1,dup:2@1").unwrap();
    let policy = RetryPolicy::with_timeout_ms(300);
    let label = "ca c=2 p=8 drop+dup";
    let out = Run::new(&cfg, Method::CaAllPairs { c: 2 }, 8)
        .trace()
        .faults(&plan, &policy)
        .execute(&initial);
    let (stats, metrics) = ledgers_and_snapshot(out, label);
    assert_snapshot_is_the_ledger(&stats, &metrics, label);
    // The duplicate's second copy is sent and never consumed: the ledger
    // counts what crossed the wire, not what was wanted.
    let total = |f: fn(&CommStats) -> u64| stats.iter().map(f).sum::<u64>();
    let sent = total(|s| ALL_PHASES.iter().map(|&p| s.phase(p).messages).sum());
    let received = total(|s| ALL_PHASES.iter().map(|&p| s.phase(p).recv_messages).sum());
    assert!(sent > received, "{label}: sent {sent}, received {received}");
}
