//! Property-based tests of the threaded message-passing runtime: random
//! payloads, random routings, and random grid splits must behave like MPI.

use nbody_comm::{run_ranks, sum_combine, CommStats, Communicator, Phase, ALL_PHASES};
use proptest::prelude::*;

/// Decode one `u64` into a statistics-recording operation and apply it.
/// `blocked_secs` values are integer-valued `f64`s, so the sharded and
/// sequential sums are exactly equal regardless of addition order.
fn apply_op(stats: &mut CommStats, op: u64) {
    let phase = ALL_PHASES[(op as usize) % ALL_PHASES.len()];
    let kind = (op / 6) % 4;
    let a = ((op / 24) % 500) as usize;
    let b = ((op / 12_000) % 4_000) as usize;
    stats.set_phase(phase);
    match kind {
        0 => stats.record_send(a % 4, a, b),
        1 => stats.record_collective(a, b),
        2 => stats.record_collective_message(),
        _ => stats.record_blocked(a as f64),
    }
}

proptest! {
    // Each case spawns threads; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merging_shards_equals_sequential_recording(
        ops in proptest::collection::vec(any::<u64>(), 0..300),
        shard_count in 1usize..8,
    ) {
        // One recorder observing every operation...
        let mut sequential = CommStats::new();
        for &op in &ops {
            apply_op(&mut sequential, op);
        }
        // ...must agree with N shards observing a round-robin partition,
        // merged in an arbitrary (here: reverse) order.
        let mut shards = vec![CommStats::new(); shard_count];
        for (i, &op) in ops.iter().enumerate() {
            apply_op(&mut shards[i % shard_count], op);
        }
        let mut merged = CommStats::new();
        for shard in shards.iter().rev() {
            merged.merge(shard);
        }
        for phase in ALL_PHASES {
            prop_assert_eq!(merged.phase(phase), sequential.phase(phase), "{:?}", phase);
        }
        prop_assert_eq!(merged.total_messages(), sequential.total_messages());
        prop_assert_eq!(merged.total_elements(), sequential.total_elements());
        prop_assert_eq!(merged.total_bytes(), sequential.total_bytes());
        prop_assert_eq!(merged.total_collectives(), sequential.total_collectives());
        prop_assert_eq!(merged.channels(), sequential.channels());
        // Merging must not disturb the receiving side's current phase.
        prop_assert_eq!(merged.current_phase(), Phase::Other);
    }

    #[test]
    fn bcast_delivers_arbitrary_payloads(
        p in 1usize..10,
        root_seed in any::<usize>(),
        payload in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let root = root_seed % p;
        let expected = payload.clone();
        let out = run_ranks(p, move |comm| {
            let mut buf = if comm.rank() == root {
                payload.clone()
            } else {
                Vec::new()
            };
            comm.bcast(root, &mut buf);
            buf
        });
        for got in out {
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn reduce_equals_serial_fold(
        p in 1usize..10,
        root_seed in any::<usize>(),
        len in 0usize..50,
        seed in any::<u64>(),
    ) {
        let root = root_seed % p;
        // Deterministic per-rank data derived from (seed, rank, index).
        let data = |rank: usize, i: usize| -> u64 {
            seed.wrapping_mul(31)
                .wrapping_add(rank as u64 * 1009)
                .wrapping_add(i as u64 * 7)
                % 1_000_000
        };
        let out = run_ranks(p, move |comm| {
            let mut buf: Vec<u64> = (0..len).map(|i| data(comm.rank(), i)).collect();
            comm.reduce(root, &mut buf, sum_combine);
            (comm.rank(), buf)
        });
        let want: Vec<u64> = (0..len)
            .map(|i| (0..p).map(|r| data(r, i)).sum())
            .collect();
        let (_, got) = &out[root];
        prop_assert_eq!(got, &want);
    }

    #[test]
    fn allgather_collects_everything_in_order(
        p in 1usize..9,
        lens in proptest::collection::vec(0usize..20, 1..9),
    ) {
        let out = run_ranks(p, |comm| {
            let len = lens[comm.rank() % lens.len()];
            let mine: Vec<u64> = (0..len).map(|i| (comm.rank() * 100 + i) as u64).collect();
            comm.allgather(&mine)
        });
        for per_rank in out {
            prop_assert_eq!(per_rank.len(), p);
            for (src, block) in per_rank.iter().enumerate() {
                let len = lens[src % lens.len()];
                let want: Vec<u64> = (0..len).map(|i| (src * 100 + i) as u64).collect();
                prop_assert_eq!(block, &want);
            }
        }
    }

    #[test]
    fn arbitrary_grid_splits_route_correctly(
        cols in 1usize..5,
        rows in 1usize..4,
    ) {
        let p = cols * rows;
        let out = run_ranks(p, move |comm| {
            let col = comm.split(comm.rank() % cols, comm.rank());
            let row = comm.split(comm.rank() / cols, comm.rank());
            // Sum world ranks along each axis.
            let mut cs = vec![comm.rank() as u64];
            col.allreduce(&mut cs, sum_combine);
            let mut rs = vec![comm.rank() as u64];
            row.allreduce(&mut rs, sum_combine);
            (cs[0], rs[0])
        });
        for (r, &(csum, rsum)) in out.iter().enumerate() {
            let col_id = r % cols;
            let row_id = r / cols;
            let want_c: u64 = (0..rows).map(|k| (k * cols + col_id) as u64).sum();
            let want_r: u64 = (0..cols).map(|k| (row_id * cols + k) as u64).sum();
            prop_assert_eq!(csum, want_c);
            prop_assert_eq!(rsum, want_r);
        }
    }
}
