#!/usr/bin/env bash
# The structural ratchets: facts about the code that an earlier change
# established and that a later one must not quietly undo. One `check` per
# ratchet, its reason first. Run from anywhere:
#
#     bash .github/ratchets.sh
#
# Prints the offending lines and the reason of every ratchet that broke,
# then exits 1; exits 0 when all hold.
set -u
cd "$(dirname "$0")/.." || exit 1

broken=0

# check REASON COMMAND...: the ratchet holds while COMMAND succeeds.
check() {
    local reason=$1
    shift
    if ! "$@"; then
        echo "ratchet broken: $reason" >&2
        broken=1
    fi
}

# none PATTERN PATH...: no line under PATH matches the extended regex.
none() {
    ! grep -rnE "$@"
}

# waits FILE: every `yield_now()` and blocking `.recv()` of FILE's code
# before its test module, comments skipped, as CALL:FN for the fn it is in.
waits() {
    awk '/^#\[cfg\(test\)\]$/ { t = 1; next }
         t && /^mod tests/ { exit }
         { t = 0 }
         /^ *\/\// { next }
         /^ *(pub(\([a-z]+\))? )?fn / { f = $0; sub(/^ *(pub(\([a-z]+\))? )?fn /, "", f); sub(/[<(].*/, "", f) }
         /yield_now\(\)/ { printf "yield_now:%s ", f }
         /\.recv\(\)/ { printf "recv:%s ", f }' "$1"
}

# calls FN_PATTERN FILE...: for every line of FILEs' code before its test
# module that matches the extended regex, comments skipped, the fn it is in.
calls() {
    local pattern=$1
    shift
    for f in "$@"; do
        awk -v pat="$pattern" '/^#\[cfg\(test\)\]$/ { t = 1; next }
             t && /^mod / { exit }
             { t = 0 }
             /^ *\/\// { next }
             /^ *(pub(\([a-z]+\))? )?fn / { f = $0; sub(/^ *(pub(\([a-z]+\))? )?fn /, "", f); sub(/[<(].*/, "", f) }
             $0 ~ pat { print f }' "$f"
    done
}

check "the routing rule (j_new) is spelled in one file, cutoff::traversal" \
    test "$(grep -rl 'j_new' crates/core/src | wc -l)" -eq 1
check "every method runs in the one timestep loop of sim.rs" \
    test "$(grep -c 'for step in 0..cfg.steps' crates/core/src/sim.rs)" -eq 1
check "Plimpton's decompositions are Algorithm 1 at c = 1 and c = sqrt(p), not hand copies" \
    none 'particle_ring_forces|force_decomposition_forces|ForceDecompParams|ParticleRingParams|calibrate_host' \
    crates src tests examples
check "Plimpton's spatial decomposition (§II.C) is Algorithm 2 at c = 1, not a halo copy" \
    none 'SpatialHalo|spatial_halo|TAG_HALO' crates src tests examples
check "Plimpton's half-ring is Algorithm 1 at c = 1 on the half ring, not a hand copy of the shift body" \
    none 'particle_ring_symmetric|TAG_RING' crates src tests examples
check "errors leave through ? to the one place that prints them" \
    test "$(grep -rn 'return ExitCode::FAILURE' src | wc -l)" -le 3
check "the method names are spelled in one match" \
    test "$(grep -rn '"ca-cutoff-1d" =>' src | wc -l)" -eq 1
check "the transport writes one ledger per message, CommStats" \
    none 'CommMetrics|comm_metrics' crates src
check "a run setting has one spelling, its flag, not an environment variable" \
    none 'NBODY_RETRY|NBODY_CHECKPOINT_EVERY' crates src tests
check "re-assignment has one exchange body, the neighbour exchange" \
    none 'alltoallv|exchange_by_destination' crates/core/src
check "the retry deadline is one rule, whatever the fault" \
    none 'FaultClass' crates src tests
check "run's one retry flag is fault-timeout-ms (tests/cli.rs asserts the rest are refused)" \
    none 'max-retries|retry-backoff|retry-jitter|retry-seed|retry-budget-ms|peer-dead-timeout-ms' \
    crates src tests --exclude=cli.rs
check "every execution keeps the flight ring: Lenses has no switch for it" \
    none 'flight: (true|false)|Lenses::flight|lenses\.flight' crates src tests
check "the kernel has one lane loop: the symmetric case is a policy of the nest, not a second walk" \
    test "$(grep -c 'law.force_x2(' crates/core/src/kernel.rs)" -eq 1
check "the grid and the shrink form their communicators from what every rank knows (split_by), not by an allgather" \
    none '\.split\(' crates/core/src
check "the program reads one environment variable, NBODY_RECV_TIMEOUT_SECS; a run setting is a flag" \
    test "$(grep -rhoE 'env::var(_os)?\("[^"]*"\)' crates src | sort -u | wc -l)" -eq 1
check "a trace has one reloadable format, Chrome trace_event JSON" \
    none '(to|from)_jsonl' crates src tests
check "the run's artifacts are files that analyze reads; there is no server in front of them" \
    none 'TcpListener|MetricsServer|render_dashboard|serve-metrics' crates src tests --exclude=cli.rs
check "every subcommand, run flag and example has a reader outside its own tests (ROADMAP item 4's verdict table)" \
    none '\("(scale|postmortem)", |let profile = |run_distributed_sampled|radial_distribution' \
    crates src tests examples
check "every subcommand, run flag and example has a reader outside its own tests (ROADMAP item 4's verdict table): quickstart is the example" \
    test "$(ls examples | wc -l)" -le 1
check "the cull knows one notion of locality, the r_c cells of cell_order" \
    none 'Aabb|CHUNK|GROUP|fn beyond|\.floor\(' crates/core/src/kernel.rs
check "an artifact has one encoding: JSON for run artifacts and reports, CSV for the figure record" \
    none 'to_prometheus|parse_prometheus|to_events_csv|push_event_row|audit_csv|roofline_csv|render_csv|breakdown_json' \
    crates src tests
check "a recorded run has one reader, analyze: report and health are folded into it" \
    none '^ *\("(report|health)", ' src
check "one summary per trace, counts from the ledger, one DES entry point: no second per-phase fold, wire-probe count or traced simulator" \
    none 'wire_phase_counts|WirePhaseRow|simulate_traced|fn phase_imbalance' crates src tests
check "an injected fault has one door, the --faults plan: no second flag, config field or parser (tests/cli.rs asserts the old flags are refused)" \
    none 'inject-nan|corrupt-replica|crash-at-step|HealthInjection|pick_fastest|autotune_cutoff_1d' \
    crates src tests --exclude=cli.rs
check "every subcommand has a reader outside its own tests: autotune had none" \
    none '^ *\("autotune", ' src

check "conformance reads the ledger: the probe ring keeps no checker, fault events or fault notes (an injected fault is counted and noted in the flight ring, not probed)" \
    none 'check_conformance|FaultNote|probe_notes|probe_kind|FaultDrop|FaultDelay|FaultDup|FaultKill|fault_events' \
    crates src tests
check "one run writes one file, the run bundle --trace writes and analyze reads alone: no second writer for the metrics or the timeline, no option that names them again (tests/cli.rs asserts the old flags are refused)" \
    none 'record-timeline|TIMELINE_SCHEMA|fn absorb|--timeline|sweep_compute_flops' \
    crates src tests --exclude=cli.rs
check "a recorded run gets its verdicts from one reader, analyze: audit and conformance are folded into it" \
    none '^ *\("(audit|conformance)", ' src
check "analyze audits the bundle the run wrote: no subcommand defaults of its own to launch an audited run, no second per-phase send table" \
    none 'Defaults::AUDIT|fn send_table' src
check "one fault sweep, chaos, judges every schedule once: soak is chaos seconds=N, and a seeded plan's fault count is no option" \
    none '\("soak", |Defaults::SOAK|opts\.get\("events"' src
check "a team lookup truncates and clamps: no libm floor per particle in the deal or the re-assignment" \
    none '\.floor\(' crates/core/src/dist.rs
check "the gather orders by merging the ranks' id-sorted blocks (merge_by_id), not by sorting every particle" \
    none 'sort_by_key\(\|q\| q\.id\)' crates/core/src/sim.rs
check "rank threads outlive a run: run_ranks hands each rank to a parked worker of the pool, it spawns no scoped threads per launch" \
    none 'spawn_scoped|thread::scope' crates/comm/src
check "the transport has one unsafe, the pool's lifetime erasure of a rank's job, and it carries its SAFETY argument" \
    test "$(grep -rnw unsafe crates/comm/src | wc -l)" -eq 1 -a \
    "$(grep -rn -B20 -w unsafe crates/comm/src | grep -c 'SAFETY:')" -eq 1
check "every wait of the transport polls before it parks: one yield_now, in the one poll, and the one blocking recv() in wait, after it" \
    test "$(waits crates/comm/src/thread_comm.rs)" = "yield_now:poll recv:wait "
check "code names a ROADMAP item by what it says, not by its number: the numbers move" \
    none 'ROADMAP (item )?[0-9]' crates src tests examples
check "a copy is judged by its own digest, not by a vote of the copies: no majority or tie-break in recovery, no StateCorrupt error" \
    none -i 'majority|tie-?break|StateCorrupt|crosscheck' crates/core/src/recovery.rs crates/comm/src
check "cell_order sorts a freshly dealt block by counting its cells, not by a comparison sort that caches a key per particle" \
    none 'sort_by_cached_key' crates/core/src/kernel.rs
check "a cross-block pair reuses the last pair's spans only when it reaches the same cells: no open intervals kept to skip its reach" \
    none 'Keeps|keeps' crates/core/src/kernel.rs
check "the r_c cell cull has one implementation, kernel.rs's Cells: no serial cell list beside it" \
    none 'cell_list' crates/physics/src crates/bench

check "a clean fault-tolerant step agrees on what it already sends: the flags ride the team reduce, not an all-reduce down the column" \
    none 'col\.allreduce' crates/core/src/recovery.rs
check "the column-then-row agreement is gone: the leaders settle the row once and the verdict rides the team broadcast" \
    none 'fn agree\b' crates/core/src/recovery.rs

check "what a shift step sends, the pipeline sends: every link.send( is in cutoff::shift_pipeline, the one shift body" \
    test "$(calls 'link\.send\(' crates/core/src/*.rs | sort -u)" = "shift_pipeline"
check "the half window has one predicate, cutoff::walked_window: defined once, and no other code builds a half window" \
    test "$(grep -rn 'fn walked_window' crates src | wc -l)" -eq 1 -a \
    "$(calls '\.half\(\)' $(find crates/*/src src -name '*.rs') | sort | uniq -c | tr -s ' ')" = " 1 walked_window"
check "the midpoint baseline is gone: Algorithm 2 at c = 1 asks each pair once and ships only what its readers reach, so no second spatial method, twin or force-return record beside it" \
    none 'midpoint_forces|MidpointParams|Midpoint1d|Midpoint2d|FORCE_RECORD_BYTES' crates src tests examples

exit "$broken"
