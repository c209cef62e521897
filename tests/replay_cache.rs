//! Fetch-replay checks: the fetch oracle serves every re-fetch after a
//! squash (runahead exit, FLUSH) from its record buffer, and what the
//! pipeline copied out of those records must stay consistent with them.
//!
//! The squash-heavy runs below step the simulator in short slices and
//! call [`SmtSimulator::check_invariants`] after each one. Beyond the
//! structural invariants, that check resolves every in-flight fetch-
//! buffer and ROB entry against the oracle's record for its sequence
//! number (PC, branch direction, effective address), so a rewind that
//! lands the cursor on the wrong record, or a replayed fetch that
//! disagrees with its first execution, fails here. The simulated
//! numbers of the same two runs are pinned in `tests/golden/cells.txt`.

use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{mixes_for_group, Mix, ThreadImage, WorkloadGroup};

/// Cycles between invariant checks.
const SLICE: u64 = 500;

fn build_sim(mix: &Mix, policy: PolicyKind) -> SmtSimulator {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = policy;
    let cpus = mix
        .benchmarks
        .iter()
        .enumerate()
        .map(|(i, &b)| ThreadImage::generate(b, 42 + i as u64).build_cpu())
        .collect();
    SmtSimulator::new(cfg, cpus)
}

/// Runs one phase toward `quota` in [`SLICE`]-cycle steps, checking
/// the invariants after every step, until the quota is reached or
/// `max_cycles` elapse. Returns whether the quota was reached.
fn run_checked(sim: &mut SmtSimulator, quota: u64, max_cycles: u64) -> bool {
    let mut left = max_cycles;
    while left > 0 {
        let slice = SLICE.min(left);
        let reached = sim.run_until_quota(quota, slice);
        sim.check_invariants();
        if reached {
            return true;
        }
        left -= slice;
    }
    false
}

/// Warmup, stats reset and a drained measurement window, as a sweep
/// cell runs them, with invariant checks throughout. Returns whether
/// the measurement quota was reached.
fn run_cell_checked(sim: &mut SmtSimulator, warmup: u64, insts: u64, max_cycles: u64) -> bool {
    run_checked(sim, warmup, max_cycles);
    sim.reset_stats();
    sim.check_invariants();
    sim.set_quota_drain(true);
    run_checked(sim, insts, max_cycles)
}

#[test]
fn rat_actually_replays_a_large_fraction_of_fetches() {
    // The records checks would pass vacuously if the buffer never
    // served anything; under RaT every episode's span is re-fetched, so
    // a large share of all fetches must come from the buffer.
    let mut sim = build_sim(&mixes_for_group(WorkloadGroup::Mem4)[0], PolicyKind::Rat);
    sim.run_until_quota(3_000, 100_000_000);
    let replayed = sim.stats().fetch_replays;
    let fetched: u64 = sim.stats().threads.iter().map(|t| t.fetched).sum();
    assert!(
        replayed * 4 > fetched,
        "expected >25% of RaT fetches to be replay-served, got {replayed}/{fetched}"
    );
}

#[test]
fn flush_squash_heavy_case_keeps_records_aligned() {
    // FLUSH on the memory-bound group squashes constantly — the
    // partial-rewind path (rewind to a surviving in-flight instruction,
    // not the commit point) that runahead exits never exercise.
    let mut sim = build_sim(&mixes_for_group(WorkloadGroup::Mem4)[1], PolicyKind::Flush);
    assert!(run_cell_checked(&mut sim, 700, 1_500, 100_000_000));
    assert!(
        sim.stats().threads.iter().any(|t| t.flushes > 0),
        "case must actually flush"
    );
    assert!(sim.stats().fetch_replays > 0, "flushes must re-fetch");
}

#[test]
fn truncated_runs_keep_records_aligned() {
    // A truncated run ends mid-flight — possibly mid-squash, with the
    // replay cursor below the execution frontier.
    let mut sim = build_sim(&mixes_for_group(WorkloadGroup::Mem4)[0], PolicyKind::Rat);
    let complete = run_cell_checked(&mut sim, 200, 10_000_000, 20_000);
    assert!(!complete, "run must actually truncate");
}
