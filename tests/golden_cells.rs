//! Golden cell digests: the reproduction's simulated numbers, pinned.
//!
//! `tests/golden/cells.txt` holds one journal record line
//! ([`format_record_line`] over [`encode_result`], so every `f64`
//! travels as its exact bits and each line carries a checksum) per
//! cell: the first Table 2 mix of each workload group under every
//! policy, at a short quota, through the production sweep path
//! ([`run_cells`]), followed by two squash-heavy cells the group sweep
//! does not reach — the second MEM4 mix under FLUSH (partial rewinds to
//! surviving in-flight instructions) and a MEM4 RaT run truncated by
//! `max_cycles` mid-flight (the replay cursor may sit below the
//! execution frontier when the clock stops), and then five cells off the
//! baseline configuration: the first MEM2 mix under the two RaT ablation
//! variants of fig4 (`NoPrefetch`, `NoFetch`), the same mix under FLUSH
//! and RaT with fig6's smallest 2-thread register file (96 int/fp
//! registers), and the first MIX4 mix under RaT with post-quota drain
//! off (`no_drain`, the literal FAME reference path). Any change that
//! moves a simulated number — in the pipeline, the memory hierarchy, the
//! predictor, the workload generator or the sweep plumbing — fails here.
//!
//! On a mismatch the test prints the recomputed file. A change that
//! moves numbers on purpose replaces the file with that output in the
//! same commit and says why.

use rat_bench::{run_cells, SweepCell, SweepSession};
use rat_core::smt::{PolicyKind, RunaheadVariant, SmtConfig};
use rat_core::store::{encode_result, format_record_line};
use rat_core::workload::{mixes_for_group, WorkloadGroup, ALL_GROUPS};
use rat_core::{CellKey, RunConfig, Runner};

const GOLDEN: &str = include_str!("golden/cells.txt");

const POLICIES: [PolicyKind; 7] = [
    PolicyKind::RoundRobin,
    PolicyKind::Icount,
    PolicyKind::Stall,
    PolicyKind::Flush,
    PolicyKind::Dcra,
    PolicyKind::Hill,
    PolicyKind::Rat,
];

/// The quota and seed every non-truncated golden cell runs at.
fn short() -> RunConfig {
    RunConfig {
        insts_per_thread: 1_500,
        warmup_insts: 700,
        seed: 42,
        ..RunConfig::default()
    }
}

/// Table 1 hardware under RaT with one of fig4's runahead variants.
fn rat_variant(variant: RunaheadVariant) -> Runner {
    let mut cfg = SmtConfig::hpca2008_baseline();
    cfg.policy = PolicyKind::Rat;
    cfg.runahead.variant = variant;
    Runner::new(cfg, short())
}

/// Recomputes the golden file's contents.
fn recompute() -> String {
    let runner = Runner::new(SmtConfig::hpca2008_baseline(), short());
    let truncated = Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            insts_per_thread: 10_000_000, // unreachable: forces truncation
            warmup_insts: 200,
            max_cycles: 20_000,
            seed: 42,
            ..RunConfig::default()
        },
    );
    let no_prefetch = rat_variant(RunaheadVariant::NoPrefetch);
    let no_fetch = rat_variant(RunaheadVariant::NoFetch);
    let mut small_regs = SmtConfig::hpca2008_baseline();
    small_regs.int_regs = 96;
    small_regs.fp_regs = 96;
    let small_regs = Runner::new(small_regs, short());
    let no_drain = Runner::new(
        SmtConfig::hpca2008_baseline(),
        RunConfig {
            no_drain: true,
            ..short()
        },
    );
    let mem4 = mixes_for_group(WorkloadGroup::Mem4);
    let mem2 = mixes_for_group(WorkloadGroup::Mem2).swap_remove(0);
    let mix4 = mixes_for_group(WorkloadGroup::Mix4).swap_remove(0);
    let mut cells = Vec::new();
    for &group in ALL_GROUPS {
        let mix = mixes_for_group(group).swap_remove(0);
        for policy in POLICIES {
            cells.push(SweepCell {
                runner: &runner,
                mix: mix.clone(),
                policy,
            });
        }
    }
    cells.push(SweepCell {
        runner: &runner,
        mix: mem4[1].clone(),
        policy: PolicyKind::Flush,
    });
    cells.push(SweepCell {
        runner: &truncated,
        mix: mem4[0].clone(),
        policy: PolicyKind::Rat,
    });
    for (runner, policy) in [
        (&no_prefetch, PolicyKind::Rat),
        (&no_fetch, PolicyKind::Rat),
        (&small_regs, PolicyKind::Flush),
        (&small_regs, PolicyKind::Rat),
    ] {
        cells.push(SweepCell {
            runner,
            mix: mem2.clone(),
            policy,
        });
    }
    cells.push(SweepCell {
        runner: &no_drain,
        mix: mix4,
        policy: PolicyKind::Rat,
    });
    let report = run_cells(&cells, 2, &SweepSession::none());
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let mut out = String::new();
    for (cell, result) in cells.iter().zip(&report.results) {
        let key = CellKey::new(
            cell.runner.config_fingerprint(),
            &cell.mix,
            cell.policy,
            cell.runner.run_config().seed,
        );
        let words = encode_result(result.as_ref().expect("no failures"));
        out.push_str(&format_record_line(&key, &words));
        out.push('\n');
    }
    out
}

#[test]
fn cells_match_golden_digests() {
    let actual = recompute();
    if actual != GOLDEN {
        let lines = |s: &str| s.lines().count();
        let differing = actual
            .lines()
            .zip(GOLDEN.lines())
            .filter(|(a, g)| a != g)
            .count();
        panic!(
            "simulated cells differ from tests/golden/cells.txt \
             ({differing} differing line(s); {} recomputed vs {} golden).\n\
             Recomputed file:\n{actual}",
            lines(&actual),
            lines(GOLDEN)
        );
    }
}
