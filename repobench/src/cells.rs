//! A sweep cell broken into its public calls, in the Runner's order,
//! with a span around each call and the layer counters of its
//! measurement window; and the component probes of `isa`, `mem` and
//! `bpred`.

use std::path::Path;
use std::time::Instant;

use rat_core::bpred::{GlobalHistory, PerceptronPredictor, Predictor};
use rat_core::isa::{ExecRecord, InstructionKind};
use rat_core::mem::{AccessKind, CacheStats, Hierarchy};
use rat_core::smt::{PolicyKind, SmtConfig, SmtSimulator};
use rat_core::workload::{Benchmark, Mix, ThreadImage};
use rat_core::{par_map, MixResult, ResultStore, RunConfig, Runner, SLICE_CYCLES};

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{SpanBuf, Tracer};
use crate::WORKERS;

/// A Runner on the baseline machine at the given quota and seed.
pub fn runner(insts: u64, warmup: u64, seed: u64) -> Runner {
    let run = RunConfig {
        insts_per_thread: insts,
        warmup_insts: warmup,
        seed,
        ..RunConfig::default()
    };
    Runner::new(SmtConfig::hpca2008_baseline(), run)
}

/// Opens the journal at `path` in a `core.store_open` span.
pub fn open_store(tracer: &Tracer, path: &Path) -> ResultStore {
    let mut buf = tracer.buf(0);
    let store = buf.time("core.store_open", None, || ResultStore::open(path));
    buf.finish();
    store
}

/// Simulated-event counts of measurement windows (warmup excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    pub cycles: u64,
    pub skipped: u64,
    pub thread_cycles: u64,
    pub committed: u64,
    pub fetched: u64,
    pub fetch_replays: u64,
    pub squashed: u64,
    pub drain_commits: u64,
    pub runahead_episodes: u64,
    pub runahead_cycles: u64,
    pub l1d_done: u64,
    pub l1d_missed: u64,
    pub l2_done: u64,
    pub l2_missed: u64,
    pub mshr_rejected: u64,
    pub port_wait_cycles: u64,
    pub bus_wait_cycles: u64,
    pub predictions: u64,
    pub mispredictions: u64,
}

impl SimCounters {
    /// Adds `o` field by field.
    pub fn add(&mut self, o: &SimCounters) {
        self.cycles += o.cycles;
        self.skipped += o.skipped;
        self.thread_cycles += o.thread_cycles;
        self.committed += o.committed;
        self.fetched += o.fetched;
        self.fetch_replays += o.fetch_replays;
        self.squashed += o.squashed;
        self.drain_commits += o.drain_commits;
        self.runahead_episodes += o.runahead_episodes;
        self.runahead_cycles += o.runahead_cycles;
        self.l1d_done += o.l1d_done;
        self.l1d_missed += o.l1d_missed;
        self.l2_done += o.l2_done;
        self.l2_missed += o.l2_missed;
        self.mshr_rejected += o.mshr_rejected;
        self.port_wait_cycles += o.port_wait_cycles;
        self.bus_wait_cycles += o.bus_wait_cycles;
        self.predictions += o.predictions;
        self.mispredictions += o.mispredictions;
    }
}

/// Cumulative counters that `reset_stats` does not zero, read at the
/// start of the measurement window.
struct Baseline {
    skipped: u64,
    fetch_replays: u64,
    drain_commits: u64,
    icache: CacheStats,
    dcache: CacheStats,
    l2: CacheStats,
    port_wait_cycles: u64,
    bus_wait_cycles: u64,
}

impl Baseline {
    fn of(sim: &SmtSimulator) -> Baseline {
        let s = sim.stats();
        let h = sim.hierarchy();
        Baseline {
            skipped: s.skipped_cycles,
            fetch_replays: s.fetch_replays,
            drain_commits: s.drain_commits,
            icache: *h.icache_stats(),
            dcache: *h.dcache_stats(),
            l2: *h.l2_stats(),
            port_wait_cycles: s.mem_events.port_wait_cycles,
            bus_wait_cycles: s.mem_events.bus_wait_cycles,
        }
    }

    fn counters_since(&self, sim: &SmtSimulator) -> SimCounters {
        let s = sim.stats();
        let h = sim.hierarchy();
        let (d, l2, i) = (h.dcache_stats(), h.l2_stats(), h.icache_stats());
        let done = |c: &CacheStats, b: &CacheStats| {
            (c.hits + c.misses + c.merged) - (b.hits + b.misses + b.merged)
        };
        let missed = |c: &CacheStats, b: &CacheStats| (c.misses + c.merged) - (b.misses + b.merged);
        let sum = |f: fn(&rat_core::smt::ThreadStats) -> u64| s.threads.iter().map(f).sum::<u64>();
        SimCounters {
            cycles: s.cycles_since_reset(),
            skipped: s.skipped_cycles - self.skipped,
            thread_cycles: s.cycles_since_reset() * s.threads.len() as u64,
            committed: s.total_committed(),
            fetched: sum(|t| t.fetched),
            fetch_replays: s.fetch_replays - self.fetch_replays,
            squashed: sum(|t| t.squashed),
            drain_commits: s.drain_commits - self.drain_commits,
            runahead_episodes: sum(|t| t.runahead_episodes),
            runahead_cycles: sum(|t| t.runahead_cycles),
            l1d_done: done(d, &self.dcache),
            l1d_missed: missed(d, &self.dcache),
            l2_done: done(l2, &self.l2),
            l2_missed: missed(l2, &self.l2),
            mshr_rejected: (d.rejected - self.dcache.rejected)
                + (l2.rejected - self.l2.rejected)
                + (i.rejected - self.icache.rejected),
            port_wait_cycles: s.mem_events.port_wait_cycles - self.port_wait_cycles,
            bus_wait_cycles: s.mem_events.bus_wait_cycles - self.bus_wait_cycles,
            predictions: sum(|t| t.bpred.predictions),
            mispredictions: sum(|t| t.bpred.mispredictions),
        }
    }
}

/// What a traced cell produced.
pub struct TracedCell {
    pub cycles: u64,
    pub complete: bool,
    pub ipcs: Vec<f64>,
    pub committed: Vec<u64>,
    pub counters: SimCounters,
    /// `(benchmark, seed, resident words)` of each generated image.
    pub images: Vec<(Benchmark, u64, u64)>,
    /// Duration of the measurement span, in ns.
    pub measure_ns: u64,
}

impl TracedCell {
    /// Whether this cell reproduces the production result exactly:
    /// cycles, completion, per-thread IPC bits and committed counts.
    pub fn matches(&self, r: &MixResult) -> bool {
        self.cycles == r.cycles
            && self.complete == r.complete
            && self.ipcs.len() == r.ipcs.len()
            && self
                .ipcs
                .iter()
                .zip(&r.ipcs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self
                .committed
                .iter()
                .zip(&r.thread_stats)
                .all(|(&c, t)| c == t.committed)
            && self.committed.len() == r.thread_stats.len()
    }
}

/// Runs `mix` under `policy` the way `Runner::run_mix` does, one public
/// call at a time: generate and build each thread's image, build the
/// simulator, run warmup to quota, reset statistics, arm the quota
/// drain, then measure in `SLICE_CYCLES` slices, as the watchdog does.
/// The measurement span has an `smt.overshoot` child from the first
/// thread reaching its quota to the end, and that has an `smt.drain`
/// child from all but one thread having reached it. Both start at the
/// quota cycles read from `stats().threads_at_quota`, placed in host
/// time by interpolating within their slice.
pub fn traced_cell(
    runner: &Runner,
    mix: &Mix,
    policy: PolicyKind,
    buf: &mut SpanBuf<'_>,
) -> TracedCell {
    let run = *runner.run_config();
    let cell = buf.open("bench.cell", None);
    let mut cpus = Vec::with_capacity(mix.benchmarks.len());
    let mut images = Vec::with_capacity(mix.benchmarks.len());
    for (i, &b) in mix.benchmarks.iter().enumerate() {
        let seed = run.seed + i as u64;
        let img = buf.time("workload.generate", Some(cell), || {
            ThreadImage::generate(b, seed)
        });
        images.push((b, seed, img.memory_words()));
        cpus.push(buf.time("isa.build_cpu", Some(cell), || img.build_cpu()));
    }
    let mut cfg = *runner.smt_config();
    cfg.policy = policy;
    let mut sim = buf.time("smt.new", Some(cell), || {
        let mut sim = SmtSimulator::new(cfg, cpus);
        sim.set_cycle_skip(!run.no_skip);
        sim.set_fetch_replay(!run.no_replay);
        sim
    });
    buf.time("smt.warmup", Some(cell), || {
        sim.run_until_quota(run.warmup_insts, run.max_cycles)
    });
    buf.time("smt.reset_stats", Some(cell), || sim.reset_stats());
    let base = Baseline::of(&sim);
    buf.time("smt.set_quota_drain", Some(cell), || {
        sim.set_quota_drain(!run.no_drain)
    });

    let n = sim.num_threads();
    let measure = buf.open("smt.measure", Some(cell));
    // (host ns, simulated cycle) at every slice boundary.
    let mut marks = vec![(buf.now_ns(), sim.cycles())];
    let mut left = run.max_cycles;
    let complete = loop {
        let slice = SLICE_CYCLES.min(left);
        let reached = sim.run_until_quota(run.insts_per_thread, slice);
        marks.push((buf.now_ns(), sim.cycles()));
        left -= slice;
        if reached || left == 0 {
            break reached;
        }
    };
    buf.close(measure);
    let mut quota: Vec<u64> = sim
        .stats()
        .threads_at_quota
        .iter()
        .flatten()
        .filter_map(|t| t.quota_cycle)
        .collect();
    quota.sort_unstable();
    let end = marks[marks.len() - 1].0;
    if let Some(&first) = quota.first() {
        let over = buf.push("smt.overshoot", Some(measure), at_cycle(&marks, first), end);
        if n >= 2 && quota.len() + 1 >= n {
            buf.push("smt.drain", Some(over), at_cycle(&marks, quota[n - 2]), end);
        }
    }
    buf.close(cell);

    let stats = sim.stats();
    TracedCell {
        cycles: stats.cycles_since_reset(),
        complete,
        ipcs: (0..n).map(|t| stats.thread_ipc(t)).collect(),
        committed: stats.threads.iter().map(|t| t.committed).collect(),
        counters: base.counters_since(&sim),
        images,
        measure_ns: buf.dur_ns(measure),
    }
}

/// Cells run as traced cells on the workers, with each cell's host
/// time and the pass's wall time.
pub struct TracedPass {
    pub cells: Vec<TracedCell>,
    /// Host seconds of each cell.
    pub secs: Vec<f64>,
    pub wall_s: f64,
}

/// Runs cells `0..n` as traced cells on [`WORKERS`] workers. `cell(i)`
/// names cell `i`.
pub fn traced_pass<'a>(
    tracer: &Tracer,
    n: usize,
    cell: impl Fn(usize) -> (&'a Runner, &'a Mix, PolicyKind) + Sync,
) -> TracedPass {
    let order: Vec<usize> = (0..n).collect();
    let t0 = Instant::now();
    let (cells, secs) = par_map(WORKERS, &order, |_, &i| {
        let started = Instant::now();
        let (runner, mix, policy) = cell(i);
        let mut buf = tracer.buf(i as u64);
        let tc = traced_cell(runner, mix, policy, &mut buf);
        buf.finish();
        (tc, started.elapsed().as_secs_f64())
    })
    .into_iter()
    .unzip();
    TracedPass {
        cells,
        secs,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

impl TracedPass {
    /// Fills `bench.traced_cells_per_s` and `bench.worker_busy_frac`
    /// (traced cell time over workers × wall time).
    pub fn fill(&self, m: &mut Metrics) {
        m.insert(
            "bench.traced_cells_per_s",
            self.cells.len() as f64 / self.wall_s,
        );
        m.insert(
            "bench.worker_busy_frac",
            self.secs.iter().sum::<f64>() / (WORKERS as f64 * self.wall_s),
        );
    }
}

/// The host time at which the simulation reached `cycle`, interpolated
/// by simulated cycles within the slice that contains it.
fn at_cycle(marks: &[(u64, u64)], cycle: u64) -> u64 {
    for w in marks.windows(2) {
        let ((t0, c0), (t1, c1)) = (w[0], w[1]);
        if cycle <= c1 && c1 > c0 {
            let frac = cycle.saturating_sub(c0) as f64 / (c1 - c0) as f64;
            return t0 + (frac * (t1 - t0) as f64) as u64;
        }
    }
    marks[marks.len() - 1].0
}

/// Host time per operation of the three component probes, in ns.
pub struct Probes {
    pub step_ns: f64,
    pub access_ns: f64,
    pub predict_train_ns: f64,
}

/// Instructions stepped per image by the probes.
const PROBE_INSTS: usize = 20_000;
/// Probe repetitions; each metric is the median over them.
const PROBE_REPS: usize = 5;
/// Images the probes replay: the first distinct ones of the workload.
const PROBE_IMAGES: usize = 24;

/// Times `Cpu::step`, `Hierarchy::fetch_access`/`data_access` and
/// `Predictor::predict`/`train` on the instruction, address and branch
/// streams of a functional run over the first [`PROBE_IMAGES`] distinct
/// `(benchmark, seed)` images of `images`. Each repetition starts from
/// fresh CPUs, caches and predictor.
pub fn probe(images: impl IntoIterator<Item = (Benchmark, u64)>, cfg: &SmtConfig) -> Probes {
    let mut distinct: Vec<(Benchmark, u64)> = Vec::new();
    for p in images {
        if distinct.len() < PROBE_IMAGES && !distinct.contains(&p) {
            distinct.push(p);
        }
    }
    let built: Vec<ThreadImage> = distinct
        .iter()
        .map(|&(b, s)| ThreadImage::generate(b, s))
        .collect();
    let (mut step, mut access, mut predict) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let mut steps = (0u64, 0u64);
        let mut accesses = (0u64, 0u64);
        let mut branches = (0u64, 0u64);
        for img in &built {
            let mut cpu = img.build_cpu();
            let mut records: Vec<ExecRecord> = Vec::with_capacity(PROBE_INSTS);
            let t = Instant::now();
            for _ in 0..PROBE_INSTS {
                records.push(cpu.step());
            }
            steps.0 += t.elapsed().as_nanos() as u64;
            steps.1 += PROBE_INSTS as u64;

            let mut hier = Hierarchy::new(cfg.hierarchy);
            let mut count = 0u64;
            let mut line = u64::MAX;
            let t = Instant::now();
            for (now, r) in records.iter().enumerate() {
                let now = now as u64;
                let pc = r.pc.byte_addr();
                if pc & !63 != line {
                    line = pc & !63;
                    std::hint::black_box(hier.fetch_access(pc, now));
                    count += 1;
                }
                if let Some(addr) = r.eff_addr {
                    let kind = match r.inst.kind() {
                        InstructionKind::Store => AccessKind::Store,
                        _ => AccessKind::Load,
                    };
                    std::hint::black_box(hier.data_access(addr, kind, now));
                    count += 1;
                }
            }
            accesses.0 += t.elapsed().as_nanos() as u64;
            accesses.1 += count;

            let mut pred = PerceptronPredictor::new(cfg.bpred_table, cfg.bpred_history);
            let mut hist = GlobalHistory::new();
            let mut count = 0u64;
            let t = Instant::now();
            for r in records
                .iter()
                .filter(|r| r.inst.kind() == InstructionKind::Branch)
            {
                let pc = r.pc.byte_addr();
                let dir = pred.predict(pc, &hist);
                pred.train(pc, &hist, r.taken, dir);
                hist.push(r.taken);
                count += 1;
            }
            std::hint::black_box(hist.bits());
            branches.0 += t.elapsed().as_nanos() as u64;
            branches.1 += count;
        }
        let per = |(ns, n): (u64, u64)| ns as f64 / n.max(1) as f64;
        step.push(per(steps));
        access.push(per(accesses));
        predict.push(per(branches));
    }
    Probes {
        step_ns: median(&step),
        access_ns: median(&access),
        predict_train_ns: median(&predict),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{layer_times, Tracer};
    use rat_core::workload::{mixes_for_group, WorkloadGroup};
    use rat_core::RunConfig;

    #[test]
    fn traced_cell_reproduces_run_mix_and_splits_the_tail() {
        let run = RunConfig {
            insts_per_thread: 8_000,
            warmup_insts: 3_000,
            seed: 2,
            ..RunConfig::default()
        };
        let runner = Runner::new(SmtConfig::hpca2008_baseline(), run);
        let tracer = Tracer::new();
        for (group, policy) in [
            (WorkloadGroup::Ilp2, PolicyKind::Dcra),
            (WorkloadGroup::Mem4, PolicyKind::Rat),
        ] {
            let mix = &mixes_for_group(group)[0];
            let mut buf = tracer.buf(0);
            let traced = traced_cell(&runner, mix, policy, &mut buf);
            buf.finish();
            assert!(
                traced.matches(&runner.run_mix(mix, policy)),
                "{mix} {policy}"
            );
        }
        let t = layer_times(&tracer.spans());
        assert_eq!(t["bench.cell"].count, 2);
        assert_eq!(t["workload.generate"].count, 6);
        assert!(t["smt.overshoot"].total_ns <= t["smt.measure"].total_ns);
        assert!(t["smt.drain"].total_ns <= t["smt.overshoot"].total_ns);
    }

    #[test]
    fn at_cycle_interpolates_within_a_slice() {
        let marks = [(1_000, 0), (2_000, 100), (4_000, 200)];
        assert_eq!(at_cycle(&marks, 0), 1_000);
        assert_eq!(at_cycle(&marks, 50), 1_500);
        assert_eq!(at_cycle(&marks, 150), 3_000);
        assert_eq!(at_cycle(&marks, 999), 4_000, "past the end clamps");
    }
}
