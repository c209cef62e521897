//! The sweep workload: `paper-sweep`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rat_bench::{run_cells_streaming, SweepCell, SweepReport, SweepSession};
use rat_core::smt::PolicyKind;
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, Benchmark, ALL_GROUPS};
use rat_core::{CellKey, MixResult, ResultStore, RunConfig, Runner};

use crate::cells::{open_store, probe, traced_pass};
use crate::layers;
use crate::report::end_to_end;
use crate::stats::{median, service_times, Outcome, Tally};
use crate::trace::Tracer;
use crate::{RunOutput, COLD_MIN, SETUP_REPS, WARM_MIN, WORKERS};

/// One sweep workload: a group × policy × mix matrix at one quota.
pub struct SweepSpec {
    policies: &'static [PolicyKind],
    /// Table 2 mixes per group (`0` = all ten).
    mixes_per_group: usize,
    insts: u64,
    warmup: u64,
}

/// One Table 2 mix per group under the six policies at the default
/// quota: long simulations, no journal.
pub const PAPER_SWEEP: SweepSpec = SweepSpec {
    policies: &[
        PolicyKind::Icount,
        PolicyKind::Stall,
        PolicyKind::Flush,
        PolicyKind::Dcra,
        PolicyKind::Hill,
        PolicyKind::Rat,
    ],
    mixes_per_group: 1,
    insts: 30_000,
    warmup: 20_000,
};

impl SweepSpec {
    /// The cells in the sweep engine's group → policy → mix order.
    fn cells<'a>(&self, runner: &'a Runner) -> Vec<SweepCell<'a>> {
        let mut cells = Vec::new();
        for &g in ALL_GROUPS {
            let mut mixes = mixes_for_group(g);
            if self.mixes_per_group > 0 {
                mixes.truncate(self.mixes_per_group);
            }
            for &policy in self.policies {
                for mix in &mixes {
                    cells.push(SweepCell {
                        runner,
                        mix: mix.clone(),
                        policy,
                    });
                }
            }
        }
        cells
    }
}

fn benchmarks(cells: &[SweepCell<'_>]) -> Vec<Benchmark> {
    cells
        .iter()
        .flat_map(|c| c.mix.benchmarks.iter().copied())
        .collect()
}

fn key(cell: &SweepCell<'_>) -> CellKey {
    CellKey::new(
        cell.runner.config_fingerprint(),
        &cell.mix,
        cell.policy,
        cell.runner.run_config().seed,
    )
}

/// Each thread image of the cells, in order, as `(benchmark, seed)`.
fn image_pairs<'a>(cells: &'a [SweepCell<'_>]) -> impl Iterator<Item = (Benchmark, u64)> + 'a {
    cells.iter().flat_map(|c| {
        let seed = c.runner.run_config().seed;
        c.mix
            .benchmarks
            .iter()
            .enumerate()
            .map(move |(i, &b)| (b, seed + i as u64))
    })
}

/// Sets up [`SETUP_REPS`] times — `Runner::new` and prewarming the ST
/// references on the workers — and keeps the last runner. Each
/// repetition is a `bench.setup` span.
///
/// The images come from the Runner's default seed, as the fig binaries
/// use without `--seed`, not from the workload seed. Cell cost varies a
/// lot with the image seed: the median cell took 110 ms at seed 1 and
/// 80 ms at seed 2. With the workload seed, the cold p50 spread 24%
/// over ten runs whose `cells_per_s` spread 7%, so it measured the
/// seed rather than the code.
fn setup(spec: &SweepSpec, tracer: &Tracer, round: usize) -> Runner {
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let mut buf = tracer.buf((round * SETUP_REPS + rep) as u64);
        let root = buf.open("bench.setup", None);
        let runner = crate::cells::runner(spec.insts, spec.warmup, RunConfig::default().seed);
        let benches = benchmarks(&spec.cells(&runner));
        buf.time("core.prewarm_st_references", Some(root), || {
            runner.prewarm_st_references(benches, WORKERS)
        });
        buf.close(root);
        buf.finish();
        last = Some(runner);
    }
    last.expect("at least one setup")
}

/// One pass of `run_cells_streaming` over the cells, with the time of
/// every delivery since the pass started.
struct Pass {
    secs: f64,
    /// Delivery time of each cell in seconds (`NaN` if never delivered).
    delivered: Vec<f64>,
    report: SweepReport,
}

fn pass(cells: &[SweepCell<'_>], store: Option<Arc<ResultStore>>) -> Pass {
    let session = SweepSession {
        store,
        ..SweepSession::none()
    };
    let delivered = Mutex::new(vec![f64::NAN; cells.len()]);
    let t0 = Instant::now();
    let report = run_cells_streaming(cells, WORKERS, &session, &|i, _| {
        delivered.lock().expect("delivery lock")[i] = t0.elapsed().as_secs_f64();
    });
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        delivered: delivered.into_inner().expect("delivery lock"),
        report,
    }
}

impl Pass {
    /// Counts each cell: delivered with the reference words, a
    /// mismatch, or lost. The first pass sets the reference.
    fn tally(&self, reference: &mut Vec<Vec<u64>>, tally: &mut Tally) {
        let words: Vec<Option<Vec<u64>>> = self
            .report
            .results
            .iter()
            .map(|r| r.as_ref().map(encode_result))
            .collect();
        if reference.is_empty() {
            *reference = words
                .iter()
                .map(|w| w.clone().unwrap_or_default())
                .collect();
        }
        for (i, w) in words.iter().enumerate() {
            let outcome = match w {
                None => Outcome::Error,
                Some(w) if *w != reference[i] || w.is_empty() => Outcome::Mismatch,
                Some(_) => Outcome::Ok(self.delivered[i]),
            };
            tally.record(outcome, f64::INFINITY);
        }
    }

    /// Time from when fewer cells were pending than workers until the
    /// last delivery.
    fn tail_s(&self) -> f64 {
        let mut t: Vec<f64> = self
            .delivered
            .iter()
            .copied()
            .filter(|t| !t.is_nan())
            .collect();
        t.sort_by(f64::total_cmp);
        if t.len() < WORKERS {
            return 0.0;
        }
        t[t.len() - 1] - t[t.len() - WORKERS]
    }
}

/// Prints Eq. 1 throughput and Eq. 2 fairness per group and policy, and
/// an FNV-1a digest over their bits.
fn digest(runner: &Runner, cells: &[SweepCell<'_>], results: &[&MixResult]) -> Vec<String> {
    let mut lines = Vec::new();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut i = 0;
    while i < cells.len() {
        let (group, policy) = (cells[i].mix.group, cells[i].policy);
        let mut bucket = Vec::new();
        while i < cells.len() && cells[i].mix.group == group && cells[i].policy == policy {
            bucket.push(results[i].clone());
            i += 1;
        }
        let s = runner.summarize(&bucket);
        for b in s
            .throughput
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(s.fairness.to_bits().to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        lines.push(format!(
            "digest: {group} {:<6} throughput={:.6} fairness={:.6}",
            policy.name(),
            s.throughput,
            s.fairness
        ));
    }
    lines.push(format!("digest: eq1_eq2_fnv={h:016x}"));
    lines
}

/// Fills a journal with `results` under the cells' keys, each put in a
/// `core.store_put` span (untimed by the end-to-end metrics).
fn put_all(cells: &[SweepCell<'_>], results: &[&MixResult], store: &ResultStore, tracer: &Tracer) {
    for (i, (c, r)) in cells.iter().zip(results).enumerate() {
        let mut buf = tracer.buf(i as u64);
        buf.time("core.store_put", None, || store.put(&key(c), r));
        buf.finish();
    }
}

/// How often the warm sampler resumes the sweep, and how many resumes
/// share one opening of the journal.
const WARM_EVERY: Duration = Duration::from_millis(50);
const REOPEN_EVERY: usize = 20;

/// The warm sampler: until `stop` is set and it has at least `min`
/// samples, resumes the sweep from `journal` (which holds every cell)
/// once every [`WARM_EVERY`], as `--resume` does, reopening the journal
/// every [`REOPEN_EVERY`] resumes. It runs beside a cold pass, asleep
/// but for about 1% of one core, so the warm samples see the host over
/// the whole run rather than at a few moments; host speed here drifts
/// within seconds. A resumed pass delivers its cells one after another
/// on one thread, so a cell's warm RTT runs from the previous delivery.
/// Journal opens are not timed.
fn sample_warm(
    cells: &[SweepCell<'_>],
    journal: &Path,
    reference: &[Vec<u64>],
    stop: &AtomicBool,
    min: u64,
) -> Tally {
    let mut reference = reference.to_vec();
    let mut tally = Tally::default();
    let mut store = None;
    for i in 0.. {
        if stop.load(Ordering::Relaxed) && tally.attempted >= min {
            break;
        }
        if i % REOPEN_EVERY == 0 {
            store = Some(Arc::new(ResultStore::open(journal)));
        }
        let mut w = pass(cells, store.clone());
        if w.report.replayed != cells.len() {
            tally.record(Outcome::Error, f64::INFINITY);
        }
        w.delivered = service_times(&w.delivered, 1);
        w.tally(&mut reference, &mut tally);
        if !stop.load(Ordering::Relaxed) {
            std::thread::sleep(WARM_EVERY);
        }
    }
    tally
}

/// The untraced run, in rounds: set up, then run one cold pass. From
/// the second round on, [`sample_warm`] resumes the sweep beside the
/// cold pass from a journal holding every cell, filled untimed after
/// the first pass. A cell's RTT, cold or warm, runs from when a worker
/// takes it up to its delivery: the workers take cells in index order,
/// each as soon as it is free, so the start follows from the deliveries
/// (`service_times`). Rounds start while the next is expected to end
/// within `seconds`; there are at least two, with at least [`COLD_MIN`]
/// cold cells.
pub fn run(spec: &SweepSpec, seconds: f64, dir: &Path) -> RunOutput {
    let tracer = Tracer::new();
    let started = Instant::now();
    let mut out = RunOutput::default();
    let (mut reference, mut cold, mut warm) = (Vec::new(), Tally::default(), Tally::default());
    let mut rates = Vec::new();
    let mut journal: Option<PathBuf> = None;
    let mut k = 0;
    loop {
        let runner = setup(spec, &tracer, k);
        let cells = spec.cells(&runner);
        let n = cells.len();
        let stop = AtomicBool::new(false);
        let mut p = std::thread::scope(|s| {
            let sampler = journal
                .as_deref()
                .map(|j| s.spawn(|| sample_warm(&cells, j, &reference, &stop, 0)));
            let p = pass(&cells, None);
            stop.store(true, Ordering::Relaxed);
            if let Some(h) = sampler {
                warm.absorb(&h.join().expect("warm sampler"));
            }
            p
        });
        rates.push(n as f64 / p.secs);
        p.delivered = service_times(&p.delivered, WORKERS);
        p.tally(&mut reference, &mut cold);
        let results: Vec<&MixResult> = p.report.results.iter().flatten().collect();
        journal.get_or_insert_with(|| {
            let path = dir.join("warm.journal");
            put_all(&cells, &results, &ResultStore::open(&path), &Tracer::new());
            path
        });

        k += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / k as f64;
        if k >= 2 && cold.attempted >= COLD_MIN as u64 && next_ends > seconds {
            // Only if the cold passes were too short for enough samples.
            let short = (WARM_MIN as u64).saturating_sub(warm.attempted);
            if let (Some(j), true) = (journal.as_deref(), short > 0) {
                let stop = AtomicBool::new(true);
                warm.absorb(&sample_warm(&cells, j, &reference, &stop, short));
            }
            if results.len() == n {
                out.lines.extend(digest(&runner, &cells, &results));
            }
            out.lines.push(layers::property_line(
                layers::repeat_frac(image_pairs(&cells)),
                0.0,
                layers::tail_cycle_shares(&results),
                None,
            ));
            break;
        }
    }
    out.lines.push(cold.summary("cold cells"));
    out.lines.push(warm.summary("warm cells"));
    let setup_s: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "bench.setup")
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    out.tally.absorb(&cold);
    out.tally.absorb(&warm);
    out.metrics = end_to_end(median(&setup_s), median(&rates), &warm, &cold, &out.tally);
    out
}

/// The traced run: setup, one production pass (timestamps give the
/// tail), one pass of traced cells on the same workers (each checked
/// against its production result), journal puts and gets in spans, and
/// the component probes.
pub fn run_traced(spec: &SweepSpec, dir: &Path) -> (RunOutput, Tracer) {
    let tracer = Tracer::new();
    let runner = setup(spec, &tracer, 0);
    let cells = spec.cells(&runner);
    let n = cells.len();
    let mut out = RunOutput::default();
    let mut m = layers::zeroed();

    let prod = pass(&cells, None);
    let mut reference = Vec::new();
    prod.tally(&mut reference, &mut out.tally);
    let results: Vec<Option<&MixResult>> = prod.report.results.iter().map(Option::as_ref).collect();
    m.insert("bench.tail_s", prod.tail_s());
    m.insert("bench.untraced_cells_per_s", n as f64 / prod.secs);

    let journal = dir.join("traced.journal");
    let traced_store = open_store(&tracer, &journal);
    let traced = traced_pass(&tracer, n, |i| {
        (cells[i].runner, &cells[i].mix, cells[i].policy)
    });
    traced.fill(&mut m);
    for (i, (tc, secs)) in traced.cells.iter().zip(&traced.secs).enumerate() {
        let ok = results[i].is_some_and(|r| tc.matches(r));
        if !ok {
            out.lines.push(format!(
                "mismatch: traced {} {} cycles={} ipcs={:?} committed={:?}; production {:?}",
                cells[i].mix,
                cells[i].policy.name(),
                tc.cycles,
                tc.ipcs,
                tc.committed,
                results[i].map(|r| (
                    r.cycles,
                    &r.ipcs,
                    r.thread_stats
                        .iter()
                        .map(|t| t.committed)
                        .collect::<Vec<_>>()
                ))
            ));
        }
        out.tally.record(
            if ok {
                Outcome::Ok(*secs)
            } else {
                Outcome::Mismatch
            },
            f64::INFINITY,
        );
    }
    let complete: Vec<&MixResult> = results.iter().flatten().copied().collect();
    if complete.len() == n {
        put_all(&cells, &complete, &traced_store, &tracer);
    }
    let mut hits = 0;
    for (i, c) in cells.iter().enumerate() {
        let mut buf = tracer.buf(i as u64);
        hits += u64::from(
            buf.time("core.store_get", None, || traced_store.get(&key(c)))
                .is_some(),
        );
        buf.finish();
    }

    let spans = tracer.spans();
    layers::fill_cells(&mut m, &spans, &traced.cells);
    layers::fill_store_spans(&mut m, &spans, hits);
    let s = traced_store.stats();
    m.extend([
        (
            "core.st_ref_s",
            layers::median_s(&spans, "core.prewarm_st_references"),
        ),
        ("core.st_ref_count", {
            let mut b = benchmarks(&cells);
            b.sort_unstable();
            b.dedup();
            b.len() as f64
        }),
        ("core.store_loaded", s.loaded as f64),
        (
            "core.journal_bytes",
            std::fs::metadata(&journal).map_or(0.0, |md| md.len() as f64),
        ),
        ("core.store_retries", s.retries as f64),
        ("core.store_append_failures", s.append_failures as f64),
    ]);
    layers::fill_probes(&mut m, &probe(image_pairs(&cells), runner.smt_config()));

    if complete.len() == n {
        out.lines.extend(digest(&runner, &cells, &complete));
    }
    out.lines.extend(layers::layer_table(&spans));
    out.lines.push(layers::property_line(
        layers::repeat_frac(image_pairs(&cells)),
        0.0,
        layers::tail_cycle_shares(&complete),
        Some(&m),
    ));
    out.lines.push(format!(
        "tracing: untraced {:.3} cells/s, traced {:.3} cells/s",
        m["bench.untraced_cells_per_s"], m["bench.traced_cells_per_s"]
    ));
    out.metrics = m;
    (out, tracer)
}
