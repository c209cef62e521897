//! The `serve-mixed` workload: one closed-loop client against an
//! in-process sweep server whose journal already holds the warm cells.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rat_bench::{run_cells_streaming, SweepCell, SweepSession};
use rat_core::smt::{PolicyKind, SmtConfig};
use rat_core::store::encode_result;
use rat_core::workload::{mixes_for_group, Benchmark, Mix, WorkloadGroup, WorkloadRng, ALL_GROUPS};
use rat_core::{CellKey, MixResult, ResultStore};
use rat_serve::{CellOutcome, CellSpec, Client, Server, ServerConfig, SweepRequest};

use crate::cells::{open_store, probe, runner, traced_pass};
use crate::layers;
use crate::report::{end_to_end, Metrics};
use crate::stats::{median, ratio, Outcome, Tally};
use crate::trace::Tracer;
use crate::{RunOutput, COLD_MIN, WARM_MIN, WORKERS};

/// Every request is the one `rat-client sweep --group G --seed S
/// --insts 4000 --warmup 1500` sends: the client's default cells (the
/// group's first two Table 2 mixes under ICOUNT and RaT) at half its
/// default 8000 / 3000 quota, so a run's 100 cold requests fit in
/// about 25 s on one sweep thread.
const INSTS: u64 = 4_000;
const WARMUP: u64 = 1_500;
const CLIENT_MIXES: usize = 2;
const CLIENT_POLICIES: [PolicyKind; 2] = [PolicyKind::Icount, PolicyKind::Rat];
/// First image seed of the cold requests; far above any workload seed,
/// so a cold request is never already journaled.
const COLD_SEED: u64 = 1 << 40;
/// Every `COLD_EVERY`-th request is cold; the rest are warm. This mix is
/// an assumption, not measured traffic: ten warm requests per cold one
/// gather the samples the warm p99 and the cold p90 need together.
const COLD_EVERY: usize = 11;
/// Requests between two `setup_s` samples, each timing [`BIND_REPS`]
/// `Server::bind`s on a copy of the pre-filled journal. `setup_s` is the
/// median over the run, so it samples the host at many points of the
/// loop.
const BIND_EVERY: usize = 100;
const BIND_REPS: usize = 20;
/// Latency limits the report counts misses against.
const WARM_LIMIT_S: f64 = 0.1;
const COLD_LIMIT_S: f64 = 2.0;
/// Consecutive failed requests after which the loop gives up instead
/// of running out its sample quota against a dead server.
const MAX_FAILING: usize = 10;

/// A served cell: the identity a request names.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Cell {
    mix: Mix,
    policy: PolicyKind,
    seed: u64,
}

impl std::hash::Hash for Cell {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.mix.group.hash(h);
        self.mix.benchmarks.hash(h);
        self.policy.name().hash(h);
        self.seed.hash(h);
    }
}

impl Cell {
    fn spec(&self) -> CellSpec {
        CellSpec {
            group: self.mix.group.name().to_string(),
            mix: self.mix.label(),
            policy: self.policy.name().to_string(),
            seed: self.seed,
        }
    }

    /// Each thread image as `(benchmark, seed)`.
    fn images(&self) -> impl Iterator<Item = (Benchmark, u64)> + '_ {
        let seed = self.seed;
        self.mix
            .benchmarks
            .iter()
            .enumerate()
            .map(move |(i, &b)| (b, seed + i as u64))
    }
}

/// One request: a group at an image seed.
#[derive(Clone, Copy, Debug)]
struct Request {
    group: WorkloadGroup,
    seed: u64,
}

impl Request {
    /// The cells in rat-client's order: policy-major over the mixes.
    fn cells(self) -> Vec<Cell> {
        let mut mixes = mixes_for_group(self.group);
        mixes.truncate(CLIENT_MIXES);
        CLIENT_POLICIES
            .iter()
            .flat_map(|&policy| {
                mixes.iter().map(move |mix| Cell {
                    mix: mix.clone(),
                    policy,
                    seed: self.seed,
                })
            })
            .collect()
    }
}

/// The groups cold requests go through. Cold cost clusters by group:
/// ILP2 cheapest; ILP4 and MIX2 alike; MIX4 and MEM2 alike, about twice
/// those; MEM4 about twice again. With all six in equal shares the cold
/// p50 falls exactly between the cheap and the dear half, on a gap, and
/// jumps across it with small changes of host speed. Leaving MEM4 out
/// puts the p50 inside the ILP4/MIX2 cluster and the p90 inside the
/// MIX4/MEM2 one. The sweeps cover MEM4.
const COLD_GROUPS: [WorkloadGroup; 5] = [
    WorkloadGroup::Ilp2,
    WorkloadGroup::Mix2,
    WorkloadGroup::Mem2,
    WorkloadGroup::Ilp4,
    WorkloadGroup::Mix4,
];

/// Cold request `k`. Each round asks for every cold group once, in an
/// order shuffled by the workload seed. Group `g` of round `r` gets the
/// fresh image seed `COLD_SEED + r * groups + g`: no cold request
/// repeats, however long the run, and every run computes the same cold
/// work. Cold cost varies a lot with the image seed, and the cold tail
/// percentile would otherwise measure the seed rather than the code.
fn cold_request(seed: u64, k: usize) -> Request {
    let n = COLD_GROUPS.len();
    let round = k / n;
    let mut order: Vec<usize> = (0..n).collect();
    WorkloadRng::seed_from_u64(seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .shuffle(&mut order);
    let g = order[k % n];
    Request {
        group: COLD_GROUPS[g],
        seed: COLD_SEED + (round * n + g) as u64,
    }
}

/// Everything a closed-loop run observed.
struct Loop {
    secs: f64,
    cells_ok: u64,
    warm: Tally,
    cold: Tally,
    /// Cold cells in request order, with their served result.
    cold_cells: Vec<(Cell, MixResult)>,
    /// Every cell requested, in request order, and whether its request
    /// was warm.
    requested: Vec<(Cell, bool)>,
    stats: std::collections::BTreeMap<String, u64>,
}

/// Journals every group's request at the workload seed (untimed) and
/// returns each cell's result words.
fn prefill(seed: u64, journal: &Path) -> HashMap<Cell, Vec<u64>> {
    let runner = runner(INSTS, WARMUP, seed);
    let served: Vec<Cell> = ALL_GROUPS
        .iter()
        .flat_map(|&group| Request { group, seed }.cells())
        .collect();
    let cells: Vec<SweepCell<'_>> = served
        .iter()
        .map(|c| SweepCell {
            runner: &runner,
            mix: c.mix.clone(),
            policy: c.policy,
        })
        .collect();
    let session = SweepSession {
        store: Some(Arc::new(ResultStore::open(journal))),
        ..SweepSession::none()
    };
    let report = run_cells_streaming(&cells, WORKERS, &session, &|_, _| {});
    served
        .into_iter()
        .zip(report.results)
        .filter_map(|(c, r)| Some((c, encode_result(&r?))))
        .collect()
}

/// Checks one reply cell against the result known for its key (the
/// cold result, or the prefilled one); a first-seen cold result becomes
/// the known one.
fn check(
    cell: &Cell,
    outcome: &CellOutcome,
    known: &mut HashMap<Cell, Vec<u64>>,
) -> Result<MixResult, Outcome> {
    match outcome {
        CellOutcome::Result(r) => {
            let words = encode_result(r);
            match known.get(cell) {
                Some(w) if *w != words => Err(Outcome::Mismatch),
                Some(_) => Ok((**r).clone()),
                None => {
                    known.insert(cell.clone(), words);
                    Ok((**r).clone())
                }
            }
        }
        CellOutcome::Timeout(_) => Err(Outcome::Timeout),
        CellOutcome::Err(_) => Err(Outcome::Error),
    }
}

/// The closed loop: one request at a time, the next sent only after the
/// reply, until `seconds` passed and both classes have enough samples
/// for their reported percentiles. Cold requests end on a whole round,
/// so every run's cold set is the same work. Warm requests repeat a
/// request the journal already holds: a pre-filled one or an earlier
/// cold one.
fn closed_loop(
    addr: &str,
    seed: u64,
    seconds: f64,
    known: &mut HashMap<Cell, Vec<u64>>,
    bind: &ServerConfig,
    binds: &mut Vec<f64>,
) -> std::io::Result<Loop> {
    let client = Client::new(addr, seed);
    client.ping()?;
    let mut rng = WorkloadRng::seed_from_u64(!seed);
    let mut pool: Vec<Request> = ALL_GROUPS
        .iter()
        .map(|&group| Request { group, seed })
        .collect();

    let mut lp = Loop {
        secs: 0.0,
        cells_ok: 0,
        warm: Tally::default(),
        cold: Tally::default(),
        cold_cells: Vec::new(),
        requested: Vec::new(),
        stats: Default::default(),
    };
    let t0 = Instant::now();
    let mut i = 0usize;
    let mut failing = 0;
    while t0.elapsed().as_secs_f64() < seconds
        || lp.warm.attempted < WARM_MIN as u64
        || lp.cold.attempted < COLD_MIN as u64
        || !lp.cold.attempted.is_multiple_of(COLD_GROUPS.len() as u64)
    {
        if i % BIND_EVERY == BIND_EVERY / 2 {
            let t = Instant::now();
            for _ in 0..BIND_REPS {
                drop(Server::bind(bind.clone())?);
            }
            binds.push(t.elapsed().as_secs_f64() / BIND_REPS as f64);
        }
        let is_cold = i % COLD_EVERY == COLD_EVERY - 1;
        let req = if is_cold {
            cold_request(seed, lp.cold.attempted as usize)
        } else {
            pool[rng.below(pool.len() as u64) as usize]
        };
        let cells = req.cells();
        let request = SweepRequest {
            id: i as u64,
            insts: INSTS,
            warmup: WARMUP,
            deadline_ms: None,
            cells: cells.iter().map(Cell::spec).collect(),
        };
        let started = Instant::now();
        let reply = client.sweep(&request);
        let rtt = started.elapsed().as_secs_f64();
        let outcome = match reply {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Outcome::Busy,
            Err(_) => Outcome::Error,
            Ok(reply) if reply.outcomes.len() != cells.len() => Outcome::Error,
            Ok(reply) => {
                let mut outcome = Outcome::Ok(rtt);
                for (c, o) in cells.iter().zip(&reply.outcomes) {
                    match check(c, o, known) {
                        Ok(r) => {
                            lp.cells_ok += 1;
                            if is_cold {
                                lp.cold_cells.push((c.clone(), r));
                            }
                        }
                        Err(bad) => outcome = bad,
                    }
                }
                outcome
            }
        };
        failing = if matches!(outcome, Outcome::Ok(_)) {
            if is_cold {
                pool.push(req);
            }
            0
        } else {
            failing + 1
        };
        if failing == MAX_FAILING {
            return Err(std::io::Error::other(format!(
                "{MAX_FAILING} requests in a row failed"
            )));
        }
        lp.requested
            .extend(cells.into_iter().map(|c| (c, !is_cold)));
        let (tally, limit) = if is_cold {
            (&mut lp.cold, COLD_LIMIT_S)
        } else {
            (&mut lp.warm, WARM_LIMIT_S)
        };
        tally.record(outcome, limit);
        i += 1;
    }
    lp.secs = t0.elapsed().as_secs_f64();
    lp.stats = client.stats()?;
    Ok(lp)
}

/// Requests a graceful drain of the server when dropped.
struct Shutdown<'a>(&'a Server);

impl Drop for Shutdown<'_> {
    fn drop(&mut self) {
        self.0.request_shutdown();
    }
}

/// One run of the workload; the traced run adds the per-layer pass.
pub fn run(seed: u64, seconds: f64, dir: &Path, traced: bool) -> (RunOutput, Option<Tracer>) {
    let journal = dir.join("serve.journal");
    let mut known = prefill(seed, &journal);
    let prefilled = known.len();
    let mut out = RunOutput::default();

    let cfg = ServerConfig {
        journal: Some(journal.clone()),
        threads: 1,
        ..ServerConfig::default()
    };
    let copy = dir.join("bind.journal");
    let bind_cfg = ServerConfig {
        journal: Some(copy.clone()),
        ..cfg.clone()
    };
    let mut binds = Vec::new();
    let copied = std::fs::copy(&journal, &copy);
    let t = Instant::now();
    let bound = copied.and_then(|_| Server::bind(cfg));
    binds.push(t.elapsed().as_secs_f64());
    let server = match bound {
        Ok(s) => s,
        Err(e) => {
            out.lines
                .push(format!("serve: cannot start the server: {e}"));
            out.tally.record(Outcome::Error, f64::INFINITY);
            out.metrics = end_to_end(0.0, 0.0, &Tally::default(), &Tally::default(), &out.tally);
            return (out, None);
        }
    };
    let addr = server.local_addr().to_string();
    let looped = std::thread::scope(|s| {
        let handle = s.spawn(|| server.run());
        // Shuts the server down however the loop ends, a panic included,
        // so the scope's join cannot wait forever.
        let shutdown = Shutdown(&server);
        let looped = closed_loop(&addr, seed, seconds, &mut known, &bind_cfg, &mut binds);
        drop(shutdown);
        let served = handle.join().expect("server thread");
        looped.and_then(|l| served.map(|()| l))
    });
    let mut lp = match looped {
        Ok(lp) => lp,
        Err(e) => {
            out.lines.push(format!("serve: closed loop failed: {e}"));
            out.tally.record(Outcome::Error, f64::INFINITY);
            out.metrics = end_to_end(
                median(&binds),
                0.0,
                &Tally::default(),
                &Tally::default(),
                &out.tally,
            );
            return (out, None);
        }
    };
    let busy = lp.stats.get("busy").copied().unwrap_or(0);
    for _ in 0..busy {
        lp.warm.record(Outcome::Busy, WARM_LIMIT_S);
    }

    // One cold cell per policy, recomputed here with the Runner.
    let mut recomputed = Tally::default();
    for p in CLIENT_POLICIES {
        if let Some((c, served)) = lp.cold_cells.iter().find(|(c, _)| c.policy == p) {
            let local = runner(INSTS, WARMUP, c.seed).run_mix(&c.mix, p);
            let same = encode_result(&local) == encode_result(served);
            recomputed.record(
                if same {
                    Outcome::Ok(0.0)
                } else {
                    Outcome::Mismatch
                },
                f64::INFINITY,
            );
        }
    }

    let (hits, computed) = (
        lp.stats.get("hits").copied().unwrap_or(0),
        lp.stats.get("computed").copied().unwrap_or(0),
    );
    let hit_frac = ratio(hits as f64, (hits + computed) as f64);
    out.lines.push(format!(
        "serve: requests={} cells_ok={} prefilled={prefilled} hits={hits} computed={computed} busy={busy} \
         recomputed_locally={}",
        lp.warm.attempted + lp.cold.attempted - busy,
        lp.cells_ok,
        recomputed.attempted
    ));
    out.lines.push(lp.warm.summary("warm requests"));
    out.lines.push(lp.cold.summary("cold requests"));
    let cold_results: Vec<&MixResult> = lp.cold_cells.iter().map(|c| &c.1).collect();
    let repeat = layers::repeat_frac(lp.cold_cells.iter().flat_map(|(c, _)| c.images()));
    out.tally.absorb(&lp.warm);
    out.tally.absorb(&lp.cold);
    out.tally.absorb(&recomputed);

    let tracer = traced.then(|| {
        let tracer = Tracer::new();
        let m = per_layer(&tracer, &lp, &journal, dir, hit_frac, busy, &mut out);
        out.lines.push(layers::property_line(
            repeat,
            hit_frac,
            layers::tail_cycle_shares(&cold_results),
            Some(&m),
        ));
        out.metrics = m;
        tracer
    });
    if tracer.is_none() {
        out.lines.push(layers::property_line(
            repeat,
            hit_frac,
            layers::tail_cycle_shares(&cold_results),
            None,
        ));
        out.metrics = end_to_end(
            median(&binds),
            lp.cells_ok as f64 / lp.secs,
            &lp.warm,
            &lp.cold,
            &out.tally,
        );
    }
    (out, tracer)
}

/// The traced part: the run's journal reopened and its gets and puts
/// replayed in spans, and every cold cell recomputed as a traced cell
/// and checked against what the server returned.
fn per_layer(
    tracer: &Tracer,
    lp: &Loop,
    journal: &Path,
    dir: &Path,
    hit_frac: f64,
    busy: u64,
    out: &mut RunOutput,
) -> Metrics {
    let mut m = layers::zeroed();
    let store = open_store(tracer, journal);
    let fingerprint = runner(INSTS, WARMUP, 0).config_fingerprint();
    let key = |c: &Cell| CellKey::new(fingerprint, &c.mix, c.policy, c.seed);
    let (mut hits, mut warm_get_ns, mut warm_gets) = (0, 0u64, 0u64);
    for (i, (c, warm)) in lp.requested.iter().enumerate() {
        let k = key(c);
        let mut buf = tracer.buf(i as u64);
        let span = buf.open("core.store_get", None);
        hits += u64::from(store.get(&k).is_some());
        buf.close(span);
        if *warm {
            warm_get_ns += buf.dur_ns(span);
            warm_gets += 1;
        }
        buf.finish();
    }
    let puts = ResultStore::open(dir.join("puts.journal"));
    for (i, (c, r)) in lp.cold_cells.iter().enumerate() {
        let k = key(c);
        let mut buf = tracer.buf(i as u64);
        buf.time("core.store_put", None, || puts.put(&k, r));
        buf.finish();
    }

    let runners: Vec<_> = lp
        .cold_cells
        .iter()
        .map(|(c, _)| runner(INSTS, WARMUP, c.seed))
        .collect();
    let cold = &lp.cold_cells;
    let traced = traced_pass(tracer, cold.len(), |i| {
        (&runners[i], &cold[i].0.mix, cold[i].0.policy)
    });
    traced.fill(&mut m);
    for ((tc, secs), (_, served)) in traced.cells.iter().zip(&traced.secs).zip(cold) {
        out.tally.record(
            if tc.matches(served) {
                Outcome::Ok(*secs)
            } else {
                Outcome::Mismatch
            },
            f64::INFINITY,
        );
    }

    let spans = tracer.spans();
    layers::fill_cells(&mut m, &spans, &traced.cells);
    layers::fill_store_spans(&mut m, &spans, hits);
    let s = store.stats();
    let p = puts.stats();
    let stat = |k: &str| lp.stats.get(k).copied().unwrap_or(0) as f64;
    m.extend([
        ("core.store_loaded", s.loaded as f64),
        (
            "core.journal_bytes",
            std::fs::metadata(journal).map_or(0.0, |md| md.len() as f64),
        ),
        (
            "core.store_retries",
            (p.retries as f64).max(stat("store_retries")),
        ),
        (
            "core.store_append_failures",
            (p.append_failures as f64).max(stat("store_failures")),
        ),
        ("serve.hits", stat("hits")),
        ("serve.computed", stat("computed")),
        ("serve.hit_frac", hit_frac),
        ("serve.busy", busy as f64),
        (
            "serve.warm_us_per_cell",
            ratio(warm_get_ns as f64 / 1e3, warm_gets as f64),
        ),
    ]);
    layers::fill_probes(
        &mut m,
        &probe(
            cold.iter().flat_map(|(c, _)| c.images()),
            &SmtConfig::hpca2008_baseline(),
        ),
    );
    out.lines.extend(layers::layer_table(&spans));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn a_request_is_rat_clients_default_cells() {
        let cells = Request {
            group: WorkloadGroup::Mem2,
            seed: 7,
        }
        .cells();
        let mixes = mixes_for_group(WorkloadGroup::Mem2);
        // rat-client's default `--policies icount,rat`, resolved as it does.
        let expect: Vec<(String, PolicyKind)> = ["icount", "rat"]
            .iter()
            .filter_map(|p| PolicyKind::from_name(p))
            .flat_map(|p| mixes[..2].iter().map(move |m| (m.label(), p)))
            .collect();
        let got: Vec<(String, PolicyKind)> =
            cells.iter().map(|c| (c.mix.label(), c.policy)).collect();
        assert_eq!(got, expect);
        assert!(cells.iter().all(|c| c.seed == 7));
    }

    #[test]
    fn cold_requests_never_repeat_and_cover_every_cold_group_per_round() {
        let n = COLD_GROUPS.len();
        let reqs: Vec<Request> = (0..10 * n).map(|k| cold_request(3, k)).collect();
        let seeds: HashSet<u64> = reqs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), reqs.len());
        for round in reqs.chunks(n) {
            let groups: HashSet<&str> = round.iter().map(|r| r.group.name()).collect();
            assert_eq!(groups.len(), n);
        }
        // The (group, seed) work is fixed; only the order follows the seed.
        let key = |s| {
            let mut v: Vec<(&str, u64)> = (0..n)
                .map(|k| cold_request(s, k))
                .map(|r| (r.group.name(), r.seed))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(3), key(4));
    }
}
