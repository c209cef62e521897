//! Per-layer metrics from spans, traced cells and probes, and the
//! workload-property report.

use std::collections::HashSet;

use rat_core::workload::Benchmark;
use rat_core::MixResult;

use crate::cells::{Probes, SimCounters, TracedCell};
use crate::report::{Metrics, PER_LAYER};
use crate::stats::{median, ratio};
use crate::trace::{layer_times, Span};

/// Every per-layer metric at 0, for a workload to fill in.
pub fn zeroed() -> Metrics {
    PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect()
}

/// Share of `(benchmark, seed)` images that were generated before in
/// the same sequence.
pub fn repeat_frac(pairs: impl IntoIterator<Item = (Benchmark, u64)>) -> f64 {
    let mut seen = HashSet::new();
    let (mut n, mut repeats) = (0u64, 0u64);
    for p in pairs {
        n += 1;
        repeats += u64::from(!seen.insert(p));
    }
    ratio(repeats as f64, n as f64)
}

/// Sum of the durations of spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Median duration of spans named `name`, in seconds (0 if none).
pub fn median_s(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).count() as f64
}

/// Fills the `workload`, `isa`, `smt`, `mem` and `bpred` metrics from
/// the traced cells and their spans.
pub fn fill_cells(m: &mut Metrics, spans: &[Span], cells: &[TracedCell]) {
    let mut c = SimCounters::default();
    for cell in cells {
        c.add(&cell.counters);
    }
    let images = cells.iter().flat_map(|cell| cell.images.iter());
    let measure_ns: u64 = cells.iter().map(|cell| cell.measure_ns).sum();
    let f = |v: u64| v as f64;
    let entries = [
        ("workload.gen_s", total_s(spans, "workload.generate")),
        ("workload.gen_count", count(spans, "workload.generate")),
        ("workload.gen_words", images.clone().map(|i| f(i.2)).sum()),
        (
            "workload.gen_repeat_frac",
            repeat_frac(images.map(|i| (i.0, i.1))),
        ),
        ("isa.build_cpu_s", total_s(spans, "isa.build_cpu")),
        ("smt.new_s", total_s(spans, "smt.new")),
        ("smt.warmup_s", total_s(spans, "smt.warmup")),
        ("smt.measure_s", total_s(spans, "smt.measure")),
        ("smt.overshoot_s", total_s(spans, "smt.overshoot")),
        ("smt.drain_s", total_s(spans, "smt.drain")),
        ("smt.cycles", f(c.cycles)),
        ("smt.skipped_frac", ratio(f(c.skipped), f(c.cycles))),
        ("smt.committed", f(c.committed)),
        ("smt.fetched", f(c.fetched)),
        ("smt.useful_fetch_frac", ratio(f(c.committed), f(c.fetched))),
        ("smt.fetch_replays", f(c.fetch_replays)),
        ("smt.squashed", f(c.squashed)),
        ("smt.drain_commits", f(c.drain_commits)),
        ("smt.runahead_episodes", f(c.runahead_episodes)),
        (
            "smt.runahead_cycle_frac",
            ratio(f(c.runahead_cycles), f(c.thread_cycles)),
        ),
        (
            "smt.ns_per_stepped_cycle",
            ratio(f(measure_ns), f(c.cycles - c.skipped)),
        ),
        (
            "smt.ns_per_fetched_inst",
            ratio(f(measure_ns), f(c.fetched)),
        ),
        ("mem.l1d_miss_frac", ratio(f(c.l1d_missed), f(c.l1d_done))),
        ("mem.l2_miss_frac", ratio(f(c.l2_missed), f(c.l2_done))),
        ("mem.mshr_rejected", f(c.mshr_rejected)),
        ("mem.port_wait_cycles", f(c.port_wait_cycles)),
        ("mem.bus_wait_cycles", f(c.bus_wait_cycles)),
        (
            "bpred.accuracy",
            1.0 - ratio(f(c.mispredictions), f(c.predictions)),
        ),
        ("bpred.predictions", f(c.predictions)),
    ];
    m.extend(entries);
}

/// Fills the component-probe metrics.
pub fn fill_probes(m: &mut Metrics, p: &Probes) {
    m.extend([
        ("isa.step_ns", p.step_ns),
        ("mem.access_ns", p.access_ns),
        ("bpred.predict_train_ns", p.predict_train_ns),
    ]);
}

/// Fills the `core.store_*` metrics from the spans of the benchmark's
/// own `ResultStore` calls.
pub fn fill_store_spans(m: &mut Metrics, spans: &[Span], hits: u64) {
    let gets = count(spans, "core.store_get");
    m.extend([
        ("core.store_open_s", median_s(spans, "core.store_open")),
        ("core.store_put_s", total_s(spans, "core.store_put")),
        ("core.store_put_count", count(spans, "core.store_put")),
        ("core.store_get_s", total_s(spans, "core.store_get")),
        ("core.store_get_count", gets),
        ("core.store_hit_frac", ratio(hits as f64, gets)),
    ]);
}

/// Share of measurement cycles after the first thread reached its
/// quota (overshoot) and after all but one had (drain), over complete
/// results. A run ends the cycle its last thread reaches the quota.
pub fn tail_cycle_shares(results: &[&MixResult]) -> (f64, f64) {
    let (mut cycles, mut over, mut drain) = (0u64, 0u64, 0u64);
    for r in results.iter().filter(|r| r.complete) {
        let mut q: Vec<u64> = r
            .thread_stats_at_quota
            .iter()
            .flatten()
            .filter_map(|t| t.quota_cycle)
            .collect();
        if q.len() < 2 {
            continue;
        }
        q.sort_unstable();
        let last = q[q.len() - 1];
        cycles += r.cycles;
        over += last - q[0];
        drain += last - q[q.len() - 2];
    }
    (
        ratio(over as f64, cycles as f64),
        ratio(drain as f64, cycles as f64),
    )
}

/// The per-layer self-time table of a traced run, one line per span
/// name.
pub fn layer_table(spans: &[Span]) -> Vec<String> {
    layer_times(spans)
        .into_iter()
        .map(|(name, t)| {
            format!(
                "layer {name:<28} count={:<7} total_s={:<12.6} self_s={:.6}",
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            )
        })
        .collect()
}

/// The workload-property line printed with every run. Time shares are
/// only known in a traced run and print as `n/a` otherwise.
pub fn property_line(
    gen_repeat_frac: f64,
    serve_hit_frac: f64,
    cycle_shares: (f64, f64),
    traced: Option<&Metrics>,
) -> String {
    let mut line = format!(
        "properties: workload.gen_repeat_frac={gen_repeat_frac:.4} serve.hit_frac={serve_hit_frac:.4} \
         overshoot_cycle_share={:.4} drain_cycle_share={:.4}",
        cycle_shares.0, cycle_shares.1
    );
    match traced {
        Some(m) => {
            let smt = m["smt.warmup_s"] + m["smt.measure_s"];
            line.push_str(&format!(
                " smt.overshoot_time_share={:.4} smt.drain_time_share={:.4} smt.skipped_frac={:.4}",
                ratio(m["smt.overshoot_s"], smt),
                ratio(m["smt.drain_s"], smt),
                m["smt.skipped_frac"]
            ));
        }
        None => line.push_str(
            " smt.overshoot_time_share=n/a smt.drain_time_share=n/a smt.skipped_frac=n/a",
        ),
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_frac_counts_second_sightings() {
        use Benchmark::{Art, Gzip};
        assert_eq!(repeat_frac([(Art, 1), (Gzip, 1), (Art, 1), (Art, 2)]), 0.25);
        assert_eq!(repeat_frac([]), 0.0);
    }
}
