//! Metric names and units, the result line, and the host record.

use std::collections::BTreeMap;
use std::path::Path;

use crate::stats::Tally;

/// End-to-end metrics (host time), printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("warm_rtt_p50_ms", "ms"),
    ("warm_rtt_p99_ms", "ms"),
    ("cold_rtt_p50_ms", "ms"),
    ("cold_rtt_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not exercise a layer reports 0 for it (see the README's map).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.tail_s", "s"),
    ("bench.worker_busy_frac", "frac"),
    ("bench.untraced_cells_per_s", "1/s"),
    ("bench.traced_cells_per_s", "1/s"),
    ("core.st_ref_s", "s"),
    ("core.st_ref_count", "count"),
    ("core.store_open_s", "s"),
    ("core.store_loaded", "count"),
    ("core.journal_bytes", "bytes"),
    ("core.store_put_s", "s"),
    ("core.store_put_count", "count"),
    ("core.store_retries", "count"),
    ("core.store_append_failures", "count"),
    ("core.store_get_s", "s"),
    ("core.store_get_count", "count"),
    ("core.store_hit_frac", "frac"),
    ("workload.gen_s", "s"),
    ("workload.gen_count", "count"),
    ("workload.gen_words", "count"),
    ("workload.gen_repeat_frac", "frac"),
    ("isa.build_cpu_s", "s"),
    ("smt.new_s", "s"),
    ("smt.warmup_s", "s"),
    ("smt.measure_s", "s"),
    ("smt.overshoot_s", "s"),
    ("smt.drain_s", "s"),
    ("smt.cycles", "count"),
    ("smt.skipped_frac", "frac"),
    ("smt.committed", "count"),
    ("smt.fetched", "count"),
    ("smt.useful_fetch_frac", "frac"),
    ("smt.fetch_replays", "count"),
    ("smt.squashed", "count"),
    ("smt.drain_commits", "count"),
    ("smt.runahead_episodes", "count"),
    ("smt.runahead_cycle_frac", "frac"),
    ("smt.ns_per_stepped_cycle", "ns"),
    ("smt.ns_per_fetched_inst", "ns"),
    ("mem.l1d_miss_frac", "frac"),
    ("mem.l2_miss_frac", "frac"),
    ("mem.mshr_rejected", "count"),
    ("mem.port_wait_cycles", "count"),
    ("mem.bus_wait_cycles", "count"),
    ("bpred.accuracy", "frac"),
    ("bpred.predictions", "count"),
    ("isa.step_ns", "ns"),
    ("mem.access_ns", "ns"),
    ("bpred.predict_train_ns", "ns"),
    ("serve.hits", "count"),
    ("serve.computed", "count"),
    ("serve.hit_frac", "frac"),
    ("serve.busy", "count"),
    ("serve.warm_us_per_cell", "us"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The result line: exactly the metrics of `defs`, with their units.
///
/// # Panics
///
/// Panics if `metrics` does not hold exactly the names in `defs` or a
/// value is not finite — a bug in the workload code, not a result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let names: Vec<&str> = defs.iter().map(|d| d.0).collect();
    let got: Vec<&str> = metrics.keys().copied().collect();
    let mut want = names.clone();
    want.sort_unstable();
    assert_eq!(got, want, "metric set differs from the definition list");
    let body: Vec<String> = defs
        .iter()
        .map(|&(name, unit)| {
            let v = metrics[name];
            assert!(v.is_finite(), "metric {name} is {v}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The end-to-end metrics of a run: the median set-up time, the cell
/// rate, the warm and cold round-trip percentiles, the peak resident
/// set, and the share of operations that succeeded.
pub fn end_to_end(
    setup_s: f64,
    cells_per_s: f64,
    warm: &Tally,
    cold: &Tally,
    all: &Tally,
) -> Metrics {
    let pct = |t: &Tally, p: f64| t.percentile_ms(p).unwrap_or(f64::NAN);
    Metrics::from([
        ("setup_s", setup_s),
        ("cells_per_s", cells_per_s),
        ("warm_rtt_p50_ms", pct(warm, 50.0)),
        ("warm_rtt_p99_ms", pct(warm, 99.0)),
        ("cold_rtt_p50_ms", pct(cold, 50.0)),
        ("cold_rtt_p90_ms", pct(cold, 90.0)),
        ("peak_rss_mb", peak_rss_mb()),
        ("ok_frac", 1.0 - all.fail_frac()),
    ])
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn status_field(key: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        l.strip_prefix(key)?
            .strip_prefix(':')
            .map(|v| v.trim().to_string())
    })
}

/// Steal ticks of all CPUs from `/proc/stat` (0 where unavailable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The checkout's commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit_hash() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the workspace's manifests and Rust sources, so runs of a
/// checkout that is not a git repository still name the code measured.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The host line printed with every result.
pub fn host_line(steal_before: u64, steal_after: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} cpus_allowed={} steal_ticks_before={steal_before} \
         steal_ticks_after={steal_after} commit={} source_fnv={:016x}",
        status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".to_string()),
        commit_hash(),
        source_digest()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in a `BENCHMARK.json`
    /// section, in file order.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|item| {
                let name = item[..item.find('"').unwrap()].to_string();
                let unit = item.split("\"unit\": \"").nth(1).expect("unit present");
                (name, unit[..unit.find('"').unwrap()].to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let own = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(section(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_one_json_object_in_definition_order() {
        let defs = [("b", "s"), ("a", "ms")];
        let metrics = Metrics::from([("a", 0.5), ("b", 2.0)]);
        assert_eq!(
            result_line(true, 3, 0, &defs, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"b\": {\"value\": 2, \"unit\": \"s\"}, \"a\": {\"value\": 0.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "metric set differs")]
    fn result_line_rejects_a_missing_metric() {
        result_line(
            true,
            1,
            0,
            &[("a", "s"), ("b", "s")],
            &Metrics::from([("a", 1.0)]),
        );
    }
}
