//! `dmfb soak`: the load harness and latency-percentile gate for the
//! daemon.
//!
//! The soak drives three phases of concurrent request mixes against a
//! running `dmfb serve` and reports each as one [`BenchEntry`] in a
//! `dmfb-bench/1` report, filling the latency columns (`p50_ms`,
//! `p95_ms`, `p99_ms`, `cache_hit_rate`) that PR 7 added to the schema:
//!
//! * **`serve/cold`** — the dtmb26 workload with `"cache": "bypass"`:
//!   every request pays the full evaluator rebuild. This is the
//!   latency reference the cache is judged against.
//! * **`serve/warm`** — the identical workload through the cache: one
//!   miss, then hits that skip construction entirely.
//! * **`serve/mixed`** — a rotating mix of engines (two hex designs, a
//!   square-dtmb array, a spare-row baseline) and both estimators,
//!   exercising LRU traffic with realistic key diversity.
//!
//! Beyond timing, the soak *verifies the daemon's contracts while under
//! load*: warm and bypass replies for the identical request must be
//! byte-identical, malformed requests must come back as clean 4xxs with
//! the daemon still healthy afterwards, and (with
//! [`SoakConfig::require_speedup`]) the warm-cache median latency must
//! beat the cold reference by the demanded factor.

use crate::http::HttpClient;
use dmfb_bench::json::{get, JsonValue};
use dmfb_bench::{BenchEntry, BenchReport, TextTable};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Load-harness configuration.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Daemon address, e.g. `127.0.0.1:8750`.
    pub addr: String,
    /// Requests per phase.
    pub requests: usize,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Monte-Carlo trials per request. Kept small on purpose: the soak
    /// measures *service* latency (parse, cache, evaluator build), not
    /// trial throughput — the bench suite owns that axis.
    pub trials: u32,
    /// Hex primary-cell count of the cold/warm dtmb26 workload. A cold
    /// request's engine build and a warm request's run both grow about
    /// linearly with it, so it barely moves the cold/warm p50 ratio.
    pub primaries: usize,
    /// Require `cold_p50 / warm_p50 >= require_speedup` (0 disables).
    pub require_speedup: f64,
    /// Also probe malformed/unknown requests and check the daemon
    /// answers 4xx and stays healthy.
    pub probe_errors: bool,
    /// Send `POST /v1/shutdown` when done.
    pub shutdown: bool,
    /// Report label (`BENCH_<label>.json`).
    pub label: String,
    /// Marks the report as a quick (CI smoke) run.
    pub quick: bool,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            addr: "127.0.0.1:8750".into(),
            requests: 160,
            concurrency: 4,
            trials: 16,
            primaries: 2400,
            require_speedup: 0.0,
            probe_errors: true,
            shutdown: false,
            label: "serve".into(),
            quick: false,
        }
    }
}

/// What one soak produced.
#[derive(Clone, Debug)]
pub struct SoakReport {
    /// The machine-readable report (one entry per phase, latency columns
    /// filled).
    pub report: BenchReport,
    /// Human-readable phase table.
    pub rendered: String,
    /// Contract violations observed under load (empty = clean run).
    pub failures: Vec<String>,
}

/// Latencies and replies from one phase.
struct PhaseRun {
    wall_ms: f64,
    latencies_ms: Vec<f64>,
    /// Reply bodies for requests that used body index 0 (the identity
    /// probe), plus any non-200 statuses seen.
    reference_replies: Vec<String>,
    errors: Vec<String>,
}

/// Nearest-rank percentile of an unsorted latency sample.
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs `bodies[i % bodies.len()]` for `requests` requests over
/// `concurrency` connections, timing each round trip client-side.
fn run_phase(
    addr: &str,
    bodies: &[String],
    requests: usize,
    concurrency: usize,
) -> Result<PhaseRun, String> {
    let next = Arc::new(AtomicUsize::new(0));
    let collected: Arc<Mutex<PhaseRun>> = Arc::new(Mutex::new(PhaseRun {
        wall_ms: 0.0,
        latencies_ms: Vec::with_capacity(requests),
        reference_replies: Vec::new(),
        errors: Vec::new(),
    }));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency.max(1) {
            let next = Arc::clone(&next);
            let collected = Arc::clone(&collected);
            scope.spawn(move || {
                let mut client = match HttpClient::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        collected
                            .lock()
                            .unwrap()
                            .errors
                            .push(format!("connect to {addr}: {e}"));
                        return;
                    }
                };
                let mut latencies = Vec::new();
                let mut replies = Vec::new();
                let mut errors = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests {
                        break;
                    }
                    let body = &bodies[i % bodies.len()];
                    let sent = Instant::now();
                    match client.request("POST", "/v1/yield", body.as_bytes()) {
                        Ok(response) => {
                            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                            if response.status != 200 {
                                errors.push(format!(
                                    "request {i}: status {} ({})",
                                    response.status,
                                    String::from_utf8_lossy(&response.body).trim()
                                ));
                            } else if i.is_multiple_of(bodies.len()) {
                                replies.push(String::from_utf8_lossy(&response.body).into_owned());
                            }
                        }
                        Err(e) => errors.push(format!("request {i}: {e}")),
                    }
                }
                let mut collected = collected.lock().unwrap();
                collected.latencies_ms.extend(latencies);
                collected.reference_replies.extend(replies);
                collected.errors.extend(errors);
            });
        }
    });
    let mut run = Arc::try_unwrap(collected)
        .map_err(|_| "phase workers leaked".to_string())?
        .into_inner()
        .unwrap();
    run.wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(run)
}

/// Cache statistics scraped from `/v1/health`.
fn health_stats(addr: &str) -> Result<(u64, u64), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client
        .request("GET", "/v1/health", b"")
        .map_err(|e| format!("health: {e}"))?;
    if response.status != 200 {
        return Err(format!("health returned {}", response.status));
    }
    let text = String::from_utf8_lossy(&response.body).into_owned();
    let value = JsonValue::parse(&text)?;
    let obj = value.as_object("health")?;
    let cache = get(obj, "cache")?.as_object("cache")?;
    let hits = get(cache, "hits")?.as_f64("hits")? as u64;
    let misses = get(cache, "misses")?.as_f64("misses")? as u64;
    Ok((hits, misses))
}

/// The yield point of a reply body (the phase's sanity anchor).
fn reply_yield(reply: &str) -> Result<f64, String> {
    let value = JsonValue::parse(reply)?;
    let obj = value.as_object("reply")?;
    let results = get(obj, "results")?.as_object("results")?;
    let (_, first) = results
        .first()
        .ok_or_else(|| "empty results object".to_string())?;
    get(first.as_object("estimate")?, "point")?.as_f64("point")
}

/// Runs the full soak against a daemon at `config.addr`.
pub fn run_soak(config: &SoakConfig) -> Result<SoakReport, String> {
    let mut failures = Vec::new();

    // The identity workload: fixed body, so every reply must be
    // byte-identical within *and across* the cold and warm phases.
    let dtmb26 = format!(
        "{{\"design\": \"dtmb26\", \"primaries\": {}, \"trials\": {}, \"seed\": 11, \"p\": 0.95}}",
        config.primaries, config.trials
    );
    let dtmb26_bypass = format!(
        "{{\"design\": \"dtmb26\", \"primaries\": {}, \"trials\": {}, \"seed\": 11, \"p\": 0.95, \
         \"cache\": \"bypass\"}}",
        config.primaries, config.trials
    );
    let mixed: Vec<String> = vec![
        dtmb26.clone(),
        format!(
            "{{\"design\": \"dtmb36\", \"primaries\": {}, \"trials\": {}, \"seed\": 12}}",
            config.primaries / 2,
            config.trials
        ),
        format!(
            "{{\"scheme\": \"square-dtmb\", \"width\": 24, \"height\": 24, \"trials\": {}, \
             \"seed\": 13, \"estimator\": \"stratified\", \"p\": 0.999}}",
            config.trials
        ),
        format!(
            "{{\"scheme\": \"spare-rows\", \"width\": 16, \"module_rows\": 12, \
             \"spare_rows\": 2, \"trials\": {}, \"seed\": 14}}",
            config.trials
        ),
    ];

    let (hits0, misses0) = health_stats(&config.addr)?;
    let cold = run_phase(
        &config.addr,
        std::slice::from_ref(&dtmb26_bypass),
        config.requests,
        config.concurrency,
    )?;
    let (hits1, misses1) = health_stats(&config.addr)?;
    let warm = run_phase(
        &config.addr,
        std::slice::from_ref(&dtmb26),
        config.requests,
        config.concurrency,
    )?;
    let (hits2, misses2) = health_stats(&config.addr)?;
    let mixed_run = run_phase(&config.addr, &mixed, config.requests, config.concurrency)?;
    let (hits3, misses3) = health_stats(&config.addr)?;

    for (phase, run) in [("cold", &cold), ("warm", &warm), ("mixed", &mixed_run)] {
        for error in &run.errors {
            failures.push(format!("{phase}: {error}"));
        }
    }

    // Byte-identity under load: every reply to the identity body, cached,
    // bypassed, whichever worker served it, must be the same bytes.
    let mut identity = cold
        .reference_replies
        .iter()
        .chain(warm.reference_replies.iter());
    if let Some(first) = identity.next() {
        if let Some(other) = identity.find(|r| *r != first) {
            failures.push(format!(
                "replies to the identical request diverged:\n  {first}  vs\n  {other}"
            ));
        }
    } else {
        failures.push("no reference replies collected".into());
    }

    let hit_rate = |hits_b: u64, hits_a: u64, misses_b: u64, misses_a: u64| {
        let (h, m) = (hits_b - hits_a, misses_b - misses_a);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let phases = [
        (
            "serve/cold",
            "DTMB(2,6) bypass",
            &cold,
            hit_rate(hits1, hits0, misses1, misses0),
        ),
        (
            "serve/warm",
            "DTMB(2,6) cached",
            &warm,
            hit_rate(hits2, hits1, misses2, misses1),
        ),
        (
            "serve/mixed",
            "4-engine mix",
            &mixed_run,
            hit_rate(hits3, hits2, misses3, misses2),
        ),
    ];

    let mut report = BenchReport::new(&config.label, config.concurrency, config.quick);
    let mut table = TextTable::new(vec![
        "phase".into(),
        "requests".into(),
        "p50 ms".into(),
        "p95 ms".into(),
        "p99 ms".into(),
        "req/s".into(),
        "hit rate".into(),
    ]);
    for (name, design, run, rate) in &phases {
        let yield_estimate = run
            .reference_replies
            .first()
            .map(|r| reply_yield(r))
            .transpose()?
            .unwrap_or(f64::NAN);
        let (p50, p95, p99) = (
            percentile(&run.latencies_ms, 50.0),
            percentile(&run.latencies_ms, 95.0),
            percentile(&run.latencies_ms, 99.0),
        );
        let requests = run.latencies_ms.len();
        let throughput = if run.wall_ms > 0.0 {
            u64::from(config.trials) as f64 * requests as f64 / (run.wall_ms / 1e3)
        } else {
            0.0
        };
        report.entries.push(BenchEntry {
            name: (*name).to_string(),
            scheme: "serve".into(),
            design: (*design).to_string(),
            primaries: config.primaries,
            trials: u64::from(config.trials) * requests as u64,
            grid_points: requests,
            wall_ms: run.wall_ms,
            trials_per_sec: throughput,
            yield_estimate,
            assay: None,
            operational_yield: None,
            estimator: Some("naive".into()),
            defect_model: Some("bernoulli".into()),
            engine: Some("block".into()),
            variance: None,
            effective_samples: None,
            p50_ms: Some(p50),
            p95_ms: Some(p95),
            p99_ms: Some(p99),
            cache_hit_rate: Some(*rate),
            campaign: None,
            // Soak phases mix hex and spare-row requests; no single
            // scheme describes the workload.
            spec: None,
        });
        table.row(vec![
            (*name).to_string(),
            requests.to_string(),
            format!("{p50:.3}"),
            format!("{p95:.3}"),
            format!("{p99:.3}"),
            format!("{:.0}", requests as f64 / (run.wall_ms / 1e3)),
            format!("{rate:.2}"),
        ]);
    }

    if config.require_speedup > 0.0 {
        let cold_p50 = percentile(&cold.latencies_ms, 50.0);
        let warm_p50 = percentile(&warm.latencies_ms, 50.0);
        let speedup = if warm_p50 > 0.0 {
            cold_p50 / warm_p50
        } else {
            f64::INFINITY
        };
        if speedup < config.require_speedup {
            failures.push(format!(
                "warm-cache p50 {warm_p50:.3} ms is only {speedup:.1}x faster than the \
                 cold rebuild p50 {cold_p50:.3} ms (required {:.1}x)",
                config.require_speedup
            ));
        }
    }

    if config.probe_errors {
        probe_error_handling(&config.addr, &mut failures);
    }

    if config.shutdown {
        let mut client = HttpClient::connect(&config.addr).map_err(|e| format!("connect: {e}"))?;
        match client.request("POST", "/v1/shutdown", b"") {
            Ok(response) if response.status == 200 => {}
            Ok(response) => failures.push(format!("shutdown returned {}", response.status)),
            Err(e) => failures.push(format!("shutdown failed: {e}")),
        }
    }

    Ok(SoakReport {
        rendered: table.render(),
        report,
        failures,
    })
}

/// Fires malformed and misrouted requests; the daemon must answer clean
/// 4xxs and still serve afterwards.
fn probe_error_handling(addr: &str, failures: &mut Vec<String>) {
    let expect =
        |failures: &mut Vec<String>, what: &str, got: std::io::Result<u16>, want: u16| match got {
            Ok(status) if status == want => {}
            Ok(status) => failures.push(format!("{what}: expected {want}, got {status}")),
            Err(e) => failures.push(format!("{what}: {e}")),
        };
    let one_shot = |raw_or_body: Result<&[u8], &[u8]>| -> std::io::Result<u16> {
        let mut client = HttpClient::connect(addr)?;
        match raw_or_body {
            Ok(body) => client.request("POST", "/v1/yield", body).map(|r| r.status),
            Err(raw) => client.request_raw(raw).map(|r| r.status),
        }
    };
    expect(
        failures,
        "non-JSON body",
        one_shot(Ok(b"certainly not json")),
        400,
    );
    expect(
        failures,
        "unknown field",
        one_shot(Ok(br#"{"warp_factor": 9}"#)),
        400,
    );
    expect(
        failures,
        "foreign subparam",
        one_shot(Ok(br#"{"scheme": "hex-dtmb", "pattern": "stripes"}"#)),
        400,
    );
    expect(
        failures,
        "malformed request line",
        one_shot(Err(b"BLORP /v1/yield HTTP/9.9\r\n\r\n")),
        400,
    );
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            failures.push(format!("reconnect after probes: {e}"));
            return;
        }
    };
    expect(
        failures,
        "unknown endpoint",
        client.request("POST", "/v1/nope", b"{}").map(|r| r.status),
        404,
    );
    expect(
        failures,
        "wrong method",
        client.request("GET", "/v1/yield", b"").map(|r| r.status),
        405,
    );
    expect(
        failures,
        "health after probes",
        client.request("GET", "/v1/health", b"").map(|r| r.status),
        200,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&samples, 50.0), 3.0);
        assert_eq!(percentile(&samples, 95.0), 5.0);
        assert_eq!(percentile(&samples, 99.0), 5.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
    }

    #[test]
    fn reply_yield_reads_the_first_result() {
        let reply = r#"{"results": {"reconfigured": {"point": 0.25, "trials": 4}}}"#;
        assert_eq!(reply_yield(reply).unwrap(), 0.25);
        assert!(reply_yield("{}").is_err());
    }
}
