//! End-to-end tests over real TCP: a `Server` bound to an ephemeral
//! port, driven by the crate's own `HttpClient`. These pin the wire
//! behaviour the soak harness and CI job rely on — worker-count
//! invariance, 4xx (never a hangup, never a panic) on malformed input,
//! and a graceful shutdown that actually joins the acceptor.

use std::thread::JoinHandle;

use dmfb_serve::http::{HttpClient, HttpResponse};
use dmfb_serve::{Server, ServerConfig};

/// Starts a server on an ephemeral port and returns its address plus
/// the handle to join after `/v1/shutdown`.
fn text(reply: &HttpResponse) -> String {
    String::from_utf8_lossy(&reply.body).into_owned()
}

fn start(workers: usize) -> (String, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        threads: 1,
        cache_capacity: 8,
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn shut_down(addr: &str, handle: JoinHandle<std::io::Result<()>>) {
    let mut client = HttpClient::connect(addr).expect("connect for shutdown");
    let reply = client
        .request("POST", "/v1/shutdown", b"")
        .expect("shutdown request");
    assert_eq!(reply.status, 200);
    assert!(
        text(&reply).contains("shutting-down"),
        "body: {}",
        text(&reply)
    );
    handle
        .join()
        .expect("server thread panicked")
        .expect("server run() errored");
}

const DTMB_BODY: &[u8] =
    br#"{"scheme": "hex-dtmb", "design": "dtmb26", "primaries": 60, "trials": 24, "seed": 7}"#;

#[test]
fn replies_are_identical_across_worker_counts_and_requests() {
    let (addr_a, handle_a) = start(1);
    let (addr_b, handle_b) = start(4);

    let mut client_a = HttpClient::connect(&addr_a).expect("connect A");
    let mut client_b = HttpClient::connect(&addr_b).expect("connect B");

    let first = client_a
        .request("POST", "/v1/yield", DTMB_BODY)
        .expect("first request");
    assert_eq!(first.status, 200, "body: {}", text(&first));
    assert_eq!(first.header("x-dmfb-cache"), Some("miss"));

    // Same request again on the same connection: cache hit, same bytes.
    let warm = client_a
        .request("POST", "/v1/yield", DTMB_BODY)
        .expect("warm request");
    assert_eq!(warm.header("x-dmfb-cache"), Some("hit"));
    assert_eq!(warm.body, first.body);

    // Same request against a 4-worker server: byte-identical body.
    let other = client_b
        .request("POST", "/v1/yield", DTMB_BODY)
        .expect("request against 4 workers");
    assert_eq!(other.status, 200);
    assert_eq!(other.body, first.body, "worker count changed reply bytes");

    // Free the workers before shutting down: a single-worker server
    // serves one keep-alive connection at a time.
    drop(client_a);
    drop(client_b);
    shut_down(&addr_a, handle_a);
    shut_down(&addr_b, handle_b);
}

#[test]
fn unbounded_cluster_parameters_get_4xx() {
    let (addr, handle) = start(1);
    let mut client = HttpClient::connect(&addr).expect("connect");
    for (body, param) in [
        (
            &br#"{"defect_model": "clustered", "cluster_mean": 1e17, "trials": 64}"#[..],
            "'cluster_mean' <= 10000",
        ),
        (
            br#"{"defect_model": "clustered", "cluster_dispersion": 4000000000, "trials": 64}"#,
            "'cluster_dispersion' <= 1000",
        ),
        (
            br#"{"defect_model": "clustered", "cluster_mean": 10000, "cluster_radius": 64, "trials": 9}"#,
            "over the ceiling of 1e9",
        ),
        (
            br#"{"design": "dtmb26", "primaries": 65536, "trials": 76294}"#,
            "over the ceiling of 5e9",
        ),
        (
            br#"{"tier": "operational", "assay": "ivd-panel", "trials": 10000000}"#,
            "over the ceiling of 400000",
        ),
    ] {
        let reply = client.request("POST", "/v1/yield", body).expect("request");
        assert_eq!(reply.status, 400, "body: {}", text(&reply));
        assert!(text(&reply).contains(param), "body: {}", text(&reply));
    }
    drop(client);
    shut_down(&addr, handle);
}

#[test]
fn malformed_requests_get_4xx_and_the_server_keeps_serving() {
    let (addr, handle) = start(2);

    // Invalid JSON → 400 on the same keep-alive connection.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let bad_json = client
        .request("POST", "/v1/yield", b"{not json")
        .expect("bad JSON request");
    assert_eq!(bad_json.status, 400);
    assert!(
        text(&bad_json).contains("error"),
        "body: {}",
        text(&bad_json)
    );

    // Unknown field → 400; foreign subparam → 400.
    let unknown = client
        .request("POST", "/v1/yield", br#"{"bogus": 1}"#)
        .expect("unknown-field request");
    assert_eq!(unknown.status, 400);
    let foreign = client
        .request(
            "POST",
            "/v1/yield",
            br#"{"scheme": "spare-rows", "design": "dtmb26"}"#,
        )
        .expect("foreign-subparam request");
    assert_eq!(foreign.status, 400);

    // Wrong method and unknown path.
    let not_allowed = client
        .request("GET", "/v1/yield", b"")
        .expect("GET /v1/yield");
    assert_eq!(not_allowed.status, 405);
    assert_eq!(not_allowed.header("allow"), Some("POST"));
    let not_found = client.request("GET", "/v1/nope", b"").expect("404 path");
    assert_eq!(not_found.status, 404);

    // A garbage request line gets a 400 before the connection closes.
    let mut raw = HttpClient::connect(&addr).expect("connect raw");
    let garbled = raw
        .request_raw(b"BLORP /v1/yield HTTP/9.9\r\n\r\n")
        .expect("garbled request line");
    assert_eq!(garbled.status, 400);

    // A body over the 64 KiB cap is refused with 413.
    let mut big = HttpClient::connect(&addr).expect("connect big");
    let oversized = big
        .request_raw(b"POST /v1/yield HTTP/1.1\r\ncontent-length: 1048576\r\n\r\n")
        .expect("oversized announcement");
    assert_eq!(oversized.status, 413);

    // After all of the above the server still answers cleanly.
    let mut again = HttpClient::connect(&addr).expect("reconnect");
    let health = again.request("GET", "/v1/health", b"").expect("health");
    assert_eq!(health.status, 200);
    let good = again
        .request("POST", "/v1/yield", DTMB_BODY)
        .expect("valid request after abuse");
    assert_eq!(good.status, 200);

    drop(client);
    drop(again);
    shut_down(&addr, handle);
}

#[test]
fn shutdown_joins_even_with_idle_keep_alive_connections() {
    let (addr, handle) = start(2);

    // Leave a keep-alive connection idle; shutdown must not wait on it
    // past the read timeout.
    let mut idle = HttpClient::connect(&addr).expect("idle connection");
    let ok = idle.request("GET", "/v1/health", b"").expect("health");
    assert_eq!(ok.status, 200);

    shut_down(&addr, handle);
}
