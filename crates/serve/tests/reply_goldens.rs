//! Byte-identity oracle for `/v1/yield` replies.
//!
//! `service_props` proves replies agree with each other (cold ≡ warm ≡
//! bypass); this suite pins them to fixed references. Every file under
//! `tests/golden/` is the exact reply body for one request: the valid
//! bodies of the shared request corpus plus the request mix the repo
//! benchmark drives a daemon with, each at seed 1. Any change to engine
//! construction, seeding or reply rendering that moves a byte fails here.

use dmfb_serve::request::parse_yield_request;
use dmfb_serve::CachedEngine;

/// The benchmark's serve mix, one request of each shape, at seed 1.
const MIX: [(&str, &str); 9] = [
    (
        "mix_dtmb26_naive",
        r#"{"design": "dtmb26", "primaries": 600, "p": 0.99, "trials": 256, "seed": 1}"#,
    ),
    (
        "mix_dtmb26_stratified",
        r#"{"design": "dtmb26", "primaries": 100, "estimator": "stratified", "p": 0.999,
            "trials": 256, "seed": 1}"#,
    ),
    (
        "mix_dtmb16_raw",
        r#"{"tier": "raw", "design": "dtmb16", "primaries": 100, "p": 0.99, "trials": 128,
            "seed": 1}"#,
    ),
    (
        "mix_square_checkerboard",
        r#"{"scheme": "square-dtmb", "pattern": "checkerboard", "width": 16, "height": 16,
            "p": 0.97, "trials": 256, "seed": 1}"#,
    ),
    (
        "mix_spare_rows_stratified",
        r#"{"scheme": "spare-rows", "width": 8, "module_rows": 6, "spare_rows": 2,
            "estimator": "stratified", "p": 0.995, "trials": 256, "seed": 1}"#,
    ),
    (
        "mix_dtmb44_clustered",
        r#"{"design": "dtmb44", "primaries": 200, "defect_model": "clustered", "trials": 64,
            "seed": 1}"#,
    ),
    (
        "mix_square_stripes",
        r#"{"scheme": "square-dtmb", "pattern": "stripes", "width": 12, "height": 12,
            "p": 0.95, "trials": 256, "seed": 1}"#,
    ),
    (
        "mix_operational",
        r#"{"tier": "operational", "assay": "ivd-panel", "p": 0.95, "trials": 64, "seed": 1}"#,
    ),
    (
        "mix_bypass",
        r#"{"design": "dtmb26", "primaries": 2400, "p": 0.99, "trials": 64, "cache": "bypass",
            "seed": 1}"#,
    ),
];

/// The valid bodies of the shared serve-request corpus.
const CORPUS: [&str; 3] = ["valid_minimal", "valid_operational", "valid_scheme"];

fn reply(body: &str) -> String {
    let request = parse_yield_request(body.as_bytes()).expect("golden request bodies are valid");
    CachedEngine::build(&request, 1).run(&request, 1)
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn mix_replies_match_goldens() {
    for (name, body) in MIX {
        assert_eq!(reply(body), golden(name), "{name} drifted from its golden");
    }
}

#[test]
fn corpus_replies_match_goldens() {
    for name in CORPUS {
        let path = format!(
            "{}/../../tests/corpus/serve_request/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let body = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(reply(&body), golden(name), "{name} drifted from its golden");
    }
}
