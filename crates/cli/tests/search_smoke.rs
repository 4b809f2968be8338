//! Golden-file, determinism and error-path tests for `dmfb search`.
//!
//! The committed files under `tests/golden/` pin the exact bytes of the
//! frontier outputs (table and CSV). Search is a determinism contract —
//! a pure function of (space, target, trials, seed) — so any byte drift
//! here is a real behaviour change, not noise.

use std::process::{Command, Output};

fn dmfb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmfb"))
        .args(args)
        .output()
        .expect("spawn dmfb")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The capped smoke space every golden in this file uses.
const SMOKE_ARGS: [&str; 10] = [
    "search",
    "--target-yield",
    "0.99",
    "--max-primaries",
    "60",
    "--max-dim",
    "12",
    "--trials",
    "800",
    "--seed",
];

fn smoke_args(seed: &'static str, extra: &[&'static str]) -> Vec<&'static str> {
    let mut args: Vec<&str> = SMOKE_ARGS.to_vec();
    args.push(seed);
    args.extend_from_slice(extra);
    args
}

#[test]
fn frontier_table_matches_golden() {
    let out = dmfb(&smoke_args("7", &[]));
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        golden("search_frontier.txt")
    );
}

#[test]
fn frontier_csv_matches_golden_at_any_thread_count() {
    for threads in ["1", "0"] {
        let out = dmfb(&smoke_args("7", &["--csv", "--threads", threads]));
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden("search_frontier.csv"),
            "--threads {threads} drifted from the golden frontier"
        );
    }
}

#[test]
fn json_report_logs_the_pruning_cost_win() {
    let out = dmfb(&smoke_args("7", &["--json"]));
    assert!(out.status.success());
    let body = String::from_utf8(out.stdout).unwrap();
    for key in [
        "\"schema\": \"dmfb-search/1\"",
        "\"candidates\": 35",
        "\"pruned\": ",
        "\"evaluated\": ",
        "\"trials_used\": ",
        "\"naive_trials\": 1400000",
        "\"frontier\": [",
        "\"best\": ",
    ] {
        assert!(body.contains(key), "JSON report missing {key}: {body}");
    }
    // The acceptance gate: pruning measurably beats naive scoring.
    let field = |name: &str| -> u64 {
        let start = body.find(&format!("\"{name}\": ")).unwrap() + name.len() + 4;
        body[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap()
    };
    assert!(field("pruned") > 0, "no candidates pruned: {body}");
    assert!(
        field("trials_used") < field("naive_trials") / 10,
        "pruning did not reduce cost: {body}"
    );
}

#[test]
fn assay_search_scores_the_operational_chip_pair() {
    let out = dmfb(&[
        "search",
        "--target-yield",
        "0.5",
        "--assay",
        "ivd-panel",
        "--trials",
        "200",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = String::from_utf8(out.stdout).unwrap();
    assert!(body.contains("\"tier\": \"operational\""));
    assert!(body.contains("\"assay\": \"ivd-panel\""));
    assert!(body.contains("assay:ivd-panel:chip=fabricated"));
    assert!(body.contains("assay:ivd-panel:chip=dtmb26"));
}

#[test]
fn search_rejects_foreign_and_incoherent_parameters() {
    let cases: &[(&[&str], &str)] = &[
        (&["search"], "--target-yield <Y> is required"),
        (
            &["search", "--target-yield", "0.99", "--scheme", "hex-dtmb"],
            "--scheme does not apply to search",
        ),
        (
            &["search", "--target-yield", "0.99", "--design", "dtmb26"],
            "--design does not apply to search",
        ),
        (
            &["search", "--target-yield", "0.99", "--spare-rows", "2"],
            "--spare-rows does not apply to search",
        ),
        (
            &["search", "--target-yield", "0.99", "--estimator", "naive"],
            "--estimator does not apply to search",
        ),
        (
            &[
                "search",
                "--target-yield",
                "0.99",
                "--defect-model",
                "clustered",
            ],
            "--defect-model does not apply to search",
        ),
        (
            &["search", "--target-yield", "0.99", "--tier", "operational"],
            "--tier operational requires --assay",
        ),
        (
            &[
                "search",
                "--target-yield",
                "0.99",
                "--tier",
                "raw",
                "--assay",
                "ivd-panel",
            ],
            "--assay scores the operational tier",
        ),
        (
            &["search", "--target-yield", "1.5"],
            "need 0 < --target-yield <= 1",
        ),
    ];
    for (args, needle) in cases {
        let out = dmfb(args);
        assert!(!out.status.success(), "{args:?} unexpectedly succeeded");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{args:?}: expected '{needle}' in: {stderr}"
        );
    }
}
