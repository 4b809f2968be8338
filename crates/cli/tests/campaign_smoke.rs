//! Golden-file and error-path tests for `dmfb campaign`.
//!
//! The committed files under `tests/golden/` pin the exact bytes of the
//! campaign reports: markers, verdict table, headers. Any engine or
//! formatting change that moves a byte fails here, which is the point —
//! campaign replays are a determinism contract, not just a report.

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

fn assert_matches_golden(args: &[&str], golden_name: &str) {
    let out = dmfb(args);
    assert!(
        out.status.success(),
        "{args:?} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout,
        golden(golden_name),
        "{args:?} drifted from tests/golden/{golden_name}"
    );
}

#[test]
fn edge_column_wipeout_report_matches_golden() {
    assert_matches_golden(
        &[
            "campaign",
            "--name",
            "edge-column-wipeout",
            "--trials",
            "120",
            "--seed",
            "7",
        ],
        "campaign_edge-column-wipeout.txt",
    );
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let args = |threads: &'static str| {
        vec![
            "campaign",
            "--name",
            "edge-column-wipeout",
            "--trials",
            "120",
            "--seed",
            "7",
            "--threads",
            threads,
        ]
    };
    let single = dmfb(&args("1"));
    let auto = dmfb(&args("0"));
    assert!(single.status.success() && auto.status.success());
    assert_eq!(single.stdout, auto.stdout, "--threads 1 vs 0 must agree");
    // And both agree with the committed golden (which used the default).
    let text = String::from_utf8(single.stdout).unwrap();
    assert_eq!(text, golden("campaign_edge-column-wipeout.txt"));
}

#[test]
fn rehearsal_matches_golden_and_is_damage_free() {
    assert_matches_golden(
        &[
            "campaign",
            "--name",
            "reservoir-cluster",
            "--seed",
            "11",
            "--rehearse",
        ],
        "campaign_reservoir-cluster_rehearse.txt",
    );
    let text = golden("campaign_reservoir-cluster_rehearse.txt");
    assert!(!text.contains("hostile"));
    assert!(text.contains("rehearsal (no damage injected)"));
}

#[test]
fn list_matches_golden_and_names_all_campaigns() {
    assert_matches_golden(&["campaign", "--list"], "campaign_list.txt");
    let text = golden("campaign_list.txt");
    for name in [
        "edge-column-wipeout",
        "reservoir-cluster",
        "wear-trajectory",
        "parametric-drift",
    ] {
        assert!(text.contains(name), "--list must name {name}");
    }
}

#[test]
fn script_file_matches_golden() {
    let dir = std::env::temp_dir().join("dmfb-campaign-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("smoke-custom.dmfb");
    std::fs::write(
        &path,
        "scenario smoke-custom\nstep calm\nstep cluster 3 5 radius 1 peak 1\nstep salvo 8\n",
    )
    .unwrap();
    assert_matches_golden(
        &[
            "campaign",
            "--script",
            path.to_str().unwrap(),
            "--trials",
            "60",
            "--seed",
            "5",
        ],
        "campaign_custom-script.txt",
    );
}

#[test]
fn unknown_campaign_lists_choices_and_exits_nonzero() {
    let out = dmfb(&["campaign", "--name", "volcano"]);
    assert!(!out.status.success(), "unknown campaign must exit non-zero");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown campaign 'volcano'"), "stderr:\n{err}");
    for name in [
        "edge-column-wipeout",
        "reservoir-cluster",
        "wear-trajectory",
        "parametric-drift",
    ] {
        assert!(err.contains(name), "error must list {name}:\n{err}");
    }
}

#[test]
fn missing_scenario_source_is_a_clean_error() {
    let out = dmfb(&["campaign"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--name") && err.contains("--script"), "{err}");

    let out = dmfb(&[
        "campaign",
        "--name",
        "edge-column-wipeout",
        "--script",
        "x.dmfb",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("mutually exclusive"), "{err}");

    let out = dmfb(&["campaign", "--script", "/nonexistent/x.dmfb"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read script"), "{err}");
}

#[test]
fn bad_script_reports_line_numbered_parse_error() {
    let dir = std::env::temp_dir().join("dmfb-campaign-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.dmfb");
    std::fs::write(&path, "scenario broken\nstep explode 3\n").unwrap();
    let out = dmfb(&["campaign", "--script", path.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("line 2") && err.contains("unknown action 'explode'"),
        "stderr:\n{err}"
    );
}

#[test]
fn foreign_parameters_are_rejected_not_ignored() {
    for (extra, needle) in [
        (&["--scheme", "square-dtmb"][..], "IVD case-study chip"),
        (&["--design", "dtmb44"][..], "fixes the chip"),
        (&["--primaries", "100"][..], "fixes the chip"),
        (&["--width", "16"][..], "fixes the chip"),
        (&["--estimator", "stratified"][..], "yield and sweep only"),
        (&["--defect-model", "clustered"][..], "yield and sweep only"),
        (&["--cluster-peak", "0.5"][..], "sub-parameter"),
        (&["--tolerance", "1e-6"][..], "sub-parameter"),
    ] {
        let mut args = vec!["campaign", "--name", "edge-column-wipeout"];
        args.extend_from_slice(extra);
        let out = dmfb(&args);
        assert!(!out.status.success(), "{extra:?} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{extra:?} stderr:\n{err}");
    }
}

#[test]
fn invalid_p_and_trials_are_clean_errors() {
    let out = dmfb(&["campaign", "--name", "parametric-drift", "--p", "1.5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("0 <= p <= 1"));

    let out = dmfb(&["campaign", "--name", "parametric-drift", "--trials", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--trials must be at least 1"));
}
