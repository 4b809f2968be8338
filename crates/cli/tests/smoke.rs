//! End-to-end smoke tests driving the compiled `dmfb` binary.

use std::process::{Command, Output};

fn dmfb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dmfb"))
        .args(args)
        .output()
        .expect("spawn dmfb")
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = dmfb(&["--help"]);
    assert!(out.status.success(), "--help exited nonzero");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"), "usage missing:\n{text}");
    assert!(text.contains("dmfb yield"), "commands missing:\n{text}");
}

#[test]
fn command_help_prints_usage_and_succeeds() {
    for args in [["yield", "--help"], ["sweep", "-h"]] {
        let out = dmfb(&args);
        assert!(out.status.success(), "{args:?} exited nonzero");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("USAGE"), "{args:?}: usage missing:\n{text}");
    }
}

#[test]
fn unknown_design_lists_choices_and_fails() {
    let out = dmfb(&["yield", "--design", "dtmb99"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("unknown design 'dtmb99'") && err.contains("dtmb26b"),
        "stderr must list valid designs:\n{err}"
    );
}

/// Replays the `$ dmfb …` cases of golden file `name` with `extra` args;
/// returns the golden and the replayed transcript.
fn replay_golden(name: &str, extra: &[&str]) -> (String, String) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap();
    let mut replay = String::new();
    for line in golden.lines() {
        let Some(case) = line.strip_prefix("$ dmfb ") else {
            continue;
        };
        let mut args: Vec<&str> = case.split_whitespace().collect();
        args.extend(extra);
        let out = dmfb(&args);
        assert!(
            out.status.success(),
            "{case}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        replay.push_str(line);
        replay.push('\n');
        replay.push_str(&String::from_utf8(out.stdout).unwrap());
    }
    (golden, replay)
}

/// Replays every `$ dmfb …` case in the committed yield/sweep golden and
/// checks the binary still prints the recorded bytes, single-threaded and
/// on every core. The cases cover each scheme family under every
/// estimator and defect model, each sweep mode, and the assay tiers. The
/// cases after the small matrix (trials 2000, 600-primary arrays among
/// them) were recorded from the scalar one-trial-at-a-time engine, so
/// they also hold the block engine to the scalar oracle at case-study
/// size.
#[test]
fn yield_and_sweep_match_the_matrix_golden() {
    for threads in ["1", "0"] {
        let (golden, replay) = replay_golden("yield_sweep_matrix.txt", &["--threads", threads]);
        assert_eq!(
            replay, golden,
            "yield/sweep output drifted from yield_sweep_matrix.txt at --threads {threads}"
        );
    }
}

/// Commands that print or execute a plan: a `render` that reconfigures,
/// one that fails (the Hall-witness message), and an `assay`.
#[test]
fn render_and_assay_match_the_plan_golden() {
    let (golden, replay) = replay_golden("plans.txt", &[]);
    assert_eq!(replay, golden, "plan output drifted from plans.txt");
}

/// Options outside the table every command shares are errors, never
/// silently ignored: a typo must not run the defaults.
#[test]
fn unknown_options_are_rejected() {
    for (args, option) in [
        (&["yield", "--trails", "100"][..], "--trails"),
        (&["yield", "--trials", "100", "--bogus", "3"], "--bogus"),
        (&["yield", "--block-trials", "0"], "--block-trials"),
        (&["sweep", "--block-trials", "64"], "--block-trials"),
        (
            &["bench", "--quick", "--block-trials", "64"],
            "--block-trials",
        ),
    ] {
        let out = dmfb(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("unknown option {option}")),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn out_of_range_primaries_fail_cleanly_on_every_hex_command() {
    for command in ["yield", "sweep", "render", "faults", "profile"] {
        for (design, primaries, needle) in [
            ("dtmb26", "0", "--primaries must be at least 1"),
            ("none", "0", "--primaries must be at least 1"),
            ("dtmb16", "65537", "need --primaries <= 65536, got 65537"),
        ] {
            let args = [command, "--design", design, "--primaries", primaries];
            let out = dmfb(&args);
            assert_eq!(out.status.code(), Some(1), "{args:?} must fail, not panic");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}

#[test]
fn out_of_range_fault_counts_and_survival_fail_cleanly() {
    for (command, needle) in [
        (
            "faults --design dtmb16 --primaries 10 --max-m 100",
            "need --max-m <= 14 (the chip's cell count), got 100",
        ),
        (
            "assay --faults 100000",
            "need --faults <= 343 (the chip's cell count), got 100000",
        ),
        (
            "render --design dtmb16 --primaries 10 --inject 1.5",
            "need 0 <= --inject <= 1, got 1.5",
        ),
    ] {
        let args: Vec<&str> = command.split(' ').collect();
        let out = dmfb(&args);
        assert_eq!(out.status.code(), Some(1), "{command} must fail, not panic");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{command}: {err}");
        assert!(!err.contains("panicked"), "{command}: {err}");
        assert!(out.stdout.is_empty(), "{command} printed output");
    }
}

#[test]
fn zero_trials_are_rejected_by_yield_and_sweep() {
    for command in ["yield", "sweep", "faults", "profile"] {
        let out = dmfb(&[command, "--design", "dtmb26", "--trials", "0"]);
        assert_eq!(out.status.code(), Some(1), "{command} accepted --trials 0");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--trials must be at least 1"),
            "{command}: {err}"
        );
        assert!(out.stdout.is_empty(), "{command} printed a report");
    }
}

#[test]
fn unknown_command_fails_with_error() {
    let out = dmfb(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"), "stderr:\n{err}");
}

#[test]
fn small_yield_report_runs_end_to_end() {
    let out = dmfb(&[
        "yield",
        "--design",
        "dtmb26",
        "--primaries",
        "60",
        "--p",
        "0.95",
        "--trials",
        "300",
        "--seed",
        "7",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("raw yield"), "report missing:\n{text}");
    assert!(
        text.contains("reconfigured yield"),
        "report missing:\n{text}"
    );
    assert!(text.contains("DTMB(2,6)"), "design missing:\n{text}");
}

#[test]
fn yield_report_is_deterministic_for_a_seed() {
    let args = [
        "yield",
        "--design",
        "dtmb16",
        "--primaries",
        "40",
        "--p",
        "0.9",
        "--trials",
        "200",
        "--seed",
        "11",
    ];
    let a = dmfb(&args);
    let b = dmfb(&args);
    assert!(a.status.success() && b.status.success());
    assert_eq!(a.stdout, b.stdout, "same seed must give identical reports");
}

#[test]
fn batched_sweep_emits_monotone_csv() {
    let out = dmfb(&[
        "sweep",
        "--design",
        "dtmb44",
        "--primaries",
        "60",
        "--from",
        "0.85",
        "--to",
        "1.0",
        "--steps",
        "4",
        "--trials",
        "400",
        "--seed",
        "5",
        "--batched",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("p,yield,ci_lo,ci_hi"));
    let yields: Vec<f64> = lines
        .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(yields.len(), 4);
    // Common random numbers make the batched curve monotone in p.
    for w in yields.windows(2) {
        assert!(w[1] >= w[0], "batched curve must be monotone: {yields:?}");
    }
    assert_eq!(*yields.last().unwrap(), 1.0, "p=1 never fails");
}

#[test]
fn fine_sweep_grids_print_distinct_ascending_p() {
    for (steps, decimals) in [("11", 5), ("10000", 8)] {
        let out = dmfb(&[
            "sweep",
            "--design",
            "dtmb26",
            "--primaries",
            "60",
            "--batched",
            "--from",
            "0.9999",
            "--to",
            "1.0",
            "--steps",
            steps,
            "--trials",
            "64",
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        let labels: Vec<&str> = text
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        assert_eq!(labels.len(), steps.parse::<usize>().unwrap());
        assert_eq!(labels[0], format!("{:.decimals$}", 0.9999));
        assert!(labels.iter().all(|l| l.len() == decimals + 2), "{labels:?}");
        let ps: Vec<f64> = labels.iter().map(|l| l.parse().unwrap()).collect();
        for w in ps.windows(2) {
            assert!(w[0] < w[1], "steps={steps}: p labels must ascend: {w:?}");
        }
    }
}

#[test]
fn unknown_scheme_lists_choices_and_fails() {
    for cmd in ["yield", "sweep", "bench"] {
        let out = dmfb(&[cmd, "--scheme", "triangular"]);
        assert!(!out.status.success(), "{cmd} must reject unknown scheme");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("unknown scheme 'triangular'")
                && err.contains("hex-dtmb")
                && err.contains("square-dtmb")
                && err.contains("spare-rows"),
            "{cmd} stderr must list valid schemes:\n{err}"
        );
    }
}

#[test]
fn square_scheme_yield_reports_through_fast_engine() {
    let out = dmfb(&[
        "yield",
        "--scheme",
        "square-dtmb",
        "--pattern",
        "checkerboard",
        "--width",
        "10",
        "--height",
        "10",
        "--p",
        "0.95",
        "--trials",
        "300",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("checkerboard"), "label missing:\n{text}");
    assert!(
        text.contains("reconfigured yield"),
        "report missing:\n{text}"
    );
}

#[test]
fn batched_scheme_sweeps_are_monotone_and_thread_invariant() {
    // The acceptance bar: `sweep --batched` for square-dtmb and
    // spare-rows rides the bitset/CRN fast path and is byte-identical
    // for any --threads value.
    let cases: [&[&str]; 2] = [
        &["--scheme", "square-dtmb", "--pattern", "stripes"],
        &[
            "--scheme",
            "spare-rows",
            "--width",
            "6",
            "--module-rows",
            "5",
        ],
    ];
    for extra in cases {
        let mut base = vec![
            "sweep",
            "--batched",
            "--from",
            "0.85",
            "--to",
            "1.0",
            "--steps",
            "4",
            "--trials",
            "400",
            "--seed",
            "5",
        ];
        base.extend_from_slice(extra);
        let reference = dmfb(&base);
        assert!(
            reference.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&reference.stderr)
        );
        let text = String::from_utf8(reference.stdout.clone()).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("p,yield,ci_lo,ci_hi"));
        let yields: Vec<f64> = lines
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(yields.len(), 4, "{extra:?}");
        for w in yields.windows(2) {
            assert!(w[1] >= w[0], "batched curve must be monotone: {yields:?}");
        }
        assert_eq!(*yields.last().unwrap(), 1.0, "p=1 never fails");
        for threads in ["1", "3", "8"] {
            let mut args = base.clone();
            args.extend_from_slice(&["--threads", threads]);
            let par = dmfb(&args);
            assert!(par.status.success());
            assert_eq!(
                par.stdout, reference.stdout,
                "{extra:?} --threads {threads} must be byte-identical"
            );
        }
    }
}

#[test]
fn effective_column_rejected_off_hex() {
    let out = dmfb(&["sweep", "--scheme", "spare-rows", "--effective"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--effective"), "stderr:\n{err}");
}

#[test]
fn yield_rejects_mismatched_scheme_subparameters() {
    // Forgetting --scheme square-dtmb must not silently measure hex.
    let out = dmfb(&["yield", "--pattern", "checkerboard", "--trials", "100"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--pattern") && err.contains("hex-dtmb"),
        "stderr:\n{err}"
    );
}

#[test]
fn hex_only_commands_reject_other_schemes() {
    for cmd in ["faults", "render", "assay", "profile"] {
        let out = dmfb(&[cmd, "--scheme", "square-dtmb"]);
        assert!(!out.status.success(), "{cmd} must reject non-hex schemes");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("hexagonal arrays only"),
            "{cmd} stderr:\n{err}"
        );
    }
}

#[test]
fn bench_rejects_scheme_subparameters() {
    // Bench runs a fixed suite per scheme; accepting-and-ignoring
    // sub-parameters would mislabel what was measured.
    let out = dmfb(&[
        "bench",
        "--quick",
        "--scheme",
        "square-dtmb",
        "--pattern",
        "quarter",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("--pattern") && err.contains("fixed workload"),
        "stderr:\n{err}"
    );
}

#[test]
fn bench_json_records_scheme_per_entry() {
    let dir = std::env::temp_dir().join(format!("dmfb-bench-scheme-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dmfb(&[
        "bench",
        "--quick",
        "--json",
        "--scheme",
        "square-dtmb",
        "--out",
        dir.to_str().unwrap(),
        "--label",
        "sq-smoke",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_sq-smoke.json")).expect("report written");
    assert!(json.contains("\"scheme\":\"square-dtmb\""), "{json}");
    assert!(json.contains("square-stripes/batched-sweep"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_json_quick_writes_valid_report() {
    let dir = std::env::temp_dir().join(format!("dmfb-bench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dmfb(&[
        "bench",
        "--quick",
        "--json",
        "--out",
        dir.to_str().unwrap(),
        "--label",
        "smoke",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("point-trials/s"), "table missing:\n{text}");
    assert!(
        text.contains("dtmb26/incremental") && text.contains("dtmb44/batched-sweep"),
        "workloads missing:\n{text}"
    );
    let report_path = dir.join("BENCH_smoke.json");
    assert!(
        text.contains("BENCH_smoke.json"),
        "path not echoed:\n{text}"
    );
    let json = std::fs::read_to_string(&report_path).expect("report file written");
    for key in [
        "\"schema\":\"dmfb-bench/1\"",
        "\"label\":\"smoke\"",
        "\"entries\":[",
        "\"trials_per_sec\":",
        "\"yield_estimate\":",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn assay_yield_reports_three_tiers() {
    let out = dmfb(&[
        "yield",
        "--scheme",
        "hex-dtmb",
        "--assay",
        "ivd-panel",
        "--p",
        "0.95",
        "--trials",
        "200",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("raw yield"), "report missing:\n{text}");
    assert!(
        text.contains("reconfigured yield"),
        "report missing:\n{text}"
    );
    assert!(
        text.contains("operational yield"),
        "report missing:\n{text}"
    );
    assert!(text.contains("ivd-panel"), "panel label missing:\n{text}");
    // Parse the three points and check the tier ordering.
    let point = |name: &str| -> f64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("line '{name}' missing:\n{text}"))
            .split(':')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let raw = point("raw yield");
    let rec = point("reconfigured yield");
    let op = point("operational yield");
    assert!(op <= rec, "operational {op} > reconfigured {rec}");
    assert!(raw <= rec, "raw {raw} > reconfigured {rec}");
    assert!(rec > raw, "three tiers should be distinct at p = 0.95");
}

#[test]
fn assay_results_are_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = dmfb(&[
            "yield",
            "--assay",
            "metabolic-panel",
            "--trials",
            "150",
            "--seed",
            "11",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "threads={threads} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let one = run("1");
    assert_eq!(one, run("2"), "--threads 2 must match --threads 1");
    assert_eq!(one, run("0"), "--threads 0 (auto) must match --threads 1");
}

#[test]
fn assay_sweep_emits_three_tier_csv() {
    let out = dmfb(&[
        "sweep",
        "--assay",
        "ivd-panel",
        "--from",
        "0.92",
        "--to",
        "1.0",
        "--steps",
        "3",
        "--trials",
        "150",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("p,raw,reconfigured,operational,op_ci_lo,op_ci_hi")
    );
    let mut rows = 0;
    for line in lines {
        let cols: Vec<f64> = line.split(',').map(|c| c.parse().unwrap()).collect();
        assert_eq!(cols.len(), 6, "bad row: {line}");
        let (raw, rec, op) = (cols[1], cols[2], cols[3]);
        assert!(op <= rec, "operational above reconfigured in: {line}");
        assert!(raw <= rec, "raw above reconfigured in: {line}");
        rows += 1;
    }
    assert_eq!(rows, 3);
    // p = 1.0: all three tiers at 1.
    assert!(text
        .lines()
        .last()
        .unwrap()
        .starts_with("1.0000,1.0000,1.0000,1.0000"));
}

#[test]
fn assay_rejections_cover_every_command() {
    // Non-hex schemes cannot carry the assay workload.
    let out = dmfb(&["yield", "--scheme", "square-dtmb", "--assay", "ivd-panel"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--assay requires --scheme hex-dtmb"));
    // The assay chip is fixed: array-shaping sub-parameters are rejected.
    let out = dmfb(&["yield", "--assay", "ivd-panel", "--primaries", "60"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("fixes the chip"));
    // Commands without an assay mode say so instead of ignoring the flag.
    for cmd in ["faults", "render", "assay", "profile"] {
        let out = dmfb(&[cmd, "--assay", "ivd-panel"]);
        assert!(!out.status.success(), "{cmd} must reject --assay");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("yield, sweep and bench"),
            "{cmd} stderr:\n{err}"
        );
    }
    // Sweep-only modifiers that conflict with the assay engine.
    for flag in ["--batched", "--effective"] {
        let out = dmfb(&["sweep", "--assay", "ivd-panel", flag]);
        assert!(!out.status.success(), "{flag} must be rejected");
    }
    // Unknown panels list the valid choices.
    let out = dmfb(&["yield", "--assay", "nope"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("ivd-panel") && err.contains("metabolic-panel"));
}

#[test]
fn bench_assay_records_operational_columns() {
    let dir = std::env::temp_dir().join(format!("dmfb-bench-assay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // One thread, as the committed baseline is recorded: the suite runs
    // for seconds beside the other smoke tests, and on a small host a
    // multi-threaded run would crowd out the timing-sensitive
    // `bench_compare_gates_on_committed_baselines`.
    let out = dmfb(&[
        "bench",
        "--quick",
        "--json",
        "--threads",
        "1",
        "--assay",
        "ivd-panel",
        "--out",
        dir.to_str().unwrap(),
        "--label",
        "assay-smoke",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("ivd-panel/operational-point")
            && text.contains("ivd-panel/operational-sweep"),
        "workloads missing:\n{text}"
    );
    let json = std::fs::read_to_string(dir.join("BENCH_assay-smoke.json")).expect("report written");
    assert!(json.contains("\"assay\":\"ivd-panel\""), "{json}");
    assert!(json.contains("\"operational_yield\":0"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stratified_yield_reports_rare_event_bookkeeping() {
    let out = dmfb(&[
        "yield",
        "--design",
        "dtmb26",
        "--primaries",
        "60",
        "--p",
        "0.999",
        "--estimator",
        "stratified",
        "--trials",
        "500",
        "--seed",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("strata"), "strata count missing:\n{text}");
    assert!(text.contains("effective samples"), "{text}");
    assert!(text.contains("truncated mass"), "{text}");
}

#[test]
fn stratified_sweep_is_thread_invariant_and_carries_new_columns() {
    let run = |threads: &str| {
        let out = dmfb(&[
            "sweep",
            "--design",
            "dtmb26",
            "--primaries",
            "60",
            "--from",
            "0.99",
            "--to",
            "1.0",
            "--steps",
            "3",
            "--estimator",
            "stratified",
            "--trials",
            "400",
            "--seed",
            "5",
            "--threads",
            threads,
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let one = run("1");
    assert!(
        one.starts_with("p,yield,ci_lo,ci_hi,std_err,eff_samples"),
        "{one}"
    );
    assert_eq!(one, run("0"), "--threads 0 must be byte-identical");
    assert_eq!(one, run("3"), "--threads 3 must be byte-identical");
}

#[test]
fn clustered_defect_model_runs_on_every_scheme() {
    // Hex.
    let out = dmfb(&[
        "yield",
        "--design",
        "dtmb26",
        "--primaries",
        "60",
        "--defect-model",
        "clustered",
        "--cluster-mean",
        "2",
        "--trials",
        "300",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("clustered"), "{text}");
    assert!(text.contains("expected failures/chip"), "{text}");
    // Square scheme through the generic engine.
    let out = dmfb(&[
        "yield",
        "--scheme",
        "square-dtmb",
        "--pattern",
        "checkerboard",
        "--defect-model",
        "clustered",
        "--trials",
        "300",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Assay (three tiers under clustered defects).
    let out = dmfb(&[
        "yield",
        "--assay",
        "ivd-panel",
        "--defect-model",
        "clustered",
        "--trials",
        "100",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("operational yield"), "{text}");
}

#[test]
fn estimator_and_model_flags_reject_foreign_parameters() {
    for (args, needle) in [
        (
            vec!["yield", "--tolerance", "0.1"],
            "--tolerance requires --estimator stratified",
        ),
        (
            vec!["yield", "--cluster-radius", "3"],
            "requires --defect-model clustered",
        ),
        (
            vec![
                "yield",
                "--estimator",
                "stratified",
                "--defect-model",
                "clustered",
            ],
            "cannot run under --defect-model clustered",
        ),
        (
            vec!["sweep", "--defect-model", "clustered"],
            "no survival probability to sweep",
        ),
        (
            vec!["sweep", "--estimator", "stratified", "--batched"],
            "--batched does not apply with --estimator stratified",
        ),
        (
            vec!["faults", "--casestudy", "--estimator", "stratified"],
            "yield and sweep only",
        ),
        (
            vec!["bench", "--estimator", "stratified"],
            "not supported by bench",
        ),
        (
            vec!["yield", "--defect-model", "clustered", "--p", "0.9"],
            "--p does not apply",
        ),
        (vec!["yield", "--estimator", "bogus"], "unknown estimator"),
        (
            vec!["yield", "--defect-model", "bogus"],
            "unknown defect model",
        ),
    ] {
        let out = dmfb(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{args:?}: stderr {err}");
    }
}

#[test]
fn bench_compare_gates_on_committed_baselines() {
    let dir = std::env::temp_dir().join(format!("dmfb-bench-compare-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Produce a baseline with the cheap spare-rows suite, then compare a
    // fresh identical run against it: same machine, same workloads — the
    // gate must pass.
    let out = dmfb(&[
        "bench",
        "--quick",
        "--json",
        "--scheme",
        "spare-rows",
        "--out",
        dir.to_str().unwrap(),
        "--label",
        "compare-base",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = dir.join("BENCH_compare-base.json");
    let out = dmfb(&[
        "bench",
        "--quick",
        "--scheme",
        "spare-rows",
        "--compare",
        baseline.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "gate must pass on a same-machine rerun; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("perf gate passed"), "{text}");
    assert!(text.contains("machine factor"), "{text}");
    // Comparing the wrong scheme's run against the baseline loses every
    // baseline workload: the gate must fail non-zero.
    let out = dmfb(&[
        "bench",
        "--quick",
        "--scheme",
        "square-dtmb",
        "--compare",
        baseline.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "vanished workloads must fail the gate"
    );
    // A missing baseline file is a clean error.
    let out = dmfb(&["bench", "--quick", "--compare", "/nonexistent/base.json"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read baseline"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_rejects_a_missing_out_directory_before_running() {
    let dir = std::env::temp_dir().join(format!("dmfb-bench-missing-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for extra in [&[][..], &["--compare", "benchmarks/BENCH_serve.json"][..]] {
        let mut args = vec!["bench", "--quick", "--json", "--out", dir];
        args.extend_from_slice(extra);
        let out = dmfb(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "the suite must not run: {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(dir) && !err.contains("panicked"), "{err}");
    }
}

#[test]
fn bench_json_records_estimator_columns() {
    let dir = std::env::temp_dir().join(format!("dmfb-bench-est-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dmfb(&[
        "bench",
        "--quick",
        "--json",
        "--out",
        dir.to_str().unwrap(),
        "--label",
        "est-smoke",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("BENCH_est-smoke.json")).unwrap();
    assert!(json.contains("\"estimator\":\"stratified\""), "{json}");
    assert!(json.contains("\"estimator\":\"naive\""), "{json}");
    assert!(json.contains("\"defect_model\":\"bernoulli\""), "{json}");
    assert!(json.contains("rare-stratified"), "{json}");
    assert!(json.contains("\"effective_samples\":"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}
