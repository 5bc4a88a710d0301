//! The command line of every bench binary: `--help`/`-h` print the
//! usage on stdout and exit 0; each bad-input row exits 2, names the
//! offending flag on stderr and does not panic. Every row is rejected
//! while parsing, before any benchmark runs, and the binaries run one
//! at a time.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The twelve bench binaries and whether they take the suite's
/// `--fault-*` rate flags.
const BINS: [(&str, &str, bool); 12] = [
    ("table1", env!("CARGO_BIN_EXE_table1"), true),
    ("table2", env!("CARGO_BIN_EXE_table2"), true),
    ("table3", env!("CARGO_BIN_EXE_table3"), true),
    ("table4", env!("CARGO_BIN_EXE_table4"), true),
    ("table5", env!("CARGO_BIN_EXE_table5"), true),
    ("fig3", env!("CARGO_BIN_EXE_fig3"), true),
    ("fig4", env!("CARGO_BIN_EXE_fig4"), true),
    ("report", env!("CARGO_BIN_EXE_report"), true),
    ("ablation", env!("CARGO_BIN_EXE_ablation"), false),
    ("replay_bench", env!("CARGO_BIN_EXE_replay_bench"), false),
    ("btb_bench", env!("CARGO_BIN_EXE_btb_bench"), false),
    ("serve_bench", env!("CARGO_BIN_EXE_serve_bench"), false),
];

/// Run `path` with `args`, killing it if it has not exited within a
/// minute (a row that is not rejected would start real work).
fn run(path: &str, args: &[&str]) -> Output {
    let mut child = Command::new(path)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill child");
            panic!("{path} {args:?} did not exit; it got past argument parsing");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

/// A count flag each binary takes.
fn count_flag(name: &str) -> &'static str {
    match name {
        "btb_bench" => "--seed",
        "serve_bench" => "--requests",
        _ => "--sweep-threads",
    }
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for (name, path, _) in BINS {
        for help in ["--help", "-h"] {
            let out = run(path, &[help]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {help}");
            assert!(
                stdout.starts_with(&format!("usage: {name} ")),
                "{name}: {stdout}"
            );
            assert!(stdout.contains("--scale") && stdout.contains("2 usage error"));
            assert!(out.stderr.is_empty(), "{name} {help} wrote to stderr");
        }
    }
}

#[test]
fn bad_input_exits_2_naming_the_flag() {
    for (name, path, rates) in BINS {
        let count = count_flag(name);
        let mut rows: Vec<(Vec<&str>, &str)> = vec![
            (vec!["--no-such-flag"], "--no-such-flag"),
            (vec!["--scale", "test", "--seed"], "--seed"),
            (vec![count, "many"], count),
            (vec!["--scale", "huge"], "--scale"),
        ];
        if rates {
            rows.push((vec!["--fault-exec-rate", "2"], "--fault-exec-rate"));
        }
        if matches!(name, "replay_bench" | "btb_bench" | "serve_bench") {
            // Benchmark names are checked while parsing, not mid-run.
            rows.push((vec!["--benches", "nosuch"], "`nosuch`"));
            rows.push((vec!["--benches", "wc,nosuch"], "`nosuch`"));
        }
        for (args, flag) in rows {
            let out = run(path, &args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("{name}: ")) && stderr.contains(flag),
                "{name} {args:?}: {stderr}"
            );
            assert!(stderr.contains(&format!("usage: {name} ")), "{stderr}");
            assert!(!stderr.contains("panicked"), "{name} {args:?}: {stderr}");
        }
    }
}

#[test]
fn ablation_rejects_the_suite_flags_it_would_ignore() {
    let path = env!("CARGO_BIN_EXE_ablation");
    for args in [
        &["--telemetry-out", "dir"][..],
        &["--no-verify"],
        &["--max-attempts", "2"],
        &["--backoff-ms", "1"],
        &["--watchdog-ms", "1"],
        &["--checkpoint", "ck.jsonl"],
        &["--resume"],
        &["--fault-exec-rate", "0.5"],
        &["--fault-panic-rate", "0.5"],
        &["--fault-delay-rate", "0.5"],
        &["--fault-delay-ms", "1"],
        &["--fault-seed", "1"],
        &["--fault-benches", "wc"],
    ] {
        let out = run(path, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument `{}`", args[0])),
            "{stderr}"
        );
    }
}
