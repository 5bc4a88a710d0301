//! `branchlabd`'s command line: `--help`/`-h` print the usage on
//! stdout and exit 0 without binding; each bad-input row exits 2,
//! names the offending flag on stderr and does not panic.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_branchlabd");

/// Run the daemon with `args`, killing it if it has not exited within
/// a minute (a row that is not rejected would boot and serve).
fn run(args: &[&str]) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn branchlabd");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill child");
            panic!("branchlabd {args:?} did not exit; it got past argument parsing");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for help in ["--help", "-h"] {
        let out = run(&["--listen", "127.0.0.1:0", help]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{help}");
        assert!(stdout.starts_with("usage: branchlabd "), "{stdout}");
        for flag in ["--listen", "--spill-dir", "--chaos-spill-fail-rate"] {
            assert!(stdout.contains(flag), "{flag} missing from {stdout}");
        }
        assert!(out.stderr.is_empty(), "--help must not boot the server");
    }
}

#[test]
fn bad_input_exits_2_naming_the_flag() {
    let rows: [(&[&str], &str); 7] = [
        (&["--no-such-flag"], "--no-such-flag"),
        (&["--workers", "2", "--seed"], "--seed"),
        (&["--workers", "many"], "--workers"),
        (&["--chaos-panic-rate", "2"], "--chaos-panic-rate"),
        (
            &["--chaos-spill-fail-rate", "-0.5"],
            "--chaos-spill-fail-rate",
        ),
        (&["--scale", "huge"], "--scale"),
        (&["--warm", ","], "--warm"),
    ];
    for (args, flag) in rows {
        let out = run(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("branchlabd: ") && stderr.contains(flag),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: branchlabd "), "{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
