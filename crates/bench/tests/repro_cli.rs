//! Command-line contract of the `repro` binary: experiment lookup, usage
//! text and flag validation. Only cheap invocations; no scenario runs.

use std::process::{Command, Output};

/// The usage line's experiment list: every table row, in order, then `all`.
const EXPERIMENTS: &str = "[table2|table3|table4|fig11|fig12|overhead|ablations|density|isolation|chaos|trace|bench|elastic|netchaos|monitor|fuzz|all]";

/// Runs `repro` in a scratch directory, so any artifact it writes stays
/// out of the source tree.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("repro starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_experiment_exits_2_with_usage_naming_every_experiment() {
    let out = repro(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains("unknown experiment `no-such-experiment`"),
        "{err}"
    );
    let usage = err.lines().find(|l| l.starts_with("usage:")).expect(&err);
    assert!(usage.contains(EXPERIMENTS), "{usage}");
}

#[test]
fn malformed_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["table2", "--seed", "x"][..], "--seed"),
        (&["table2", "--tasks", "8"][..], "--tasks"),
        (&["fuzz", "--cases", "0"][..], "--cases"),
        (&["table2", "--json"][..], "--json"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        assert!(stderr(&out).contains(flag), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn table2_exits_0() {
    let out = repro(&["table2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("== Table 2"));
}
