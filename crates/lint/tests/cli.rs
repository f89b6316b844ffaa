//! The `peercache-lint` binary's command-line contract: it takes no
//! arguments, and every run runs all ten rules and reports each of them.

use std::process::{Command, Output};

const ALL_RULES: [&str; 10] = ["D1", "D2", "P1", "N1", "O1", "S1", "U1", "T1", "C1", "A1"];

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_peercache-lint"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("peercache-lint runs")
}

#[test]
fn any_argument_is_a_usage_error() {
    for args in [
        &["--deep"][..],
        &["--json"],
        &["--budget-ms", "5000"],
        &["--help"],
        &["crates"],
    ] {
        let out = lint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage error"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run the lint");
    }
}

/// One row per rule, and every `[[waiver]]` entry matched: the semantic
/// rules' waivers included, so a T1 waiver that matches nothing is stale
/// on every run.
#[test]
fn a_plain_run_reports_every_rule_and_matches_every_waiver() {
    let out = lint(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut waived = 0usize;
    for rule in ALL_RULES {
        let rows: Vec<Vec<&str>> = stdout
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|cols| cols.first() == Some(&rule))
            .collect();
        assert_eq!(rows.len(), 1, "one summary row for {rule}:\n{stdout}");
        let counts: Vec<usize> = rows[0][1..]
            .iter()
            .map(|c| c.parse().expect("numeric column"))
            .collect();
        let [total, w, open] = counts[..] else {
            panic!("{rule}: expected total, waived, open: {:?}", rows[0]);
        };
        assert_eq!(total, w + open, "{rule}: {:?}", rows[0]);
        waived += w;
    }
    let waivers = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../lint-waivers.toml"
    ))
    .expect("lint-waivers.toml");
    let entries = waivers.lines().filter(|l| l.trim() == "[[waiver]]").count();
    assert_eq!(
        waived, entries,
        "every waiver must match a finding:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!(", {entries} waived,")),
        "summary line reports the waived count:\n{stdout}"
    );
}
