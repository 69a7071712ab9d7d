//! The `reproduce` command line: a mistyped flag or table name must fail
//! loudly, and so must a benchmark document that cannot be written — CI
//! gates on the exit status.

use std::process::Command;

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

#[test]
fn unknown_arguments_print_usage_and_exit_2() {
    for bogus in ["--smok", "table-3-9", "--json2x"] {
        let out = reproduce().arg(bogus).output().expect("reproduce runs");
        assert_eq!(out.status.code(), Some(2), "{bogus} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: reproduce"), "{bogus}: {err}");
        assert!(out.stdout.is_empty(), "{bogus} printed a report");
    }
}

#[test]
fn unwritable_bench_file_fails_the_run() {
    // A directory where BENCH_2.json should go makes the write fail.
    let dir = std::env::temp_dir().join(format!("reproduce-cli-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("BENCH_2.json")).expect("scratch dir");
    let out = reproduce()
        .arg("--json2")
        .current_dir(&dir)
        .output()
        .expect("reproduce runs");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("could not write BENCH_2.json"));
}
