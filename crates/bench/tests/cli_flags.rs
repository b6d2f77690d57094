//! `repro` refuses an argument it does not know instead of running the
//! subcommand without it.

use std::process::Command;

#[test]
fn misspelt_flag_is_exit_2_with_the_usage_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--quik"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"--quik\""), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "nothing ran");
}
