//! The `exhibits` binary's command line: a name that is no exhibit is
//! refused before anything runs.

use std::process::Command;

#[test]
fn an_unknown_exhibit_is_refused_before_any_exploration() {
    let out = Command::new(env!("CARGO_BIN_EXE_exhibits"))
        .args(["table3", "nosuch", "--fast"])
        .output()
        .expect("the exhibits binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`nosuch`"), "{stderr}");
    assert!(!stderr.contains("running the"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
