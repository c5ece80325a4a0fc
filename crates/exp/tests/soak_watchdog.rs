//! `lrc-soak --watchdog` bounds every cell's stalls in simulated time,
//! however few events the cell handles: a one-cycle horizon must fail the
//! `--smoke` sweep, whose cells are the shortest.

use std::process::{Command, Stdio};

#[test]
fn a_one_cycle_horizon_fails_the_smoke_sweep() {
    let dir = std::env::temp_dir().join(format!("lrc-soak-watchdog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lrc-soak"))
        .args(["--smoke", "--watchdog", "1", "--checkpoint-dir", "journal"])
        .current_dir(&dir)
        .stdout(Stdio::null())
        .output()
        .expect("lrc-soak starts");
    let report = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{report}");
    assert!(report.contains("wedged: watchdog:"), "{report}");
    std::fs::remove_dir_all(&dir).unwrap();
}
