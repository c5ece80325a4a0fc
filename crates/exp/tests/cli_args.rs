//! Command-line arguments are external input: an argument that is not
//! valid UTF-8 is a usage error (exit 2), not a panic.

#[cfg(unix)]
#[test]
fn non_utf8_arguments_are_usage_errors() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;
    use std::process::{Command, Stdio};
    let bins = [
        env!("CARGO_BIN_EXE_lrc-soak"),
        env!("CARGO_BIN_EXE_lrc-bench"),
        env!("CARGO_BIN_EXE_lrc-exp"),
    ];
    for bin in bins {
        let out = Command::new(bin)
            .arg(OsStr::from_bytes(b"\xff"))
            .stdout(Stdio::null())
            .output()
            .expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        let named = stderr.contains(r#"argument "\xFF" is not valid UTF-8"#);
        assert!(named, "{bin} must name the argument: {stderr}");
    }
}

/// Flag values that used to panic, or to run a sweep that was vacuous or
/// wrong, and flags that used to be silently lost beside another: each
/// must be a usage error (exit 2) naming its flags, before any simulation
/// runs.
#[test]
fn bad_flag_values_are_usage_errors_naming_the_flag() {
    let exp = env!("CARGO_BIN_EXE_lrc-exp");
    let soak = env!("CARGO_BIN_EXE_lrc-soak");
    let cases: [(&str, &[&str], &str); 25] = [
        (exp, &["fig4", "--scale", "tiny", "--procs", "x"], "--procs"),
        (exp, &["fig4", "--scale", "tiny", "--threads", "x"], "--threads"),
        (exp, &["fig4", "--scale", "tiny", "--seeds", "x"], "--seeds"),
        (exp, &["fig4", "--scale", "tiny", "--timestamp", "x"], "--timestamp"),
        (exp, &["fig4", "--scale", "tiny", "--procs", "0"], "--procs"),
        (exp, &["fig4", "--scale", "tiny", "--procs", "300"], "--procs"),
        (soak, &["--smoke", "--quiet", "--procs", "0"], "--procs"),
        (soak, &["--smoke", "--quiet", "--procs", "300"], "--procs"),
        (soak, &["--smoke", "--quiet", "--seeds", "0"], "--seeds"),
        (soak, &["--smoke", "--quiet", "--phases", "0"], "--phases"),
        (soak, &["--smoke", "--quiet", "--rates", "nan"], "--rates"),
        (soak, &["--smoke", "--quiet", "--rates", "-1"], "--rates"),
        (soak, &["--smoke", "--quiet", "--rates", "0,2"], "--rates"),
        (soak, &["--availability", "--smoke", "--quiet", "--rates", "0,1.5"], "--rates"),
        (soak, &["--smoke", "--quiet", "--phases", "1001"], "--phases"),
        (soak, &["--races", "--availability", "--smoke"], "--availability conflicts with --races"),
        (
            soak,
            &["--capacity-sweep", "--availability", "--smoke"],
            "--availability conflicts with --capacity-sweep",
        ),
        (
            soak,
            &["--capacity-sweep", "--races", "--smoke"],
            "--races conflicts with --capacity-sweep",
        ),
        (
            soak,
            &["--capacity-sweep", "--smoke", "--rates", "0"],
            "--rates does not apply to --capacity-sweep",
        ),
        (soak, &["--races", "--smoke", "--rates", "0"], "--rates does not apply to --races"),
        (soak, &["--races", "--smoke", "--seeds", "2"], "--seeds does not apply to --races"),
        (soak, &["--races", "--smoke", "--phases", "2"], "--phases does not apply to --races"),
        (soak, &["--replay", "wedge.json", "--smoke"], "--replay conflicts with --smoke"),
        (soak, &["--races", "--replay", "wedge.json"], "--replay conflicts with --races"),
        (soak, &["--replay", "wedge.json", "--seeds", "2"], "--replay conflicts with --seeds"),
    ];
    for (bin, args, flag) in cases {
        let out = std::process::Command::new(bin).args(args).output().expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?} must name {flag}: {stderr}");
    }
}

/// Experiment ids are checked before any experiment runs: `table1 nope`
/// must exit 2 naming `nope` without printing Table 1 first.
#[test]
fn an_unknown_experiment_id_fails_before_any_experiment_runs() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lrc-exp"))
        .args(["table1", "nope"])
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.is_empty(), "no experiment may run: {stdout}");
    assert!(stderr.contains("unknown experiment 'nope'"), "{stderr}");
}
