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
/// wrong: each must be a usage error (exit 2) naming its flag, before any
/// simulation runs.
#[test]
fn bad_flag_values_are_usage_errors_naming_the_flag() {
    let exp = env!("CARGO_BIN_EXE_lrc-exp");
    let soak = env!("CARGO_BIN_EXE_lrc-soak");
    let cases: [(&str, &[&str], &str); 14] = [
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
    ];
    for (bin, args, flag) in cases {
        let out = std::process::Command::new(bin).args(args).output().expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(flag), "{bin} {args:?} must name {flag}: {stderr}");
    }
}
