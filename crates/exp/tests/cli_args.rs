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
