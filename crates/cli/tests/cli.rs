//! End-to-end tests of the `ridfa` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn ridfa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ridfa"))
}

#[test]
fn help_prints_usage() {
    let out = ridfa().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("recognize"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = ridfa().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("USAGE"));
}

#[test]
fn gen_prints_nfa_text() {
    let out = ridfa()
        .args(["gen", "--regex", "(a|b)*abb"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("nfa "));
    assert!(text.contains("end"));
}

#[test]
fn info_reports_interface_reduction() {
    let out = ridfa()
        .args(["info", "--regex", "[ab]*a[ab]{6}"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("minimal DFA  : 128 live states"), "{text}");
    assert!(text.contains("interface"), "{text}");
}

#[test]
fn recognize_accepts_and_rejects_via_exit_code() {
    for (input, expect_ok) in [("aabb", true), ("ba", false)] {
        let mut child = ridfa()
            .args([
                "recognize",
                "--regex",
                "(a|b)*abb",
                "--text",
                "-",
                "--chunks",
                "2",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let status = child.wait().unwrap();
        assert_eq!(status.success(), expect_ok, "input {input:?}");
    }
}

#[test]
fn drive_compares_all_variants() {
    let mut child = ridfa()
        .args(["drive", "--regex", "(xy)*", "--text", "-", "--chunks", "3"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"xyxyxyxy")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("dfa:"), "{text}");
    assert!(text.contains("nfa:"), "{text}");
    assert!(text.contains("rid:"), "{text}");
}

#[test]
fn gen_roundtrip_through_file() {
    let dir = std::env::temp_dir().join(format!("ridfa-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let nfa_path = dir.join("machine.nfa");
    let status = ridfa()
        .args(["gen", "--regex", "a+b", "--out", nfa_path.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    let text_path = dir.join("input.txt");
    std::fs::write(&text_path, "aaab").unwrap();
    let status = ridfa()
        .args([
            "recognize",
            "--nfa",
            nfa_path.to_str().unwrap(),
            "--text",
            text_path.to_str().unwrap(),
        ])
        .status()
        .unwrap();
    assert!(status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_regex_reports_error() {
    let out = ridfa().args(["info", "--regex", "(a"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("error"));
}

#[test]
fn flag_value_cannot_be_another_flag() {
    // Regression: `--text --variant rid` used to silently read a file
    // named "--variant". It must now demand a value for --text.
    let out = ridfa()
        .args(["recognize", "--regex", "a*", "--text", "--variant", "rid"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--text requires a value"), "{err}");
}

#[test]
fn malformed_number_is_rejected() {
    // Regression: `--chunks abc` used to fall back to the default
    // silently.
    for (flag, value) in [("--chunks", "abc"), ("--threads", "4x"), ("--chunks", "-1")] {
        let mut child = ridfa()
            .args(["recognize", "--regex", "a*", "--text", "-", flag, value])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.as_mut().unwrap().write_all(b"aaa").unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(!out.status.success(), "{flag} {value}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("invalid value"), "{flag} {value}: {err}");
    }
}

#[test]
fn stray_positional_argument_is_rejected() {
    let out = ridfa()
        .args(["recognize", "--regex", "a*", "input.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unexpected argument"), "{err}");
}

#[test]
fn convergent_variants_recognize() {
    for variant in ["convergent-dfa", "convergent-rid"] {
        for (input, expect_ok) in [("aabb", true), ("ba", false)] {
            let mut child = ridfa()
                .args([
                    "recognize",
                    "--regex",
                    "(a|b)*abb",
                    "--text",
                    "-",
                    "--variant",
                    variant,
                    "--chunks",
                    "3",
                ])
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap();
            child
                .stdin
                .as_mut()
                .unwrap()
                .write_all(input.as_bytes())
                .unwrap();
            let status = child.wait().unwrap();
            assert_eq!(status.success(), expect_ok, "{variant} on {input:?}");
        }
    }
}

#[test]
fn pooled_recognition_matches_spawned() {
    for pool in [false, true] {
        for (input, expect_ok) in [("abababaabb", true), ("abba", false)] {
            let mut args = vec![
                "recognize",
                "--regex",
                "(a|b)*abb",
                "--text",
                "-",
                "--chunks",
                "4",
                "--threads",
                "3",
            ];
            if pool {
                args.push("--pool");
            }
            let mut child = ridfa()
                .args(&args)
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap();
            child
                .stdin
                .as_mut()
                .unwrap()
                .write_all(input.as_bytes())
                .unwrap();
            let status = child.wait().unwrap();
            assert_eq!(status.success(), expect_ok, "pool={pool} input={input:?}");
        }
    }
}

#[test]
fn drive_includes_convergent_variants() {
    let mut child = ridfa()
        .args(["drive", "--regex", "(xy)*", "--text", "-", "--chunks", "3"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"xyxyxy").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("dfa+conv:"), "{text}");
    assert!(text.contains("rid+conv:"), "{text}");
}

/// Two handwritten records conforming to the `workloads::traffic`
/// grammar (month, day, time, host, daemon[pid], src/dst/len, message).
const SYSLOG: &str =
    "Jan  1 00:00:00 host1 sshd[123]: src=1.2.3.4 dst=5.6.7.8 len=100 hello world\n\
                      Feb 12 23:59:59 host42 nginx[9]: src=10.0.0.1 dst=10.0.0.2 len=1 x\n";

#[test]
fn stream_recognize_accepts_and_rejects_from_stdin() {
    // (input, expect_ok): the corrupted variant malforms the first month.
    let corrupted = SYSLOG.replacen("Jan", "Xxx", 1);
    for (input, expect_ok) in [(SYSLOG.to_string(), true), (corrupted, false)] {
        let mut child = ridfa()
            .args([
                "recognize",
                "--workload",
                "traffic",
                "--stream",
                "--block-size",
                "32",
                "--text",
                "-",
                "--threads",
                "2",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.success(), expect_ok, "input {input:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("streamed"), "{text}");
    }
}

#[test]
fn every_variant_runs_through_every_command() {
    let records = SYSLOG.repeat(8);
    let corrupted = records.replacen("Jan", "Xxx", 1);
    for variant in ["dfa", "nfa", "rid", "convergent-dfa", "convergent-rid"] {
        for stream in [&[][..], &["--stream", "--block-size", "64"][..]] {
            for (input, code, verdict) in [(&records, 0, "ACCEPTED"), (&corrupted, 1, "REJECTED")] {
                let mut child = ridfa()
                    .args(["recognize", "--workload", "traffic", "--text", "-"])
                    .args(["--chunks", "3", "--threads", "2", "--variant", variant])
                    .args(stream)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::piped())
                    .spawn()
                    .unwrap();
                child
                    .stdin
                    .as_mut()
                    .unwrap()
                    .write_all(input.as_bytes())
                    .unwrap();
                let out = child.wait_with_output().unwrap();
                let text = String::from_utf8(out.stdout).unwrap();
                let err = String::from_utf8(out.stderr).unwrap();
                assert_eq!(
                    out.status.code(),
                    Some(code),
                    "{variant} {stream:?}: {text}{err}"
                );
                assert!(text.contains(verdict), "{variant} {stream:?}: {text}");
            }
        }
        for (args, needle) in [
            (
                &["serve", "--requests", "16", "--len", "256"][..],
                "serve: 16 texts OK",
            ),
            (
                &[
                    "serve",
                    "--stream",
                    "--bytes",
                    "65536",
                    "--block-size",
                    "4096",
                ][..],
                "serve --stream: OK",
            ),
        ] {
            let out = ridfa()
                .args(args)
                .args(["--threads", "2", "--variant", variant])
                .output()
                .unwrap();
            let text = String::from_utf8(out.stdout).unwrap();
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(out.status.success(), "{variant} {args:?}: {text}{err}");
            assert!(text.contains(needle), "{variant} {args:?}: {text}");
        }
    }
}

#[test]
fn stream_recognize_reads_files_without_loading() {
    let dir = std::env::temp_dir().join(format!("ridfa-stream-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("records.log");
    std::fs::write(&path, SYSLOG.repeat(64)).unwrap();
    let out = ridfa()
        .args([
            "recognize",
            "--workload",
            "traffic",
            "--stream",
            "--block-size",
            "256",
            "--text",
            path.to_str().unwrap(),
            "--variant",
            "convergent-rid",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("ACCEPTED"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stream_rejects_pool_flag() {
    let out = ridfa()
        .args([
            "recognize",
            "--regex",
            "a*",
            "--stream",
            "--pool",
            "--text",
            "-",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--stream"), "{err}");
}

#[test]
fn serve_stream_validates_a_generated_pipe() {
    let out = ridfa()
        .args([
            "serve",
            "--stream",
            "--bytes",
            "200000",
            "--block-size",
            "8192",
            "--threads",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("serve --stream: OK"), "{text}");
    assert!(text.contains("rejected"), "{text}");
}

#[test]
fn recognize_reports_effective_executor() {
    // The outcome line must say which executor shape actually ran —
    // pooled when --pool, the spawning team otherwise.
    for (pool, needle) in [(true, "via Pooled"), (false, "via Team")] {
        let mut args = vec![
            "recognize",
            "--regex",
            "a*",
            "--text",
            "-",
            "--threads",
            "2",
        ];
        if pool {
            args.push("--pool");
        }
        let mut child = ridfa()
            .args(&args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child.stdin.as_mut().unwrap().write_all(b"aaa").unwrap();
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "pool={pool}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(needle), "pool={pool}: {text}");
    }
}

#[test]
fn serve_batch_mode_reports_throughput() {
    for mode in [&["--no-pool"][..], &[][..]] {
        let out = ridfa()
            .args([
                "serve",
                "--requests",
                "24",
                "--len",
                "512",
                "--threads",
                "2",
                "--chunks",
                "2",
            ])
            .args(mode)
            .output()
            .unwrap();
        assert!(out.status.success(), "mode {mode:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("texts/s"), "{text}");
        assert!(text.contains("24 texts OK"), "{text}");
    }
}

#[test]
fn exit_codes_distinguish_rejection_usage_and_io() {
    // Rejected text is exit 1, exactly.
    let mut child = ridfa()
        .args(["recognize", "--regex", "(a|b)*abb", "--text", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"ba").unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(1));

    // Configuration errors are exit 2.
    let out = ridfa()
        .args([
            "recognize",
            "--regex",
            "a*",
            "--variant",
            "bogus",
            "--text",
            "-",
        ])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown variant");

    // Reader/filesystem failures are exit 3.
    let out = ridfa()
        .args([
            "recognize",
            "--regex",
            "a*",
            "--text",
            "/nonexistent/input.txt",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "missing file");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("/nonexistent/input.txt"), "{err}");
}

#[test]
fn expired_timeout_exits_with_deadline_code() {
    // --timeout-ms 0 is a pre-expired deadline: deterministic exit 4,
    // one-line message, never a verdict.
    for extra in [
        &[][..],
        &["--pool"][..],
        &["--stream", "--block-size", "64"][..],
    ] {
        let mut child = ridfa()
            .args([
                "recognize",
                "--regex",
                "(a|b)*abb",
                "--text",
                "-",
                "--timeout-ms",
                "0",
            ])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.as_mut().unwrap().write_all(b"aabb").unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(4), "{extra:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("deadline"), "{extra:?}: {err}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            !text.contains("ACCEPTED") && !text.contains("REJECTED"),
            "{text}"
        );
    }
}

#[test]
fn generous_timeout_still_recognizes() {
    for (input, code) in [("aabb", 0), ("ba", 1)] {
        let mut child = ridfa()
            .args([
                "recognize",
                "--regex",
                "(a|b)*abb",
                "--text",
                "-",
                "--timeout-ms",
                "60000",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
        assert_eq!(child.wait().unwrap().code(), Some(code), "input {input:?}");
    }
}

#[test]
fn exhausted_state_budget_exits_with_budget_code() {
    // [ab]*a[ab]{12} needs 2^13 DFA states; a cap of 64 must fail typed
    // (exit 5) for every construction the variants reach.
    for variant in ["dfa", "rid"] {
        let mut child = ridfa()
            .args([
                "recognize",
                "--regex",
                "[ab]*a[ab]{12}",
                "--text",
                "-",
                "--variant",
                variant,
                "--max-states",
                "64",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        child.stdin.as_mut().unwrap().write_all(b"ab").unwrap();
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(5), "{variant}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("error"), "{variant}: {err}");
    }
    // Within the cap, recognition proceeds normally.
    let mut child = ridfa()
        .args([
            "recognize",
            "--regex",
            "(a|b)*abb",
            "--text",
            "-",
            "--max-states",
            "4096",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    child.stdin.as_mut().unwrap().write_all(b"aabb").unwrap();
    assert_eq!(child.wait().unwrap().code(), Some(0));
}

#[test]
fn info_honors_max_states() {
    let out = ridfa()
        .args(["info", "--regex", "[ab]*a[ab]{12}", "--max-states", "64"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5));
}

#[test]
fn compile_resolves_the_engine_under_a_state_cap() {
    // [ab]*a[ab]{6}: a 137-state RI-DFA whose SFA has 256 states.
    let dir = std::env::temp_dir().join(format!("ridfa-compile-engine-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("mask.rida");
    let compile = |args: &[&str]| {
        ridfa()
            .args(["compile", "--regex", "[ab]*a[ab]{6}", "--out"])
            .arg(&out)
            .args(args)
            .output()
            .unwrap()
    };
    // An explicit SFA request surfaces the budget trip (exit 5) ...
    let sfa = compile(&["--engine", "sfa", "--max-states", "200"]);
    assert_eq!(sfa.status.code(), Some(5));
    // ... while Auto falls back to lockstep under the same cap ...
    let capped = compile(&["--engine", "auto", "--max-states", "200"]);
    assert_eq!(capped.status.code(), Some(0));
    let text = String::from_utf8(capped.stdout).unwrap();
    assert!(text.contains("compile: engine lockstep"), "{text}");
    // ... and picks the SFA when nothing caps it.
    let auto = compile(&["--engine", "auto"]);
    assert_eq!(auto.status.code(), Some(0));
    let text = String::from_utf8(auto.stdout).unwrap();
    assert!(
        text.contains("engine sfa, 256 SFA function states"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
