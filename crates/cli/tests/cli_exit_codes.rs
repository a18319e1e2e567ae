//! The CLI's exit-code contract: `0` success, `2` usage error (with usage
//! text), `3` file I/O failure, `4` invalid input content. Scripts branch
//! on these, so each class is pinned cross-process here — most of these
//! invocations used to exit `1` (or worse, `0`) before the classification
//! existed.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Run the binary, returning (exit code, stdout, stderr).
fn bclean(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bclean"))
        .args(args)
        .output()
        .expect("the bclean binary must launch");
    (
        output.status.code().expect("not signal-killed"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Run the binary with stdout, and stderr too when `close_stderr`, writing
/// into pipes whose read ends are already closed — what `bclean … | head -1`
/// meets once `head` has exited. Returns the exit code.
fn bclean_into_closed_pipes(args: &[&str], close_stderr: bool) -> i32 {
    let closed_pipe = || {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        Stdio::from(writer)
    };
    let stderr = if close_stderr { closed_pipe() } else { Stdio::null() };
    let status = Command::new(env!("CARGO_BIN_EXE_bclean"))
        .args(args)
        .stdout(closed_pipe())
        .stderr(stderr)
        .status()
        .expect("the bclean binary must launch");
    status.code().expect("not signal-killed")
}

fn assert_code(args: &[&str], expected: i32) -> String {
    let (code, stdout, stderr) = bclean(args);
    assert_eq!(code, expected, "bclean {args:?}\nstdout: {stdout}\nstderr: {stderr}");
    stderr
}

struct Workspace {
    dir: PathBuf,
}

impl Workspace {
    fn new(label: &str) -> Workspace {
        let dir = std::env::temp_dir().join(format!("bclean-exit-{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp workspace");
        Workspace { dir }
    }

    fn file(&self, name: &str, contents: &[u8]) -> String {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).expect("write fixture");
        path.display().to_string()
    }

    fn str(&self, name: &str) -> String {
        self.dir.join(name).display().to_string()
    }
}

impl Drop for Workspace {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

const TINY_CSV: &[u8] = b"City,State\nsylacauga,AL\nsylacauga,AL\nsylacauga,XX\ncentre,AL\ncentre,AL\n";

#[test]
fn success_and_help_exit_zero() {
    let (code, stdout, _) = bclean(&["--help"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("usage:"));
}

/// Output nobody reads any more is dropped quietly: the process exits with
/// the command's own code, not a panic's 101.
#[test]
fn closed_output_pipes_keep_the_commands_exit_code() {
    assert_eq!(bclean_into_closed_pipes(&["--help"], false), 0);
    assert_eq!(bclean_into_closed_pipes(&["fit", "x.csv", "--bogus"], true), 2);
}

#[test]
fn usage_errors_exit_2_and_print_usage() {
    let ws = Workspace::new("usage");
    let csv = ws.file("tiny.csv", TINY_CSV);
    let cases: &[&[&str]] = &[
        &[],                                                             // missing command
        &["frobnicate"],                                                 // unknown command
        &["fit"],                                                        // missing <data.csv>
        &["fit", &csv],                                                  // missing -o
        &["fit", &csv, "-o", &ws.str("m.bclean"), "--repairs", "r.csv"], // flag of another command
        &["fit", &csv, "-o"],                                            // flag without a value
        &["clean", &csv, "--threads", "many"],                           // unparsable value
        &["clean", &csv, "--bogus"],                                     // unknown flag
        &["clean", &csv, "--stream"],                                    // retired flag: clean always streams
        &["fit", &csv, "-o", "m.bclean", "--fit-sample", "100"],         // retired flag: one exact fit
        &["clean", &csv, "--sketch-budget", "64"],                       // retired flag: one exact fit
        &["ingest", &csv],                                               // missing -m
        &["inspect"],                                                    // missing path
        &["inspect", "a.bclean", "b.bclean"],                            // extra argument
        &["profile", "--verbose"],                                       // stray flag
        &["serve"],                                                      // missing -m
        &["serve", "-m", "m.bclean", "--workers", "0"],                  // zero workers
        &["serve", "-m", "m.bclean", "--addr"],                          // flag without a value
    ];
    for args in cases {
        let stderr = assert_code(args, 2);
        assert!(stderr.contains("usage:"), "bclean {args:?} printed no usage text:\n{stderr}");
    }
}

#[test]
fn conflicting_flags_exit_2_even_with_readable_inputs() {
    let ws = Workspace::new("conflict");
    let csv = ws.file("tiny.csv", TINY_CSV);
    let model = ws.str("tiny.bclean");
    assert_code(&["fit", &csv, "-o", &model], 0);
    // -m loads a persisted fit; fit-shaping flags alongside it must refuse,
    // not silently not apply.
    for extra in [["-c", "rules.bc"], ["--variant", "pip"]] {
        let stderr = assert_code(&["clean", &csv, "-m", &model, extra[0], extra[1]], 2);
        assert!(stderr.contains("no effect"), "expected a flag-conflict error:\n{stderr}");
    }
    assert_code(&["ingest", &csv, "-m", &model, "--threads", "2"], 2);
}

#[test]
fn io_failures_exit_3() {
    let ws = Workspace::new("io");
    let missing = ws.str("does-not-exist.csv");
    let stderr = assert_code(&["clean", &missing], 3);
    assert!(!stderr.contains("usage:"), "I/O errors must not bury themselves in usage text");
    assert_code(&["fit", &missing, "-o", &ws.str("m.bclean")], 3);
    assert_code(&["profile", &missing], 3);
    assert_code(&["inspect", &ws.str("does-not-exist.bclean")], 3);
    assert_code(&["serve", "-m", &ws.str("does-not-exist.bclean")], 3);
    // The input side is fine here; the output directory does not exist.
    let csv = ws.file("tiny.csv", TINY_CSV);
    assert_code(&["fit", &csv, "-o", &ws.str("no-such-dir/m.bclean")], 3);
}

#[test]
fn invalid_content_exits_4() {
    let ws = Workspace::new("content");
    let csv = ws.file("tiny.csv", TINY_CSV);

    // Not a .bclean container at all.
    let garbage = ws.file("garbage.bclean", b"definitely not a model artifact");
    assert_code(&["inspect", &garbage], 4);
    assert_code(&["clean", &csv, "-m", &garbage], 4);
    assert_code(&["serve", "-m", &garbage], 4);

    // A real model fed data of another schema.
    let model = ws.str("tiny.bclean");
    assert_code(&["fit", &csv, "-o", &model], 0);
    let drifted = ws.file("drifted.csv", b"Entirely,Other,Header\na,b,c\n");
    assert_code(&["clean", &drifted, "-m", &model], 4);
    assert_code(&["ingest", &drifted, "-m", &model], 4);

    // A corrupted container: the checksum rejects the content.
    let mut bytes = std::fs::read(&model).expect("model bytes");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    let corrupt = ws.file("corrupt.bclean", &bytes);
    assert_code(&["clean", &csv, "-m", &corrupt], 4);

    // An unparsable constraints file.
    let bad_spec = ws.file("bad.bc", b"City: pattern [unclosed\n");
    assert_code(&["fit", &csv, "-o", &ws.str("m2.bclean"), "-c", &bad_spec], 4);
}
