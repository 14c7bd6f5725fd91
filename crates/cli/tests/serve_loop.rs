//! Regression tests for the `greduce serve` stdin loop: malformed
//! requests — blank lines, trailing whitespace, nonexistent paths,
//! sources that do not compile — must each be answered with a coded
//! `GR007` error line and must not end the session; requests after a bad
//! one are still served. Restarts over the `--cache` journal: a tail torn
//! by a kill mid-append is dropped silently, a corrupt record discards
//! the file once with `GR006`. The README's `greduce batch` walkthrough
//! prints what it shows.

use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};

fn write_src(dir: &std::path::Path, name: &str, src: &str) -> String {
    let p = dir.join(name);
    std::fs::write(&p, src).unwrap();
    p.to_string_lossy().into_owned()
}

#[test]
fn serve_survives_mixed_good_bad_and_blank_requests() {
    let dir = std::env::temp_dir().join(format!("gr-serve-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = write_src(
        &dir,
        "good.c",
        "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }",
    );
    let broken = write_src(&dir, "broken.c", "float oops(float* a, int n) { retur s; }");
    let missing = dir.join("does-not-exist.c").to_string_lossy().into_owned();

    // Good, blank, whitespace-only, nonexistent, non-compiling, then good
    // again (with trailing spaces on the path): the loop must reach and
    // serve the final request.
    let script = format!("{good}\n\n   \n{missing}\n{broken}\n{good}   \n");

    let mut child = Command::new(env!("CARGO_BIN_EXE_greduce"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn greduce serve");
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("serve must exit at EOF");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert!(out.status.success(), "serve must not abort on bad requests:\n{stderr}");

    // Every malformed request gets one GR007 line naming the failure.
    assert_eq!(
        stderr.matches("[GR007]").count(),
        4,
        "two blank + one missing + one non-compiling request:\n{stderr}"
    );
    assert!(stderr.contains("empty request line"), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(stderr.contains("does not compile"), "{stderr}");

    // The good file is served twice — once before and once after the bad
    // requests — the second time warm from the in-memory fingerprint
    // cache. Blank lines never reach the batch layer, so four requests
    // (good, missing, broken, good) produce four batch summaries.
    assert_eq!(stdout.matches("@sum: ").count(), 2, "{stdout}");
    assert!(stdout.contains("@sum: cold"), "{stdout}");
    assert!(stdout.contains("@sum: warm"), "{stdout}");
    assert_eq!(stdout.matches("batch:").count(), 4, "one batch line per request:\n{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

const SUM: &str =
    "float sum(float* a, int n) { float s = 0.0; for (int i = 0; i < n; i++) s += a[i]; return s; }";
const COUNT: &str = "int count(int* a, int n, int key) {
    int c = 0;
    for (int i = 0; i < n; i++) if (a[i] == key) c = c + 1;
    return c;
}";

/// One `greduce serve --cache <cache>` session that submits `files`, one
/// request each, and exits at EOF: `(stdout, stderr)`.
fn serve(cache: &Path, files: &[&str]) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_greduce"))
        .arg("serve")
        .arg("--cache")
        .arg(cache)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn greduce serve");
    let script: String = files.iter().map(|f| format!("{f}\n")).collect();
    child.stdin.take().unwrap().write_all(script.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("serve must exit at EOF");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    );
    assert!(out.status.success(), "{stderr}");
    (stdout, stderr)
}

/// A temporary directory holding `sum.c` and `count.c`.
fn restart_dir(name: &str) -> (std::path::PathBuf, String, String) {
    let dir = std::env::temp_dir().join(format!("gr-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sum = write_src(&dir, "sum.c", SUM);
    let count = write_src(&dir, "count.c", COUNT);
    (dir, sum, count)
}

#[test]
fn serve_restarts_over_a_torn_tail_without_gr006() {
    let (dir, sum, count) = restart_dir("torn");
    let cache = dir.join("cache");
    let file = cache.join("gr-cache.json");
    let (stdout, _) = serve(&cache, &[&sum, &count]);
    assert!(stdout.contains("@sum: cold") && stdout.contains("@count: cold"), "{stdout}");

    // A kill mid-append leaves the last record, `count`'s store, short.
    let bytes = std::fs::read(&file).unwrap();
    assert!(bytes.ends_with(b"}}\n"), "the journal ends in a complete record");
    std::fs::write(&file, &bytes[..bytes.len() - 10]).unwrap();
    let (stdout, stderr) = serve(&cache, &[&sum, &count]);
    assert!(stdout.contains("@sum: warm"), "{stdout}");
    assert!(stdout.contains("@count: cold"), "the torn record is dropped:\n{stdout}");
    assert!(!stderr.contains("GR006"), "a torn tail is not corruption:\n{stderr}");

    // That session's first persist compacted the tail away.
    let text = std::fs::read_to_string(&file).unwrap();
    assert!(text.ends_with('\n') && text.lines().count() == 3, "{text}");
    let (stdout, stderr) = serve(&cache, &[&sum, &count]);
    assert!(stdout.contains("@sum: warm") && stdout.contains("@count: warm"), "{stdout}");
    assert!(!stderr.contains("GR006"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_discards_a_corrupt_record_once_with_gr006() {
    let (dir, sum, count) = restart_dir("corrupt");
    let cache = dir.join("cache");
    let file = cache.join("gr-cache.json");
    serve(&cache, &[&sum, &count]);

    // Flip a byte inside the first record, a complete line: `"store"`
    // becomes `"Store"`, an unknown record kind.
    let mut bytes = std::fs::read(&file).unwrap();
    let first = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert_eq!(&bytes[first..first + 8], b"{\"store\"");
    bytes[first + 2] ^= 0x20;
    std::fs::write(&file, &bytes).unwrap();
    let (stdout, stderr) = serve(&cache, &[&sum, &count]);
    assert_eq!(stderr.matches("[GR006]").count(), 1, "{stderr}");
    assert!(stdout.contains("@sum: cold") && stdout.contains("@count: cold"), "{stdout}");

    // That session rewrote the file: the next one is clean and warm.
    let (stdout, stderr) = serve(&cache, &[&sum, &count]);
    assert!(!stderr.contains("GR006"), "{stderr}");
    assert!(stdout.contains("@sum: warm") && stdout.contains("@count: warm"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the README's `greduce batch` walkthrough as written, with its
/// `sum.c`: every `#   @…` and `#   batch: …` line under a `greduce
/// batch` command must be a line that command prints.
#[test]
fn readme_batch_walkthrough_shows_what_greduce_prints() {
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md")).unwrap();
    let section = readme.split("### `greduce batch` walkthrough").nth(1).expect("the section");
    let block = section.split("```bash\n").nth(1).and_then(|b| b.split("\n```").next());
    let block = block.expect("the walkthrough's bash block");
    let src = block.split("<<'EOF'\n").nth(1).and_then(|b| b.split("\nEOF").next());
    let dir = std::env::temp_dir().join(format!("gr-serve-readme-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    write_src(&dir, "sum.c", src.expect("the sum.c heredoc"));
    let (mut stdout, mut runs, mut checked) = (String::new(), 0, 0);
    for line in block.lines() {
        if let Some(args) = line.strip_prefix("greduce batch ") {
            let out = Command::new(env!("CARGO_BIN_EXE_greduce"))
                .arg("batch")
                .args(args.split_whitespace())
                .current_dir(&dir)
                .output()
                .expect("run greduce batch");
            assert!(out.status.success(), "{line}: {}", String::from_utf8_lossy(&out.stderr));
            stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            runs += 1;
        } else if let Some(shown) = line.strip_prefix("#   ") {
            if shown.starts_with('@') || shown.starts_with("batch: ") {
                assert!(
                    stdout.lines().any(|l| l.trim() == shown),
                    "README shows `{shown}` after command {runs}, greduce printed:\n{stdout}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!((runs, checked), (2, 4), "two commands with two shown lines each");
    std::fs::remove_dir_all(&dir).ok();
}
