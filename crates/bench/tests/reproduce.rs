//! The `reproduce` bin end to end: it writes exactly the selected rows'
//! `<id>.json` and `<id>.txt`, byte-identical to `results/`, refuses an
//! unknown id before building anything, and reads the scale variables only
//! for Monte-Carlo rows. Children run one at a time.

use dante_bench::figures::ARTIFACTS;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, PoisonError};

/// The variables `reproduce` reads, cleared so the caller's environment
/// cannot leak into a child.
const VARIABLES: [&str; 6] = [
    "DANTE_RESULTS",
    "DANTE_FULL",
    "DANTE_TRIALS",
    "DANTE_TEST_N",
    "DANTE_EPOCHS",
    "DANTE_TRAIN_N",
];

/// Runs `reproduce args` with `vars` set, waiting for any other child first.
fn reproduce(args: &[&str], vars: &[(&str, &OsStr)]) -> Output {
    static ONE_CHILD: Mutex<()> = Mutex::new(());
    let _one = ONE_CHILD.lock().unwrap_or_else(PoisonError::into_inner);
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    for var in VARIABLES {
        cmd.env_remove(var);
    }
    cmd.args(args)
        .envs(vars.iter().copied())
        .output()
        .expect("reproduce starts")
}

/// An empty directory of its own for one test.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dante-reproduce-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("listable dir")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort_unstable();
    names
}

fn committed(file: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn one_row_writes_exactly_its_two_committed_files() {
    let dir = empty_dir("fig07");
    let out = reproduce(&["fig07"], &[("DANTE_RESULTS", dir.as_os_str())]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(listing(&dir), ["fig07.json", "fig07.txt"]);
    for file in ["fig07.json", "fig07.txt"] {
        let written = std::fs::read(dir.join(file)).expect("written file");
        assert!(written == committed(file), "{file} differs from results/");
    }
    assert!(out.stdout == committed("fig07.txt"), "stdout is the .txt");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn an_unknown_id_fails_naming_every_known_id_and_writes_nothing() {
    let dir = empty_dir("unknown");
    let out = reproduce(&["fig07", "nosuch"], &[("DANTE_RESULTS", dir.as_os_str())]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("nosuch"), "{stderr}");
    for (id, _) in ARTIFACTS {
        assert!(stderr.contains(id), "{id} missing from: {stderr}");
    }
    assert!(listing(&dir).is_empty(), "wrote {:?}", listing(&dir));
    assert!(out.stdout.is_empty(), "built a record before failing");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn scale_variables_are_read_only_for_monte_carlo_rows() {
    let bad = OsStr::new("abc");
    let model = reproduce(&["fig07"], &[("DANTE_TRIALS", bad)]);
    assert!(
        model.status.success(),
        "{}",
        String::from_utf8_lossy(&model.stderr)
    );
    assert!(model.stdout == committed("fig07.txt"));

    let dir = empty_dir("scale");
    let (results, cache) = (dir.join("results"), dir.join("cache"));
    let mc = reproduce(
        &["fig01"],
        &[
            ("DANTE_TRIALS", bad),
            ("DANTE_RESULTS", results.as_os_str()),
            ("DANTE_CACHE", cache.as_os_str()),
        ],
    );
    let stderr = String::from_utf8_lossy(&mc.stderr);
    assert!(!mc.status.success(), "{stderr}");
    assert!(stderr.contains("DANTE_TRIALS"), "{stderr}");
    // Nothing trained (no cached network) and nothing written.
    assert!(!cache.exists() && !results.exists(), "{:?}", listing(&dir));
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}
