//! Regenerates the artifacts of `dante_bench::figures::ARTIFACTS` named on
//! the command line, or every row in table order when given none:
//!
//! ```text
//! cargo run --release -p dante-bench --bin reproduce -- fig07 fig13
//! ```
//!
//! Each record's table goes to stdout; with `DANTE_RESULTS=<dir>` its
//! `<id>.json` and `<id>.txt` are written there too. Monte-Carlo rows are
//! sized by `DANTE_FULL` / `DANTE_TRIALS` / `DANTE_TEST_N` /
//! `DANTE_TRAIN_N` / `DANTE_EPOCHS`, read only when one is selected.

use dante_bench::figures::{Build, ARTIFACTS};
use dante_bench::RunScale;
use std::process::ExitCode;

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    let rows: Vec<(&str, Build)> = if ids.is_empty() {
        ARTIFACTS.to_vec()
    } else {
        let found = ids.iter().map(|id| {
            ARTIFACTS
                .iter()
                .find(|(row, _)| row == id)
                .copied()
                .ok_or(id)
        });
        match found.collect() {
            Ok(rows) => rows,
            Err(unknown) => {
                let known: Vec<&str> = ARTIFACTS.iter().map(|&(id, _)| id).collect();
                eprintln!(
                    "reproduce: unknown artifact {unknown:?}; known artifacts: {}",
                    known.join(" ")
                );
                return ExitCode::FAILURE;
            }
        }
    };
    let scale = rows
        .iter()
        .any(|(_, build)| matches!(build, Build::MonteCarlo(_)))
        .then(RunScale::from_env);
    for (id, build) in rows {
        let record = match build {
            Build::Model(build) => build(),
            Build::MonteCarlo(build) => {
                let scale = scale.expect("the scale is read when a Monte-Carlo row is selected");
                eprintln!("running {id} at {scale:?}");
                build(scale)
            }
        };
        assert_eq!(record.id, id, "row {id} built the record of another id");
        record.emit();
    }
    ExitCode::SUCCESS
}
