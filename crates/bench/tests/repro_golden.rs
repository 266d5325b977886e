//! The behavioural contract of the reproduction driver: the stdout of
//! every paper table at the scan seed and 1000 domains, pinned against
//! committed goldens at 1 and 8 workers. A drift here is a change to a
//! paper result, not a formatting detail.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! CCC_BLESS=1 cargo test -p ccc-bench --test repro_golden
//! ```

use ccc_bench::repro::{self, TABLES};
use ccc_bench::Pipeline;
use std::path::PathBuf;

const DOMAINS: usize = 1_000;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/repro")
        .join(format!("{name}.txt"))
}

fn golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with CCC_BLESS=1 to create it",
            path.display()
        )
    })
}

fn run(names: &[&str], threads: usize) -> String {
    let tables = repro::select(names).expect("known table names");
    repro::run(&tables, DOMAINS, Pipeline::new(threads)).0
}

#[test]
fn every_table_matches_its_golden_at_1_and_8_workers() {
    if std::env::var("CCC_BLESS").is_ok() {
        for table in &TABLES {
            std::fs::write(golden_path(table.name), run(&[table.name], 1)).expect("write golden");
        }
    }
    for threads in [1, 8] {
        for table in &TABLES {
            assert_eq!(
                run(&[table.name], threads),
                golden(table.name),
                "{} drifted from its golden at {threads} worker(s); re-bless with \
                 CCC_BLESS=1 only if the change is intentional",
                table.name
            );
        }
    }
}

#[test]
fn all_is_the_concatenation_of_every_golden() {
    let expected: String = TABLES.iter().map(|t| golden(t.name)).collect();
    for threads in [1, 8] {
        assert_eq!(run(&["all"], threads), expected, "all drifted at {threads} worker(s)");
    }
}
