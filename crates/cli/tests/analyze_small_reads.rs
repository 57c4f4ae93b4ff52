//! `dfz analyze` tells an artifact's format from its first bytes, however
//! few of them its reader's first fill holds. Every file under
//! `tests/golden/` (artifacts, and the files in no artifact format too)
//! is analyzed through readers of 1 to 32 bytes, and each must print the
//! same stdout and stderr and exit with the same code as through the
//! 64 KiB reader `dfz analyze` opens files with.

use std::io::BufReader;
use std::path::{Path, PathBuf};

use df_cli::{cmd_analyze, CliOptions};

fn goldens() -> Vec<PathBuf> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut files = Vec::new();
    for dir in [golden.clone(), golden.join("stack_corpus")] {
        for entry in std::fs::read_dir(&dir).expect("golden directory") {
            let path = entry.expect("golden entry").path();
            if path.is_file() {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// What `dfz analyze` would print to stdout and stderr, and its exit
/// code, for `bytes` read through a buffer of `capacity` bytes.
fn analyze(bytes: &[u8], capacity: usize, opts: &CliOptions) -> (String, String, i32) {
    match cmd_analyze(BufReader::with_capacity(capacity, bytes), "golden", opts) {
        Ok(out) => (out.text, String::new(), out.code),
        Err(e) => (String::new(), format!("error: {e}\n"), e.exit_code()),
    }
}

#[test]
fn every_golden_analyzes_alike_through_reads_of_1_to_32_bytes() {
    let checked = CliOptions {
        hb: true,
        feasibility: true,
        json: true,
        ..CliOptions::default()
    };
    let files = goldens();
    assert!(files.len() >= 30, "{} goldens", files.len());
    for path in files {
        let bytes = std::fs::read(&path).expect("readable golden");
        for opts in [CliOptions::default(), checked.clone()] {
            let full = analyze(&bytes, 64 * 1024, &opts);
            for capacity in 1..=32 {
                assert_eq!(
                    analyze(&bytes, capacity, &opts),
                    full,
                    "{} through a {capacity}-byte reader (json: {})",
                    path.display(),
                    opts.json
                );
            }
        }
    }
}
