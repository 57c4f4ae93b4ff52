//! Corrupt artifacts never panic `dfz analyze`. Every artifact under
//! `tests/golden/` is mutated — truncated at every byte, byte-flipped,
//! and, where it decodes, structurally damaged: a footer object or a
//! thread binding deleted, an id renumbered out of range, an event
//! duplicated or two events swapped (a relation artifact: a tuple
//! deleted, renumbered, duplicated or swapped). Each mutant is analyzed
//! in-process, as `dfz analyze` would, under `catch_unwind`: every
//! outcome must be `Ok` or a `CliError`, never a panic. A trace mutant is
//! also read through a buffer a few bytes long, so its frames and lines
//! straddle the buffer's end as they do at `dfz analyze`'s 64 KiB
//! boundaries.
//!
//! The mutations come from a fixed seed and are bounded, so the run is
//! the same every time and fast enough for the default test suite.

use std::collections::BTreeSet;
use std::io::BufReader;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use df_cli::{cmd_analyze, CliError, CliOptions};
use df_events::{read_trace, read_trace_bytes, write_trace, write_trace_as, TraceFormat};
use serde_json::Value;

const SEED: u64 = 0xDF_2027;
/// Flipped-byte mutants per golden.
const FLIPS: usize = 48;
/// Mutants per structural mutation per golden.
const STRUCTURAL: usize = 8;
/// The small read buffer: most frames and lines straddle its end.
/// (`tests/analyze_small_reads.rs` checks that any buffer tells the
/// formats apart as a full one does.)
const SMALL_BUFFER: usize = 9;

/// SplitMix64: a seeded, dependency-free source of mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Every artifact under `tests/golden/`, sorted, the stack corpus
/// included: each file that `cmd_analyze` takes for a trace or relation
/// artifact as it stands, whether it accepts it or rejects its content
/// with a usage error (the retired-vocabulary, unbound-thread,
/// empty-objects and version-1 relation goldens). The expected analysis
/// outputs (`*.analyze.json`) and the whole-JSON `trace.json` are in no
/// artifact format and are left out.
fn artifacts() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in [golden_dir(), golden_dir().join("stack_corpus")] {
        for entry in std::fs::read_dir(&dir).expect("golden directory") {
            let path = entry.expect("golden entry").path();
            if !path.is_file() {
                continue;
            }
            let bytes = std::fs::read(&path).expect("readable golden");
            // A golden that panics is kept, so the test names it.
            let run = catch_unwind(|| cmd_analyze(&bytes[..], "golden", &CliOptions::default()));
            if !matches!(run, Ok(Err(CliError::Internal(_)))) {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Analyzes `bytes` with the default options and with the
/// happens-before filter, feasibility scoring and JSON output on, and
/// for a trace also through a [`SMALL_BUFFER`]-byte reader, recording a
/// failure for each run that panics.
fn analyze(bytes: &[u8], what: &str, trace: bool, failures: &mut Vec<String>) {
    let checked = CliOptions {
        hb: true,
        feasibility: true,
        json: true,
        ..CliOptions::default()
    };
    for opts in [CliOptions::default(), checked.clone()] {
        let run = catch_unwind(AssertUnwindSafe(|| cmd_analyze(bytes, what, &opts)));
        if run.is_err() {
            failures.push(format!("{what} (hb: {})", opts.hb));
        }
    }
    if trace {
        let run = catch_unwind(AssertUnwindSafe(|| {
            cmd_analyze(
                BufReader::with_capacity(SMALL_BUFFER, bytes),
                what,
                &checked,
            )
        }));
        if run.is_err() {
            failures.push(format!("{what} (small buffer)"));
        }
    }
}

/// The mutation of a mutant named `"{kind} #{case}"`.
fn kind_of(what: &str) -> &str {
    what.split(" #").next().expect("split yields a first part")
}

/// The entry `key` of a JSON object.
fn field<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match value {
        Value::Obj(entries) => entries.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The single entry of an externally tagged enum value, like the
/// `Event` of `{"Event":{…}}`.
fn variant(value: &mut Value) -> Option<&mut Value> {
    match value {
        Value::Obj(entries) if entries.len() == 1 => Some(&mut entries[0].1),
        _ => None,
    }
}

/// Every integer reachable from `value` that names an object, lock or
/// thread: under an id key, in a lockset, or a thread binding's object.
fn ids<'a>(value: &'a mut Value, out: &mut Vec<&'a mut Value>) {
    const ID_KEYS: [&str; 10] = [
        "id",
        "owner",
        "thread",
        "lock",
        "obj",
        "child",
        "child_obj",
        "target",
        "condvar",
        "thread_obj",
    ];
    match value {
        Value::Obj(entries) => {
            for (key, v) in entries.iter_mut() {
                match (key.as_str(), v) {
                    (key, v @ Value::Num(_)) if ID_KEYS.contains(&key) => out.push(v),
                    ("lockset", Value::Arr(items)) => out.extend(items.iter_mut()),
                    ("thread_objs", Value::Obj(bindings)) => {
                        out.extend(bindings.iter_mut().map(|(_, obj)| obj));
                    }
                    (_, v) => ids(v, out),
                }
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(|v| ids(v, out)),
        _ => {}
    }
}

/// An id past every table: just past the objects, far past them, or at
/// the top of the id space.
fn out_of_range(rng: &mut Rng, objects: usize) -> Value {
    let id = match rng.below(4) {
        0 => objects as u64,
        1 => objects as u64 + 1 + rng.below(1_000) as u64,
        2 => u64::from(u32::MAX) - 1,
        _ => u64::from(u32::MAX),
    };
    serde_json::to_value(&id).expect("an integer serializes")
}

/// Renumbers the `seq` of every event line, from 0.
fn renumber(events: &mut [Value]) {
    for (seq, line) in events.iter_mut().enumerate() {
        if let Some(slot) = variant(line).and_then(|e| field(e, "seq")) {
            *slot = serde_json::to_value(&(seq as u64)).expect("an integer serializes");
        }
    }
}

/// The structural mutations of a trace artifact, as JSONL lines (header,
/// events, footer).
fn mutate_trace(lines: &[Value], rng: &mut Rng) -> Vec<(String, Vec<Value>)> {
    let events = lines.len() - 2;
    let footer = lines.len() - 1;
    let objects = {
        let mut probe = lines[footer].clone();
        let metas = variant(&mut probe)
            .and_then(|f| field(f, "objects"))
            .and_then(|o| field(o, "metas"));
        match metas {
            Some(Value::Arr(metas)) => metas.len(),
            _ => 0,
        }
    };
    let mut mutants = Vec::new();
    for case in 0..STRUCTURAL {
        // A deleted footer object.
        let mut m = lines.to_vec();
        let metas = variant(&mut m[footer])
            .and_then(|f| field(f, "objects"))
            .and_then(|o| field(o, "metas"));
        if let Some(Value::Arr(metas)) = metas {
            if !metas.is_empty() {
                metas.remove(rng.below(metas.len()));
                mutants.push((format!("deleted object #{case}"), m));
            }
        }
        // A deleted thread binding.
        let mut m = lines.to_vec();
        let bindings = variant(&mut m[footer]).and_then(|f| field(f, "thread_objs"));
        if let Some(Value::Obj(bindings)) = bindings {
            if !bindings.is_empty() {
                bindings.remove(rng.below(bindings.len()));
                mutants.push((format!("deleted binding #{case}"), m));
            }
        }
        // An id renumbered out of range, in an event or the footer.
        let mut m = lines.to_vec();
        let mut found = Vec::new();
        for line in &mut m[1..] {
            ids(line, &mut found);
        }
        if !found.is_empty() {
            let pick = rng.below(found.len());
            *found.swap_remove(pick) = out_of_range(rng, objects);
            mutants.push((format!("renumbered id #{case}"), m));
        }
        if events > 0 {
            // A duplicated event.
            let mut m = lines.to_vec();
            let at = 1 + rng.below(events);
            m.insert(at, m[at].clone());
            renumber(&mut m[1..=events + 1]);
            mutants.push((format!("duplicated event #{case}"), m));
            // Two events swapped.
            let mut m = lines.to_vec();
            m.swap(1 + rng.below(events), 1 + rng.below(events));
            renumber(&mut m[1..=events]);
            mutants.push((format!("swapped events #{case}"), m));
        }
    }
    mutants
}

/// A relation artifact's tuples, when it has any.
fn deps_of(doc: &mut Value) -> Option<&mut Vec<Value>> {
    match field(doc, "relation").and_then(|r| field(r, "deps")) {
        Some(Value::Arr(deps)) if !deps.is_empty() => Some(deps),
        _ => None,
    }
}

/// The structural mutations of a relation artifact's tuples.
fn mutate_relation(doc: &Value, rng: &mut Rng) -> Vec<(String, Value)> {
    let mut mutants = Vec::new();
    for case in 0..STRUCTURAL {
        for how in ["deleted", "renumbered", "duplicated", "swapped"] {
            let mut m = doc.clone();
            let Some(deps) = deps_of(&mut m) else {
                continue;
            };
            let pick = rng.below(deps.len());
            match how {
                "deleted" => {
                    deps.remove(pick);
                }
                "renumbered" => {
                    let mut found = Vec::new();
                    ids(&mut deps[pick], &mut found);
                    if found.is_empty() {
                        continue;
                    }
                    let at = rng.below(found.len());
                    *found.swap_remove(at) = out_of_range(rng, 8);
                }
                "duplicated" => {
                    let copy = deps[pick].clone();
                    deps.insert(pick, copy);
                }
                _ => {
                    let other = rng.below(deps.len());
                    deps.swap(pick, other);
                }
            }
            mutants.push((format!("{how} tuple #{case}"), m));
        }
    }
    mutants
}

fn jsonl(lines: &[Value]) -> Vec<u8> {
    let mut out = String::new();
    for line in lines {
        out.push_str(&serde_json::to_string(line).expect("a value serializes"));
        out.push('\n');
    }
    out.into_bytes()
}

#[test]
fn mutated_goldens_never_panic_the_analysis() {
    let mut rng = Rng(SEED);
    let mut failures = Vec::new();
    let mut mutants = 0usize;
    let mut structural = 0usize;
    let artifacts = artifacts();
    assert!(
        artifacts.len() >= 20,
        "only {} golden artifacts",
        artifacts.len()
    );
    for path in artifacts {
        let name = path
            .strip_prefix(golden_dir())
            .expect("under the golden directory")
            .display()
            .to_string();
        let bytes = std::fs::read(&path).expect("readable golden");
        let decoded = read_trace_bytes(&bytes);
        let trace = decoded.is_ok() || !bytes.starts_with(b"{\"format\"");

        for len in 0..bytes.len() {
            analyze(
                &bytes[..len],
                &format!("{name} cut at {len}"),
                trace,
                &mut failures,
            );
        }
        for _ in 0..FLIPS {
            let mut flipped = bytes.clone();
            let at = rng.below(bytes.len());
            flipped[at] ^= 1 + rng.below(255) as u8;
            analyze(
                &flipped,
                &format!("{name} flipped at {at}"),
                trace,
                &mut failures,
            );
        }
        mutants += bytes.len() + FLIPS;

        // The structural mutations each golden must yield, read off its
        // decoded content rather than the JSON the mutators walk, so a
        // mutator that stops matching a renamed field fails here.
        let mut expected = BTreeSet::new();
        let mut made = BTreeSet::new();
        if let Ok(decoded) = decoded {
            if !decoded.objects().is_empty() {
                expected.insert("deleted object");
            }
            if decoded.thread_objs().next().is_some() {
                expected.insert("deleted binding");
            }
            if !decoded.events().is_empty() {
                expected.extend(["renumbered id", "duplicated event", "swapped events"]);
            }
            let text = write_trace(Vec::new(), &decoded).expect("a decoded trace re-encodes");
            let lines: Vec<Value> = String::from_utf8(text)
                .expect("JSONL is UTF-8")
                .lines()
                .map(|l| serde_json::from_str(l).expect("a written line parses"))
                .collect();
            for (what, mutant) in mutate_trace(&lines, &mut rng) {
                made.insert(kind_of(&what).to_string());
                let mutant = jsonl(&mutant);
                analyze(&mutant, &format!("{name} {what}"), true, &mut failures);
                structural += 1;
                // The same damage in the binary encoding, where the
                // mutant still decodes.
                let Ok(trace) = read_trace(&mutant[..]) else {
                    continue;
                };
                let binary = catch_unwind(AssertUnwindSafe(|| {
                    write_trace_as(Vec::new(), &trace, TraceFormat::Binary)
                }));
                match binary {
                    Ok(Ok(binary)) => {
                        analyze(
                            &binary,
                            &format!("{name} {what} (binary)"),
                            true,
                            &mut failures,
                        );
                        structural += 1;
                    }
                    Ok(Err(_)) => {}
                    Err(_) => failures.push(format!("{name} {what}: binary encode")),
                }
            }
        } else if !trace {
            // Every relation golden has tuples with ids in them.
            expected.extend([
                "deleted tuple",
                "renumbered tuple",
                "duplicated tuple",
                "swapped tuple",
            ]);
            let doc: Value = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|text| serde_json::from_str(text).ok())
                .expect("a relation golden is JSON");
            for (what, mutant) in mutate_relation(&doc, &mut rng) {
                made.insert(kind_of(&what).to_string());
                let mutant = serde_json::to_string(&mutant).expect("a value serializes");
                analyze(
                    mutant.as_bytes(),
                    &format!("{name} {what}"),
                    false,
                    &mut failures,
                );
                structural += 1;
            }
        }
        let missing: Vec<_> = expected.iter().filter(|k| !made.contains(**k)).collect();
        assert!(missing.is_empty(), "{name} yielded no {missing:?} mutants");
    }
    assert!(mutants > 20_000, "only {mutants} byte-level mutants");
    assert!(structural > 1_000, "only {structural} structural mutants");
    assert!(
        failures.is_empty(),
        "{} analyses of {} mutants panicked, first: {:#?}",
        failures.len(),
        mutants + structural,
        &failures[..failures.len().min(20)]
    );
}
