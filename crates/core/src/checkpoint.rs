//! Versioned, checksummed persistence of completed replications so an
//! interrupted study can resume without redoing work.
//!
//! The file layout is two nested JSON documents. The outer envelope names
//! the format, its version, and an FNV-1a 64 checksum; the inner payload —
//! stored as a JSON *string* so the checksum covers its exact bytes — holds
//! one entry per `(scenario, base seed)` pair with the raw per-replication
//! reward vectors:
//!
//! ```json
//! {
//!   "format": "cfs-study-checkpoint",
//!   "version": 1,
//!   "checksum": "fnv1a64:c0ffee0123456789",
//!   "payload": "{\"entries\":[...]}"
//! }
//! ```
//!
//! Because replication `i` of any evaluation draws from the RNG stream
//! derived from `(base seed, i)`, restoring a stored prefix and simulating
//! the remainder is bit-identical to an uninterrupted run — the report
//! bytes match exactly. The checksum turns a truncated or hand-edited file
//! into a typed [`CfsError::Checkpoint`] instead of silently-wrong
//! statistics; a *missing* file is not an error (every fresh run starts
//! with no checkpoint).
//!
//! Writes are atomic (write to `<path>.tmp`, then rename), and concurrent
//! read-modify-write cycles from the study's worker pool serialise on a
//! process-wide lock, so a checkpoint file is never observed half-written.

use std::fs;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use probdist::telemetry;
use serde::{json, Value};

use crate::CfsError;

/// Format tag stored in the envelope; a file with a different tag is
/// rejected rather than misparsed.
pub(crate) const FORMAT: &str = "cfs-study-checkpoint";

/// Current checkpoint format version. Readers reject other versions.
pub(crate) const VERSION: u64 = 1;

/// One completed replication: the named reward totals plus the event count
/// and final simulation clock — everything the analysis layer needs to
/// rebuild the replication's `RunResult` without re-simulating.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// `(reward name, accumulated value)` in reward-table order.
    pub rewards: Vec<(String, f64)>,
    /// Events executed by the replication.
    pub events: u64,
    /// Simulation clock at the end of the replication, hours.
    pub end_time: f64,
}

/// In-memory image of a checkpoint file: one entry per
/// `(scenario, base seed)` key, each holding the contiguous prefix of
/// completed replications.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointData {
    entries: Vec<(String, Vec<StoredRun>)>,
}

impl CheckpointData {
    /// An empty checkpoint (what [`load`] returns for a missing file).
    pub fn new() -> Self {
        CheckpointData::default()
    }

    /// The stored replication prefix for `key`, if any.
    pub fn entry(&self, key: &str) -> Option<&[StoredRun]> {
        self.entries.iter().find(|(name, _)| name == key).map(|(_, runs)| runs.as_slice())
    }

    /// Replaces (or inserts) the replication prefix for `key`.
    pub fn set_entry(&mut self, key: &str, runs: Vec<StoredRun>) {
        match self.entries.iter_mut().find(|(name, _)| name == key) {
            Some((_, existing)) => *existing = runs,
            None => self.entries.push((key.to_string(), runs)),
        }
    }

    /// Number of entries (distinct scenario × seed keys).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the checkpoint holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The entry key for a scenario evaluated under a given base seed. Keying
/// on both means a checkpoint file can be shared by a whole study (distinct
/// scenario names) and survives seed changes without serving stale runs.
pub fn entry_key(scenario: &str, base_seed: u64) -> String {
    format!("{scenario}#{base_seed:x}")
}

/// FNV-1a 64-bit over `bytes` — tiny, dependency-free, and plenty to catch
/// truncation and accidental edits (this is an integrity check, not an
/// authenticity one).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn checkpoint_error(path: &Path, reason: impl Into<String>) -> CfsError {
    CfsError::Checkpoint { path: path.display().to_string(), reason: reason.into() }
}

fn payload_value(data: &CheckpointData) -> Value {
    let entries = data
        .entries
        .iter()
        .map(|(key, runs)| {
            let runs = runs
                .iter()
                .map(|run| {
                    let rewards = run
                        .rewards
                        .iter()
                        .map(|(name, value)| {
                            Value::Array(vec![Value::String(name.clone()), Value::Float(*value)])
                        })
                        .collect();
                    Value::Object(vec![
                        ("rewards".to_string(), Value::Array(rewards)),
                        ("events".to_string(), Value::UInt(run.events)),
                        ("end_time".to_string(), Value::Float(run.end_time)),
                    ])
                })
                .collect();
            Value::Object(vec![
                ("key".to_string(), Value::String(key.clone())),
                ("runs".to_string(), Value::Array(runs)),
            ])
        })
        .collect();
    Value::Object(vec![("entries".to_string(), Value::Array(entries))])
}

/// The envelope around a serialised payload: the format tag, the version
/// and the checksum of the payload's exact bytes.
fn envelope(payload: String) -> Value {
    Value::Object(vec![
        ("format".to_string(), Value::String(FORMAT.to_string())),
        ("version".to_string(), Value::UInt(VERSION)),
        (
            "checksum".to_string(),
            Value::String(format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()))),
        ),
        ("payload".to_string(), Value::String(payload)),
    ])
}

fn parse_payload(path: &Path, payload: &str) -> Result<CheckpointData, CfsError> {
    let value = json::parse(payload)
        .map_err(|e| checkpoint_error(path, format!("malformed payload: {e}")))?;
    let entries = value
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| checkpoint_error(path, "payload has no 'entries' array"))?;
    let mut data = CheckpointData::new();
    for entry in entries {
        let key = entry
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| checkpoint_error(path, "entry has no 'key' string"))?;
        let runs = entry
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| checkpoint_error(path, "entry has no 'runs' array"))?;
        let mut stored = Vec::with_capacity(runs.len());
        for run in runs {
            let rewards = run
                .get("rewards")
                .and_then(Value::as_array)
                .ok_or_else(|| checkpoint_error(path, "run has no 'rewards' array"))?;
            let mut pairs = Vec::with_capacity(rewards.len());
            for pair in rewards {
                let fields = pair.as_array().unwrap_or(&[]);
                let (name, value) = match fields {
                    [name, value] => (name.as_str(), value.as_f64()),
                    _ => (None, None),
                };
                match (name, value) {
                    (Some(name), Some(value)) => pairs.push((name.to_string(), value)),
                    _ => {
                        return Err(checkpoint_error(
                            path,
                            "reward entry is not a [name, value] pair",
                        ));
                    }
                }
            }
            let events = run
                .get("events")
                .and_then(Value::as_u64)
                .ok_or_else(|| checkpoint_error(path, "run has no 'events' count"))?;
            let end_time = run
                .get("end_time")
                .and_then(Value::as_f64)
                .ok_or_else(|| checkpoint_error(path, "run has no 'end_time' value"))?;
            stored.push(StoredRun { rewards: pairs, events, end_time });
        }
        data.set_entry(key, stored);
    }
    Ok(data)
}

/// Reads a checkpoint file.
///
/// A missing file yields an empty [`CheckpointData`] — the normal state of
/// every fresh run.
///
/// # Errors
///
/// Returns [`CfsError::Checkpoint`] when the file exists but is unreadable,
/// malformed, from a different format or version, or fails its checksum.
pub fn load(path: impl AsRef<Path>) -> Result<CheckpointData, CfsError> {
    let path = path.as_ref();
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(CheckpointData::new());
        }
        Err(e) => return Err(checkpoint_error(path, format!("cannot read: {e}"))),
    };
    let envelope = json::parse(&text)
        .map_err(|e| checkpoint_error(path, format!("malformed envelope: {e}")))?;
    let format = envelope
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'format' tag"))?;
    if format != FORMAT {
        return Err(checkpoint_error(
            path,
            format!("format tag is '{format}', expected '{FORMAT}'"),
        ));
    }
    let version = envelope
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'version' number"))?;
    if version != VERSION {
        return Err(checkpoint_error(
            path,
            format!("version {version} is not the supported version {VERSION}"),
        ));
    }
    let checksum = envelope
        .get("checksum")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'checksum' field"))?;
    let payload = envelope
        .get("payload")
        .and_then(Value::as_str)
        .ok_or_else(|| checkpoint_error(path, "envelope has no 'payload' string"))?;
    let expected = format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()));
    if checksum != expected {
        return Err(checkpoint_error(
            path,
            format!("checksum mismatch: file says {checksum}, payload hashes to {expected}"),
        ));
    }
    parse_payload(path, payload)
}

/// Writes a checkpoint file atomically: the document is assembled in
/// memory, written to `<path>.tmp`, and renamed over `path`, so readers
/// never observe a half-written file.
///
/// # Errors
///
/// Returns [`CfsError::Checkpoint`] when the temporary file cannot be
/// written or the rename fails; a failed rename removes the temporary
/// file.
pub fn store(path: impl AsRef<Path>, data: &CheckpointData) -> Result<(), CfsError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let document = envelope(payload_value(data).to_json()).to_json_pretty();
    telemetry::counter_inc(telemetry::MetricId::CheckpointWrites);
    telemetry::counter_add(telemetry::MetricId::CheckpointBytes, document.len() as u64);
    let write_span = telemetry::span(telemetry::MetricId::SpanCheckpointWrite);
    fs::write(&tmp, document)
        .map_err(|e| checkpoint_error(path, format!("cannot write temporary file: {e}")))?;
    drop(write_span);
    let _rename_span = telemetry::span(telemetry::MetricId::SpanCheckpointRename);
    fs::rename(&tmp, path).map_err(|e| {
        // Best effort: the error below is what the caller needs, and a
        // leftover temporary file would only litter the directory.
        let _ = fs::remove_file(&tmp);
        checkpoint_error(path, format!("cannot rename temporary file: {e}"))
    })
}

/// Serialises every read-modify-write cycle in this process: scenarios of a
/// study checkpoint concurrently into the same file from the worker pool.
static UPDATE_LOCK: Mutex<()> = Mutex::new(());

/// Atomically merges `runs` into the checkpoint at `path` under `key`:
/// loads the current file (empty if missing), replaces the entry, and
/// stores the result. Concurrent updates from this process serialise on a
/// lock; the write itself is atomic.
///
/// # Errors
///
/// Returns [`CfsError::Checkpoint`] when the existing file is corrupt or
/// the rewrite fails.
pub fn update(path: impl AsRef<Path>, key: &str, runs: Vec<StoredRun>) -> Result<(), CfsError> {
    let _guard = UPDATE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut data = load(path.as_ref())?;
    data.set_entry(key, runs);
    store(path.as_ref(), &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdist::SimRng;
    use proptest::prelude::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("cfs-checkpoint-test-{}-{name}", std::process::id()));
        path
    }

    fn sample_runs() -> Vec<StoredRun> {
        vec![
            StoredRun {
                rewards: vec![
                    ("availability".to_string(), 0.999_875_421_301),
                    ("repairs".to_string(), 17.0),
                ],
                events: 12_345,
                end_time: 8760.0,
            },
            StoredRun {
                rewards: vec![
                    ("availability".to_string(), f64::MIN_POSITIVE),
                    ("repairs".to_string(), 1.0e-17),
                ],
                events: 1,
                end_time: 0.125,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let path = temp_path("round-trip");
        let mut data = CheckpointData::new();
        data.set_entry(&entry_key("baseline", 42), sample_runs());
        store(&path, &data).unwrap();
        let reloaded = load(&path).unwrap();
        assert_eq!(reloaded, data);
        let runs = reloaded.entry(&entry_key("baseline", 42)).unwrap();
        for (stored, original) in runs.iter().zip(sample_runs().iter()) {
            for ((_, a), (_, b)) in stored.rewards.iter().zip(original.rewards.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_empty_checkpoint() {
        let data = load(temp_path("never-created")).unwrap();
        assert!(data.is_empty());
        assert!(data.entry("anything").is_none());
    }

    #[test]
    fn corrupt_files_are_typed_errors_not_panics() {
        let path = temp_path("corrupt");

        // Truncated mid-document.
        fs::write(&path, "{\"format\": \"cfs-stu").unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");

        // Wrong format tag.
        fs::write(&path, "{\"format\": \"other\", \"version\": 1}").unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("format tag"), "{err}");

        // Unsupported version.
        fs::write(&path, format!("{{\"format\": \"{FORMAT}\", \"version\": 2}}")).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("version 2"), "{err}");

        // Checksum mismatch: flip a digit in a valid file's stored value.
        let mut data = CheckpointData::new();
        data.set_entry("k", sample_runs());
        store(&path, &data).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("12345", "12346", 1);
        assert_ne!(text, tampered, "tamper target not found");
        fs::write(&path, tampered).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_writes_are_typed_and_leave_no_temporary_file() {
        let data = CheckpointData::new();
        let missing = temp_path("missing-dir").join("study.json");
        let err = store(&missing, &data).unwrap_err();
        assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("cannot write temporary file"), "{err}");

        // A non-empty directory in the way fails the rename.
        let occupied = temp_path("occupied");
        fs::create_dir_all(&occupied).unwrap();
        fs::write(occupied.join("keep"), "x").unwrap();
        let err = store(&occupied, &data).unwrap_err();
        assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("cannot rename temporary file"), "{err}");
        let mut tmp = occupied.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists(), "the failed rename left its temporary file");
        fs::remove_dir_all(&occupied).unwrap();
    }

    #[test]
    fn update_merges_entries_without_clobbering_others() {
        let path = temp_path("update");
        let _ = fs::remove_file(&path);
        update(&path, "a#1", sample_runs()).unwrap();
        update(&path, "b#1", sample_runs()[..1].to_vec()).unwrap();
        let longer = sample_runs();
        update(&path, "a#1", longer.clone()).unwrap();
        let data = load(&path).unwrap();
        assert_eq!(data.len(), 2);
        assert_eq!(data.entry("a#1").unwrap(), longer.as_slice());
        assert_eq!(data.entry("b#1").unwrap().len(), 1);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn entry_keys_separate_scenarios_and_seeds() {
        assert_eq!(entry_key("baseline", 255), "baseline#ff");
        assert_ne!(entry_key("baseline", 1), entry_key("baseline", 2));
        assert_ne!(entry_key("a", 1), entry_key("b", 1));
    }

    /// Characters of random keys and reward names: ones the JSON writer
    /// must escape (quotes, backslashes, controls), and two-, three- and
    /// four-byte UTF-8.
    const NAME_CHARS: &[char] = &[
        'a', 'Z', '7', '#', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '€',
        '\u{2028}', '😀',
    ];

    /// Fragments, separated by white space, that steer random byte edits
    /// into the envelope parser's branches.
    const FRAGMENTS: &str = r#"{ } [ ] , : "format" "version" "checksum" "payload"
        "cfs-study-checkpoint" "fnv1a64:0123456789abcdef" "entries" "key" "runs"
        "rewards" "events" "end_time" 1 -1 0.5 1e999 18446744073709551616 null true
        "\u12" "\"""#;

    fn random_name(rng: &mut SimRng) -> String {
        let len = rng.next_u64() % 8;
        (0..len).map(|_| NAME_CHARS[(rng.next_u64() % NAME_CHARS.len() as u64) as usize]).collect()
    }

    /// A random bit pattern, made finite by clearing the top exponent bit
    /// of an inf or NaN one.
    fn finite(bits: u64) -> f64 {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits & !(1 << 62))
        }
    }

    fn random_data(seed: u64) -> CheckpointData {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut data = CheckpointData::new();
        for _ in 0..1 + rng.next_u64() % 3 {
            let mut runs = Vec::new();
            for _ in 0..rng.next_u64() % 4 {
                let mut rewards = Vec::new();
                for _ in 0..rng.next_u64() % 4 {
                    rewards.push((random_name(&mut rng), finite(rng.next_u64())));
                }
                runs.push(StoredRun {
                    rewards,
                    events: rng.next_u64(),
                    end_time: finite(rng.next_u64()),
                });
            }
            data.set_entry(&random_name(&mut rng), runs);
        }
        data
    }

    /// One line per key, reward and run end, with every float as its bits,
    /// so that comparing two lists compares the checkpoints bit for bit.
    fn bits(data: &CheckpointData) -> Vec<String> {
        let mut lines = Vec::new();
        for (key, runs) in &data.entries {
            lines.push(format!("key {key:?}"));
            for run in runs {
                for (name, x) in &run.rewards {
                    lines.push(format!("reward {name:?} {:x}", x.to_bits()));
                }
                lines.push(format!("events {} end {:x}", run.events, run.end_time.to_bits()));
            }
        }
        lines
    }

    /// Replaces one node of `value`, found by a random walk from the root
    /// (which it may stop at), with a scalar or an empty array.
    fn replace_random_node(value: &mut Value, rng: &mut SimRng) {
        let pick = rng.next_u64();
        let child = match value {
            Value::Array(items) if !pick.is_multiple_of(8) && !items.is_empty() => {
                let i = (pick >> 8) as usize % items.len();
                Some(&mut items[i])
            }
            Value::Object(fields) if !pick.is_multiple_of(8) && !fields.is_empty() => {
                let i = (pick >> 8) as usize % fields.len();
                Some(&mut fields[i].1)
            }
            _ => None,
        };
        match child {
            Some(child) => replace_random_node(child, rng),
            None => {
                *value = match (pick >> 8) % 5 {
                    0 => Value::Null,
                    1 => Value::Int(-1),
                    2 => Value::Float(0.5),
                    3 => Value::String("key".to_string()),
                    _ => Value::Array(Vec::new()),
                };
            }
        }
    }

    proptest! {
        #[test]
        fn random_checkpoints_round_trip_bit_for_bit(seed in any::<u64>()) {
            let path = temp_path("fuzz-round-trip");
            let _ = fs::remove_file(&path);
            let data = random_data(seed);
            for (key, runs) in &data.entries {
                update(&path, key, runs.clone()).unwrap();
            }
            prop_assert_eq!(bits(&load(&path).unwrap()), bits(&data));
            fs::remove_file(&path).unwrap();
        }

        // A valid file with random byte edits: a byte deleted, a raw byte
        // (not always UTF-8) or a fragment inserted, or the rest cut off.
        #[test]
        fn random_files_load_or_fail_typed(
            seed in any::<u64>(),
            edits in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let path = temp_path("fuzz-random-bytes");
            let fragments: Vec<&str> = FRAGMENTS.split_whitespace().collect();
            let payload = payload_value(&random_data(seed)).to_json();
            let mut bytes = envelope(payload).to_json_pretty().into_bytes();
            for edit in edits {
                let at = ((edit >> 8) % (bytes.len() as u64 + 1)) as usize;
                let pick = (edit >> 40) as usize;
                match edit % 4 {
                    0 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    1 => bytes.insert(at, pick as u8),
                    3 => bytes.truncate(at),
                    _ => {
                        bytes.splice(at..at, fragments[pick % fragments.len()].bytes());
                    }
                }
            }
            fs::write(&path, &bytes).unwrap();
            let result = load(&path);
            prop_assert!(matches!(result, Ok(_) | Err(CfsError::Checkpoint { .. })), "{result:?}");
            fs::remove_file(&path).unwrap();
        }

        // Valid payloads with one random node replaced, sealed into an
        // envelope with their correct checksum, so that the payload parser
        // sees every edit.
        #[test]
        fn random_payloads_load_or_fail_typed(seed in any::<u64>()) {
            let path = temp_path("fuzz-random-payloads");
            let payload = payload_value(&random_data(seed));
            let mut rng = SimRng::seed_from_u64(!seed);
            for _ in 0..16 {
                let mut edited = payload.clone();
                replace_random_node(&mut edited, &mut rng);
                fs::write(&path, envelope(edited.to_json()).to_json()).unwrap();
                let result = load(&path);
                prop_assert!(matches!(result, Ok(_) | Err(CfsError::Checkpoint { .. })), "{result:?}");
            }
            fs::remove_file(&path).unwrap();
        }

        // Flips one ASCII byte of the stored payload to another ASCII byte,
        // so that the payload stays valid UTF-8 and the envelope stays
        // valid JSON: only the checksum can catch it.
        #[test]
        fn flipping_a_payload_byte_fails_the_checksum(
            seed in any::<u64>(),
            position in any::<u64>(),
            mask in 1..128u32,
        ) {
            let path = temp_path("fuzz-flip");
            store(&path, &random_data(seed)).unwrap();
            let Value::Object(mut fields) = json::parse(&fs::read_to_string(&path).unwrap()).unwrap()
            else {
                panic!("the envelope is an object");
            };
            let (_, payload) = fields.iter_mut().find(|(name, _)| name == "payload").unwrap();
            let mut bytes = payload.as_str().unwrap().as_bytes().to_vec();
            let ascii: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii()).collect();
            bytes[ascii[(position % ascii.len() as u64) as usize]] ^= mask as u8;
            *payload = Value::String(String::from_utf8(bytes).unwrap());
            fs::write(&path, Value::Object(fields).to_json_pretty()).unwrap();
            let err = load(&path).unwrap_err();
            prop_assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");
            prop_assert!(err.to_string().contains("checksum mismatch"), "{err}");
            fs::remove_file(&path).unwrap();
        }
    }
}
