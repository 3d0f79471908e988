//! Trace-replay workloads: recorded per-thread access logs.
//!
//! A trace is a directory holding one JSON index ([`TraceIndex`],
//! canonical pretty JSON) plus one compact binary log per thread
//! (`t<i>.bin`, 9 bytes per record: a one-byte [`StreamTarget`] tag
//! followed by the line offset as a little-endian `u64`). Replay mode
//! (`SimConfig::trace_replay` in `cdcs-sim`) substitutes the recorded
//! streams for the synthetic generators, reproducing the recorded run's
//! `SimResult` bit-exactly from the trace alone.
//!
//! Recording needs no simulator hook: [`record`] re-draws a finished
//! run's streams and [`write_trace`] stores them. [`TraceSource::load`]
//! and [`write_trace`] are the result crates' only file I/O.
//!
//! [`ThreadSource`] is the seam the engine holds per thread: a synthetic
//! [`AccessStream`] or a replay [`TraceCursor`] behind one API.

use crate::{AccessStream, StreamTarget, WorkloadMix};
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Tag byte for a [`StreamTarget::ThreadPrivate`] record.
const TAG_PRIVATE: u8 = 0;
/// Tag byte for a [`StreamTarget::ProcessShared`] record.
const TAG_SHARED: u8 = 1;
/// Tag byte for a [`StreamTarget::Global`] record.
const TAG_GLOBAL: u8 = 2;
/// Bytes per binary record: tag + little-endian offset.
const RECORD_BYTES: usize = 9;
/// Largest trace index [`TraceSource::load`] reads (a two-thread index
/// is under 1 KiB).
pub const MAX_INDEX_BYTES: u64 = 4 << 20;

/// One recorded access: `(target tag, line offset)`.
pub type TraceRecord = (u8, u64);

/// Encodes a [`StreamTarget`] as its binary tag.
pub fn target_tag(target: StreamTarget) -> u8 {
    match target {
        StreamTarget::ThreadPrivate => TAG_PRIVATE,
        StreamTarget::ProcessShared => TAG_SHARED,
        StreamTarget::Global => TAG_GLOBAL,
    }
}

/// Decodes a binary tag back to its [`StreamTarget`].
///
/// # Errors
///
/// Returns a message for unknown tags.
pub fn tag_target(tag: u8) -> Result<StreamTarget, String> {
    match tag {
        TAG_PRIVATE => Ok(StreamTarget::ThreadPrivate),
        TAG_SHARED => Ok(StreamTarget::ProcessShared),
        TAG_GLOBAL => Ok(StreamTarget::Global),
        other => Err(format!("unknown trace record tag {other}")),
    }
}

/// Index entry for one thread's binary log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceThreadMeta {
    /// Log file name, relative to the index's directory.
    #[serde(default)]
    pub file: String,
    /// Record count in the log (validated against the file size on load).
    #[serde(default)]
    pub records: u64,
    /// Whether every record is thread-private — replay then serves the
    /// engines' bulk-draw fast path exactly like a private-only synthetic
    /// stream.
    #[serde(default)]
    pub private_only: bool,
}

/// The JSON index at the root of a trace directory: the recorded mix
/// (processes, rates, core response — everything but the access streams)
/// plus one [`TraceThreadMeta`] per thread in thread-id order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceIndex {
    /// The mix the trace was recorded from.
    #[serde(default)]
    pub mix: WorkloadMix,
    /// Per-thread log metadata, in thread-id order.
    #[serde(default)]
    pub threads: Vec<TraceThreadMeta>,
}

/// A fully-loaded trace: index plus every thread's records in memory.
#[derive(Debug, Clone)]
pub struct TraceSource {
    index: TraceIndex,
    data: Vec<Vec<TraceRecord>>,
}

impl TraceSource {
    /// Loads a trace from its index path. Relative paths are resolved
    /// against the current directory and then each of its ancestors, so
    /// repo-relative paths like `specs/traces/x/index.json` work from
    /// crate directories (tests) and the repo root (binaries) alike.
    ///
    /// Loading is total: a non-regular file (`/dev/zero`), an index over
    /// [`MAX_INDEX_BYTES`], or a log whose size is not its declared
    /// `records × 9` is refused before any of it is read.
    ///
    /// # Errors
    ///
    /// Returns a message for missing, non-regular or oversized files,
    /// malformed JSON or binary records, and index/log disagreements.
    pub fn load(path: &str) -> Result<TraceSource, String> {
        let index_path = resolve(path)?;
        let dir = index_path
            .parent()
            .ok_or_else(|| format!("trace index {path} has no parent directory"))?
            .to_path_buf();
        // Reads a regular file whose length `check` accepts, and no more
        // (`read_exact` also fails a file that shrinks meanwhile).
        let read = |p: &Path, what: &str, check: &dyn Fn(u64) -> Result<(), String>| {
            let err = |e: std::io::Error| format!("reading {what} {}: {e}", p.display());
            // lint: allow(determinism) — replay reads the trace its config names.
            let mut file = std::fs::File::open(p).map_err(err)?;
            let info = file.metadata().map_err(err)?;
            if !info.is_file() {
                return Err(format!("{what} {} is not a regular file", p.display()));
            }
            check(info.len())?;
            let mut bytes = vec![0; info.len() as usize];
            file.read_exact(&mut bytes).map_err(err)?;
            Ok(bytes)
        };
        let json = read(&index_path, "trace index", &|len| {
            (len <= MAX_INDEX_BYTES)
                .then_some(())
                .ok_or_else(|| format!("trace index {path} is over {MAX_INDEX_BYTES} bytes"))
        })?;
        let json =
            String::from_utf8(json).map_err(|e| format!("parsing trace index {path}: {e}"))?;
        let index: TraceIndex =
            serde_json::from_str(&json).map_err(|e| format!("parsing trace index {path}: {e}"))?;
        if index.threads.len() != index.mix.total_threads() {
            return Err(format!(
                "trace index {path} lists {} thread logs but its mix has {} threads",
                index.threads.len(),
                index.mix.total_threads()
            ));
        }
        let mut data = Vec::with_capacity(index.threads.len());
        for meta in &index.threads {
            let bytes = read(&dir.join(&meta.file), "trace log", &|len| {
                let n = len / RECORD_BYTES as u64;
                if len % RECORD_BYTES as u64 != 0 {
                    Err(format!(
                        "trace log {} has {len} bytes, not a multiple of {RECORD_BYTES}",
                        meta.file
                    ))
                } else if n != meta.records {
                    Err(format!(
                        "trace log {} holds {n} records but the index says {}",
                        meta.file, meta.records
                    ))
                } else {
                    Ok(())
                }
            })?;
            let mut records = Vec::with_capacity(bytes.len() / RECORD_BYTES);
            for chunk in bytes.chunks_exact(RECORD_BYTES) {
                let tag = chunk[0];
                tag_target(tag)?;
                if meta.private_only && tag != TAG_PRIVATE {
                    return Err(format!(
                        "trace log {} is marked private-only but holds tag {tag}",
                        meta.file
                    ));
                }
                let mut le = [0u8; 8];
                le.copy_from_slice(&chunk[1..]);
                records.push((tag, u64::from_le_bytes(le)));
            }
            data.push(records);
        }
        Ok(TraceSource { index, data })
    }

    /// The mix the trace was recorded from.
    pub fn mix(&self) -> &WorkloadMix {
        &self.index.mix
    }

    /// A replay cursor over thread `thread`'s records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn cursor(&self, thread: usize) -> TraceCursor {
        TraceCursor {
            records: self.data[thread].clone(),
            pos: 0,
            private_only: self.index.threads[thread].private_only,
        }
    }
}

/// Writes a trace directory: one `t<i>.bin` per thread plus the canonical
/// `index.json`. Creates `dir` (and parents) as needed; overwrites any
/// existing trace there.
///
/// # Errors
///
/// Returns I/O and serialization errors.
pub fn write_trace(
    dir: &Path,
    mix: &WorkloadMix,
    threads: &[(Vec<TraceRecord>, bool)],
) -> Result<(), String> {
    // lint: allow(determinism) — writes a finished run's trace; nothing
    // here feeds back into a result.
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let write = |path: PathBuf, bytes: Vec<u8>| {
        // lint: allow(determinism) — the trace writer's one file write.
        std::fs::write(&path, bytes).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    let mut index = TraceIndex {
        mix: mix.clone(),
        threads: Vec::with_capacity(threads.len()),
    };
    for (i, (records, private_only)) in threads.iter().enumerate() {
        let file = format!("t{i}.bin");
        let mut bytes = Vec::with_capacity(records.len() * RECORD_BYTES);
        for (tag, offset) in records {
            bytes.push(*tag);
            bytes.extend_from_slice(&offset.to_le_bytes());
        }
        write(dir.join(&file), bytes)?;
        index.threads.push(TraceThreadMeta {
            file,
            records: records.len() as u64,
            private_only: *private_only,
        });
    }
    let json = serde_json::to_string_pretty(&index)
        .map_err(|e| format!("serializing trace index: {e}"))?
        + "\n";
    write(dir.join("index.json"), json.into_bytes())
}

/// Re-draws a finished run's streams as trace logs for [`write_trace`].
///
/// `mix` is the run's roster (`EventScript::roster`) and `draws[i]` the
/// accesses thread `i` drew (`SimResult::threads[i].accesses`). A stream
/// is a pure function of `(app, thread, stream seed)`, so its first
/// `draws[i]` records are what the run consumed; a cushion of
/// `draws[i] / 4 + 1024` more lets a replay under another scheme (which
/// draws a different count) run before its cursor wraps.
///
/// # Errors
///
/// Returns a message unless `draws` holds one count per roster thread.
pub fn record(mix: &WorkloadMix, draws: &[u64]) -> Result<Vec<(Vec<TraceRecord>, bool)>, String> {
    if draws.len() != mix.total_threads() {
        return Err(format!(
            "{} draw counts for a roster of {} threads",
            draws.len(),
            mix.total_threads()
        ));
    }
    let threads = mix
        .processes()
        .iter()
        .enumerate()
        .flat_map(|(p, app)| (0..app.threads).map(move |tip| (p, app, tip)));
    Ok(threads
        .zip(draws)
        .map(|((p, app, tip), &n)| {
            let mut stream = AccessStream::for_thread(app, tip, mix.stream_seed(p, tip));
            let records: Vec<TraceRecord> = (0..n + n / 4 + 1024)
                .map(|_| {
                    let (target, offset) = stream.next_access();
                    (target_tag(target), offset)
                })
                .collect();
            let private_only = records.iter().all(|&(tag, _)| tag == TAG_PRIVATE);
            (records, private_only)
        })
        .collect())
}

/// Resolves a possibly repo-relative path by walking up from the current
/// directory.
fn resolve(path: &str) -> Result<PathBuf, String> {
    let p = Path::new(path);
    if p.is_absolute() || p.exists() {
        return Ok(p.to_path_buf());
    }
    let mut dir =
        std::env::current_dir().map_err(|e| format!("resolving current directory: {e}"))?;
    loop {
        let candidate = dir.join(p);
        if candidate.exists() {
            return Ok(candidate);
        }
        if !dir.pop() {
            return Err(format!(
                "trace index {path} not found in the current directory or any ancestor"
            ));
        }
    }
}

/// Replay position in one thread's recorded log. The cursor wraps at the
/// end of the log: replaying under a *different* configuration than the
/// recording can consume more accesses than were recorded ([`record`]
/// appends a cushion precisely to make same-config replay never wrap).
#[derive(Debug, Clone)]
pub struct TraceCursor {
    records: Vec<TraceRecord>,
    pos: usize,
    private_only: bool,
}

impl TraceCursor {
    fn next(&mut self) -> TraceRecord {
        let r = self.records[self.pos];
        self.pos += 1;
        if self.pos == self.records.len() {
            self.pos = 0;
        }
        r
    }
}

/// One thread's access source as the engines see it: a synthetic
/// generator or a replay cursor. The API mirrors [`AccessStream`] exactly
/// so both the reference engine and the sharded drain run unchanged over
/// either backing.
#[derive(Debug, Clone)]
pub struct ThreadSource(SourceInner);

#[derive(Debug, Clone)]
enum SourceInner {
    Synthetic(AccessStream),
    Replay(TraceCursor),
}

impl ThreadSource {
    /// Wraps a synthetic stream.
    pub fn synthetic(stream: AccessStream) -> ThreadSource {
        ThreadSource(SourceInner::Synthetic(stream))
    }

    /// Wraps a replay cursor.
    pub fn replay(cursor: TraceCursor) -> ThreadSource {
        ThreadSource(SourceInner::Replay(cursor))
    }

    /// See [`AccessStream::is_private_only`]; a replay source is
    /// private-only when its log is.
    pub fn is_private_only(&self) -> bool {
        match &self.0 {
            SourceInner::Synthetic(s) => s.is_private_only(),
            SourceInner::Replay(c) => c.private_only,
        }
    }

    /// See [`AccessStream::fill_private_offsets_slice`].
    ///
    /// # Panics
    ///
    /// Panics if the source is not private-only.
    pub fn fill_private_offsets_slice(&mut self, out: &mut [u64]) {
        match &mut self.0 {
            SourceInner::Synthetic(s) => s.fill_private_offsets_slice(out),
            SourceInner::Replay(c) => {
                assert!(c.private_only, "trace log has shared records");
                for slot in out.iter_mut() {
                    *slot = c.next().1;
                }
            }
        }
    }

    /// See [`AccessStream::next_access`].
    pub fn next_access(&mut self) -> (StreamTarget, u64) {
        match &mut self.0 {
            SourceInner::Synthetic(s) => s.next_access(),
            SourceInner::Replay(c) => {
                let (tag, offset) = c.next();
                (tag_target(tag).expect("tags validated on load"), offset)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, MixSpec};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(label: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("cdcs-trace-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_mix() -> WorkloadMix {
        WorkloadMix::from_spec(&MixSpec::Named(vec!["calculix".into(), "milc".into()])).unwrap()
    }

    #[test]
    fn tags_round_trip() {
        for t in [
            StreamTarget::ThreadPrivate,
            StreamTarget::ProcessShared,
            StreamTarget::Global,
        ] {
            assert_eq!(tag_target(target_tag(t)).unwrap(), t);
        }
        assert!(tag_target(9).is_err());
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let mix = small_mix();
        let logs = vec![
            (vec![(TAG_PRIVATE, 1u64), (TAG_PRIVATE, 2)], true),
            (
                vec![(TAG_PRIVATE, 7), (TAG_SHARED, 3), (TAG_GLOBAL, 0)],
                false,
            ),
        ];
        write_trace(&dir, &mix, &logs).unwrap();
        let src = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap();
        assert_eq!(src.mix(), &mix);
        assert_eq!(src.data.len(), 2);
        let mut c = src.cursor(0);
        assert!(c.private_only);
        assert_eq!(c.next(), (TAG_PRIVATE, 1));
        assert_eq!(c.next(), (TAG_PRIVATE, 2));
        assert_eq!(c.next(), (TAG_PRIVATE, 1), "wraps at end");
        let mut c = src.cursor(1);
        assert!(!c.private_only);
        assert_eq!(c.next(), (TAG_PRIVATE, 7));
        assert_eq!(c.next(), (TAG_SHARED, 3));
        assert_eq!(c.next(), (TAG_GLOBAL, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_inconsistent_traces() {
        let dir = temp_dir("bad");
        let mix = small_mix();
        write_trace(
            &dir,
            &mix,
            &[(vec![(TAG_PRIVATE, 1)], true), (vec![], true)],
        )
        .unwrap();
        // Corrupt the first log: truncate to a non-multiple of the record size.
        std::fs::write(dir.join("t0.bin"), [0u8; 5]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("multiple"), "{err}");
        // Wrong record count.
        std::fs::write(dir.join("t0.bin"), [0u8; 18]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("index says"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_thread_count_mismatch() {
        let dir = temp_dir("mismatch");
        write_trace(&dir, &small_mix(), &[(vec![], true)]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(err.contains("threads"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synthetic_source_matches_raw_stream() {
        let app = spec::by_name("omnet").unwrap();
        let mut raw = AccessStream::for_thread(app, 0, 42);
        let mut src = ThreadSource::synthetic(AccessStream::for_thread(app, 0, 42));
        assert!(src.is_private_only());
        for _ in 0..64 {
            assert_eq!(src.next_access(), raw.next_access());
        }
        let mut raw_bulk = vec![0u64; 100];
        raw.fill_private_offsets_slice(&mut raw_bulk);
        let mut src_bulk = vec![0u64; 100];
        src.fill_private_offsets_slice(&mut src_bulk);
        assert_eq!(src_bulk, raw_bulk);
    }

    #[test]
    fn record_redraws_every_draw_and_replays_identically() {
        // ilbdc has a shared pattern, so this pins the `next_access` path.
        let mix =
            WorkloadMix::from_spec(&MixSpec::Named(vec!["omnet".into(), "ilbdc".into()])).unwrap();
        let draws: Vec<u64> = (0..mix.total_threads() as u64)
            .map(|t| 500 + 37 * t)
            .collect();
        let logs = record(&mix, &draws).unwrap();
        assert_eq!(logs.len(), mix.total_threads());
        let mut tid = 0;
        for (p, app) in mix.processes().iter().enumerate() {
            for tip in 0..app.threads {
                let n = draws[tid];
                let (records, private_only) = &logs[tid];
                assert_eq!(records.len() as u64, n + n / 4 + 1024, "draws + cushion");
                assert_eq!(*private_only, app.shared_pattern.is_none(), "{}", app.name);
                let mut live = ThreadSource::synthetic(AccessStream::for_thread(
                    app,
                    tip,
                    mix.stream_seed(p, tip),
                ));
                let mut replay = ThreadSource::replay(TraceCursor {
                    records: records.clone(),
                    pos: 0,
                    private_only: *private_only,
                });
                for i in 0..n {
                    let d = live.next_access();
                    assert_eq!(replay.next_access(), d, "thread {tid} draw {i}");
                }
                tid += 1;
            }
        }
    }

    #[test]
    fn record_covers_bulk_draws() {
        let mix = WorkloadMix::from_spec(&MixSpec::Named(vec!["omnet".into()])).unwrap();
        let app = &mix.processes()[0];
        let mut src =
            ThreadSource::synthetic(AccessStream::for_thread(app, 0, mix.stream_seed(0, 0)));
        let mut bulk = vec![0u64; 10];
        src.fill_private_offsets_slice(&mut bulk);
        let mut slice = vec![0u64; 5];
        src.fill_private_offsets_slice(&mut slice);
        let logs = record(&mix, &[15]).unwrap();
        let (records, private_only) = &logs[0];
        assert!(private_only);
        let offsets: Vec<u64> = records.iter().take(15).map(|r| r.1).collect();
        let mut expect = bulk.clone();
        expect.extend_from_slice(&slice);
        assert_eq!(offsets, expect);
    }

    #[test]
    fn record_rejects_a_draw_count_per_thread_mismatch() {
        let mix = small_mix();
        for draws in [&[][..], &[1][..], &[1, 2, 3][..]] {
            let err = record(&mix, draws).unwrap_err();
            assert!(err.contains("roster of 2 threads"), "{err}");
        }
        assert_eq!(record(&mix, &[0, 0]).unwrap().len(), 2);
    }

    #[test]
    fn load_refuses_non_regular_files() {
        // A device never ends: reading it would allocate until the process
        // is killed, so the loader must refuse it before reading.
        let err = TraceSource::load("/dev/zero").unwrap_err();
        assert!(err.contains("not a regular file"), "{err}");
        let dir = temp_dir("nonregular");
        let err = TraceSource::load(dir.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a regular file"), "{err}");
        // A log that is a directory is refused the same way.
        write_trace(&dir, &small_mix(), &[(vec![], true), (vec![], true)]).unwrap();
        std::fs::remove_file(dir.join("t1.bin")).unwrap();
        std::fs::create_dir(dir.join("t1.bin")).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(
            err.contains("trace log") && err.contains("not a regular file"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_refuses_logs_longer_than_declared_and_oversized_indexes() {
        let dir = temp_dir("long");
        write_trace(
            &dir,
            &small_mix(),
            &[(vec![(TAG_PRIVATE, 1)], true), (vec![], true)],
        )
        .unwrap();
        // One whole extra record past the declared count.
        std::fs::write(dir.join("t0.bin"), [0u8; 2 * RECORD_BYTES]).unwrap();
        let err = TraceSource::load(dir.join("index.json").to_str().unwrap()).unwrap_err();
        assert!(
            err.contains("holds 2 records but the index says 1"),
            "{err}"
        );
        // An index past the cap is refused by its size, before reading.
        let big = dir.join("big.json");
        let file = std::fs::File::create(&big).unwrap();
        file.set_len(MAX_INDEX_BYTES + 1).unwrap();
        let err = TraceSource::load(big.to_str().unwrap()).unwrap_err();
        assert!(err.contains("is over"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn index_parses_leniently() {
        let idx: TraceIndex = serde_json::from_str("{}").unwrap();
        assert!(idx.threads.is_empty());
        let meta: TraceThreadMeta = serde_json::from_str("{}").unwrap();
        assert_eq!(meta.records, 0);
    }
}
