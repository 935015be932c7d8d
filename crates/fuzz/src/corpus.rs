//! Persistent corpus of minimized reproducers.
//!
//! A [`Reproducer`] pins everything needed to re-examine a finding on
//! any machine: the generator seed (provenance), the exact minimized
//! program, the decision trace of the bug scenario, and the full
//! expected [`digest`](jaaru::CheckReport::digest). The committed
//! corpus under `tests/corpus/` is replayed byte-for-byte in CI — a
//! regression in exploration order, bug deduplication, race reporting,
//! or digest formatting shows up as a corpus diff.
//!
//! The on-disk format is a line-oriented text file (the workspace has
//! no serialization dependency), human-diffable in review:
//!
//! ```text
//! jaaru-fuzz-repro v1
//! name: seed-0x2a-ground-truth
//! seed: 42
//! axis: ground-truth
//! lines: 1
//! commit: true
//! fault: 0
//! op: store 0 1 1
//! trace: 0 2 1
//! digest:
//! stats: ...
//! bug: ...
//! ```
//!
//! Everything after the `digest:` marker is the expected digest,
//! verbatim.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::gen::{FaultClass, GenProgram, Op};

/// Magic first line of the reproducer format.
const MAGIC: &str = "jaaru-fuzz-repro v1";

/// A minimized, replayable finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reproducer {
    /// File stem (`<name>.repro`), unique within a corpus.
    pub name: String,
    /// Which oracle comparison the original finding diverged on (or
    /// `seeded-fault` for harvested ground-truth reproducers).
    pub axis: String,
    /// The minimized program.
    pub program: GenProgram,
    /// Decision trace replaying the bug scenario (empty for clean
    /// programs).
    pub trace: Vec<usize>,
    /// Expected base-run digest, byte-for-byte.
    pub digest: String,
}

impl Reproducer {
    /// Serializes to the on-disk text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "name: {}", self.name);
        let _ = writeln!(out, "seed: {}", self.program.seed);
        let _ = writeln!(out, "axis: {}", self.axis);
        let _ = writeln!(out, "lines: {}", self.program.lines);
        let _ = writeln!(out, "commit: {}", self.program.commit);
        if let Some(f) = self.program.fault {
            let _ = writeln!(out, "fault: {f}");
        }
        // Written only for non-default classes, so pre-fault-class
        // corpus files and newly-written missing-flush ones stay
        // byte-identical.
        if self.program.fault_class != FaultClass::MissingFlush {
            let _ = writeln!(out, "class: {}", self.program.fault_class.as_str());
        }
        for op in &self.program.ops {
            let _ = writeln!(out, "op: {op}");
        }
        let _ = writeln!(
            out,
            "trace: {}",
            self.trace
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        );
        let _ = writeln!(out, "digest:");
        out.push_str(&self.digest);
        out
    }

    /// Parses the on-disk text format.
    pub fn parse(text: &str) -> Result<Reproducer, String> {
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err(format!("missing {MAGIC:?} header"));
        }
        let mut name = None;
        let mut seed = None;
        let mut axis = None;
        let mut layout_lines = None;
        let mut commit = None;
        let mut fault = None;
        let mut class = FaultClass::MissingFlush;
        let mut ops = Vec::new();
        let mut trace = Vec::new();
        let mut digest = String::new();
        let mut in_digest = false;
        for line in lines {
            if in_digest {
                digest.push_str(line);
                digest.push('\n');
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed line {line:?}"))?;
            let value = value.trim();
            match key {
                "name" => name = Some(value.to_string()),
                "seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
                "axis" => axis = Some(value.to_string()),
                "lines" => layout_lines = Some(value.parse::<usize>().map_err(|e| e.to_string())?),
                "commit" => commit = Some(value.parse::<bool>().map_err(|e| e.to_string())?),
                "fault" => fault = Some(value.parse::<u8>().map_err(|e| e.to_string())?),
                "class" => class = FaultClass::parse(value)?,
                "op" => ops.push(Op::parse(value)?),
                "trace" => {
                    for tok in value.split_whitespace() {
                        trace.push(tok.parse::<usize>().map_err(|e| e.to_string())?);
                    }
                }
                "digest" => in_digest = true,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        let program = GenProgram::try_from_parts(
            seed.ok_or("missing seed")?,
            layout_lines.ok_or("missing lines")?,
            ops,
            commit.ok_or("missing commit")?,
            fault,
            class,
        )?;
        Ok(Reproducer {
            name: name.ok_or("missing name")?,
            axis: axis.ok_or("missing axis")?,
            program,
            trace,
            digest,
        })
    }

    /// Writes `<dir>/<name>.repro`, creating the directory.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.repro", self.name));
        fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

/// Loads every `*.repro` file in `dir`, sorted by file name (an absent
/// directory is an empty corpus).
pub fn load_dir(dir: &Path) -> Result<Vec<Reproducer>, String> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "repro"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(Reproducer::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FaultMode};

    fn sample() -> Reproducer {
        Reproducer {
            name: "seed-0x7-seeded-fault".to_string(),
            axis: "seeded-fault".to_string(),
            program: generate(7, 10, FaultMode::Force),
            trace: vec![0, 2, 1],
            digest: "stats: 1 scenarios\nbug: something trace [0, 2, 1]\n".to_string(),
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let r = sample();
        assert_eq!(Reproducer::parse(&r.to_text()).unwrap(), r);
        // Default class is omitted from the text, so legacy files and
        // fresh missing-flush files share the format.
        assert!(!r.to_text().contains("class:"));
        // Clean program, no fault, empty trace.
        let r = Reproducer {
            name: "clean".into(),
            axis: "jobs-2".into(),
            program: generate(9, 10, FaultMode::Never),
            trace: vec![],
            digest: "stats: x\n".into(),
        };
        assert_eq!(Reproducer::parse(&r.to_text()).unwrap(), r);
        // Non-default classes roundtrip through the `class:` key.
        let r = Reproducer {
            name: "torn".into(),
            axis: "seeded-fault".into(),
            program: GenProgram::from_parts(3, 1, vec![], true, Some(0))
                .with_class(crate::gen::FaultClass::Torn),
            trace: vec![0],
            digest: "stats: y\n".into(),
        };
        let text = r.to_text();
        assert!(text.contains("class: torn"), "{text}");
        assert_eq!(Reproducer::parse(&text).unwrap(), r);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Reproducer::parse("not a repro").is_err());
        assert!(Reproducer::parse(MAGIC).is_err(), "missing fields");
        let mut text = sample().to_text();
        text = text.replace("op: store", "op: warble");
        assert!(Reproducer::parse(&text).is_err());

        // Well-formed lines whose values break the program layout are
        // errors too, not panics.
        let repro = |fields: &str| {
            format!("{MAGIC}\nname: bad\nseed: 1\naxis: seeded-fault\n{fields}trace:\ndigest:\n")
        };
        for (fields, error) in [
            ("lines: 0\ncommit: true\n", "lines out of range"),
            (
                "lines: 3\ncommit: true\nfault: 7\n",
                "fault line out of range",
            ),
            (
                "lines: 3\ncommit: false\nfault: 1\n",
                "a seeded fault requires the commit epilogue",
            ),
            (
                "lines: 3\ncommit: true\nfault: 0\nclass: torn\n",
                "a torn fault must be on the last data line",
            ),
            (
                "lines: 1\ncommit: true\nop: store 2 0 5\n",
                "op line out of range: store 2 0 5",
            ),
            (
                "lines: 1\ncommit: true\nop: load 0 9\n",
                "op slot out of range: load 0 9",
            ),
        ] {
            assert_eq!(
                Reproducer::parse(&repro(fields)),
                Err(error.to_string()),
                "{fields}"
            );
        }
    }

    #[test]
    fn corpus_directory_roundtrip() {
        let dir = std::env::temp_dir().join(format!("jaaru-fuzz-corpus-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = sample();
        let mut b = sample();
        b.name = "another".to_string();
        a.write_to(&dir).unwrap();
        b.write_to(&dir).unwrap();
        fs::write(dir.join("README.md"), "ignored").unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(
            loaded,
            vec![b, a],
            "sorted by file name, non-.repro ignored"
        );
        let bad = dir.join("bad.repro");
        let good = sample();
        let lines = format!("lines: {}", good.program.lines);
        fs::write(&bad, good.to_text().replace(&lines, "lines: 0")).unwrap();
        assert_eq!(
            load_dir(&dir),
            Err(format!("{}: lines out of range", bad.display()))
        );
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load_dir(&dir).unwrap(), vec![]);
    }
}
