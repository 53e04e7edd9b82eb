//! Atomic persistence: temp-file + rename writes, latest-bundle discovery.

use std::fs;
use std::path::{Path, PathBuf};

use crate::bundle::{CheckpointBundle, CheckpointError};

fn io_err(path: &Path, e: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// The on-disk name for the bundle at `step` (zero-padded so lexicographic
/// and numeric order agree).
pub fn checkpoint_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt-{step:08}.json"))
}

/// Atomically persist `bundle` into `dir` (created if absent): the text is
/// written to a `.tmp` sibling and renamed into place, so readers only ever
/// observe complete bundles. Returns the final path and the byte count.
pub fn write_atomic(
    dir: &Path,
    bundle: &CheckpointBundle,
) -> Result<(PathBuf, u64), CheckpointError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = checkpoint_path(dir, bundle.step);
    let tmp = path.with_extension("json.tmp");
    let text = bundle.to_json_string();
    fs::write(&tmp, text.as_bytes()).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok((path, text.len() as u64))
}

/// Load and validate the bundle at `path`.
pub fn load_path(path: &Path) -> Result<CheckpointBundle, CheckpointError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    CheckpointBundle::from_json_str(&text)
}

/// Find the highest-step `ckpt-*.json` bundle in `dir` and load it.
/// Leftover `.tmp` files from an interrupted write are ignored.
pub fn load_latest(dir: &Path) -> Result<CheckpointBundle, CheckpointError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let step = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok());
        if let Some(step) = step {
            if best.as_ref().is_none_or(|(s, _)| step > *s) {
                best = Some((step, entry.path()));
            }
        }
    }
    let (_, path) = best.ok_or_else(|| CheckpointError::NoCheckpoint {
        dir: dir.display().to_string(),
    })?;
    load_path(&path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::ColumnBlock;
    use nbody_physics::{Particle, Vec2};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nbody-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn bundle_at(step: u64) -> CheckpointBundle {
        CheckpointBundle {
            fingerprint: "deadbeefdeadbeef".to_string(),
            step,
            seed: 7,
            blocks: vec![ColumnBlock {
                team: 0,
                particles: vec![Particle::at(step, Vec2::new(0.5, 0.5))],
            }],
        }
    }

    #[test]
    fn write_then_load_latest_picks_highest_step() {
        let dir = tmp_dir("latest");
        for step in [1u64, 12, 7] {
            write_atomic(&dir, &bundle_at(step)).unwrap();
        }
        // A stale temp file from a torn write must not confuse discovery.
        fs::write(dir.join("ckpt-00000099.json.tmp"), b"{garbage").unwrap();
        let got = load_latest(&dir).unwrap();
        assert_eq!(got.step, 12);
        assert_eq!(got, bundle_at(12));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_reports_no_checkpoint() {
        let dir = tmp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        match load_latest(&dir) {
            Err(CheckpointError::NoCheckpoint { .. }) => {}
            other => panic!("expected NoCheckpoint, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_an_io_error() {
        let dir = tmp_dir("missing");
        match load_latest(&dir) {
            Err(CheckpointError::Io { .. }) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_file_on_disk_is_rejected() {
        let dir = tmp_dir("corrupt");
        let (path, bytes) = write_atomic(&dir, &bundle_at(3)).unwrap();
        assert!(bytes > 0);
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 3);
        fs::write(&path, text).unwrap();
        match load_latest(&dir) {
            Err(CheckpointError::Parse { .. }) => {}
            other => panic!("expected Parse, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
