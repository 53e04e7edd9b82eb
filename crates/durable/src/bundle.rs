//! The `nbody-checkpoint/v1` bundle: schema, checksum, and fingerprint.

use std::fmt;

use nbody_physics::{Particle, Vec2};
use nbody_trace::Json;

/// Schema identifier carried by every bundle this crate writes.
pub const SCHEMA: &str = "nbody-checkpoint/v1";

/// Structured reasons a checkpoint bundle can fail to load or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// The file is not well-formed bundle JSON (truncation lands here).
    Parse {
        /// What the parser objected to.
        detail: String,
    },
    /// The file parsed but declares a schema this crate does not speak.
    BadSchema {
        /// The schema string found in the file.
        found: String,
    },
    /// A required bundle field is missing or has the wrong type.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// The payload does not hash to the recorded checksum (bit rot or a
    /// hand-edited bundle).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        recorded: String,
        /// Checksum computed from the payload.
        computed: String,
    },
    /// The bundle was written by a differently-configured run.
    FingerprintMismatch {
        /// Fingerprint of the run attempting the resume.
        expected: String,
        /// Fingerprint recorded in the bundle.
        found: String,
    },
    /// The directory holds no checkpoint bundles at all.
    NoCheckpoint {
        /// The directory scanned.
        dir: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, detail } => {
                write!(f, "checkpoint io error at {path}: {detail}")
            }
            CheckpointError::Parse { detail } => {
                write!(f, "checkpoint bundle is not valid (truncated or corrupt): {detail}")
            }
            CheckpointError::BadSchema { found } => {
                write!(f, "checkpoint schema {found:?} is not {SCHEMA:?}")
            }
            CheckpointError::MissingField { field } => {
                write!(f, "checkpoint bundle is missing required field {field:?}")
            }
            CheckpointError::ChecksumMismatch { recorded, computed } => write!(
                f,
                "checkpoint checksum mismatch: file records {recorded}, payload hashes to {computed}"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint was written by a different run configuration: \
                 expected fingerprint {expected}, bundle has {found}"
            ),
            CheckpointError::NoCheckpoint { dir } => {
                write!(f, "no checkpoint bundle found in {dir}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// FNV-1a over a byte string. Same rationale as the netsim `FastHasher`:
/// keys are under our control and the goal is corruption detection, not
/// adversarial collision resistance. Public so the numerical-health layer
/// (`nbody-simhealth`) builds its replica state fingerprints from the same
/// hash the checkpoint checksums use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex_of_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn f64_of_hex(s: &str) -> Result<f64, CheckpointError> {
    if s.len() != 16 {
        return Err(CheckpointError::Parse {
            detail: format!("f64 bit pattern {s:?} is not 16 hex digits"),
        });
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Parse {
            detail: format!("f64 bit pattern {s:?} is not 16 hex digits"),
        })
}

/// The run-configuration facts that must match for restored state to be
/// meaningful. Hashed into a short digest stored in every bundle and
/// re-derived (from CLI flags) on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFingerprint {
    /// Particle count the run started with.
    pub n: usize,
    /// Rank count.
    pub p: usize,
    /// Replication factor.
    pub c: usize,
    /// Method name (CLI spelling, e.g. `ca` or `ca-cutoff-1d`).
    pub method: String,
    /// Force-law name.
    pub law: String,
    /// Boundary-condition name.
    pub boundary: String,
    /// Timestep size.
    pub dt: f64,
    /// Total steps the run is configured for.
    pub steps: usize,
    /// Initialization seed.
    pub seed: u64,
    /// Cutoff radius (0.0 for all-pairs methods).
    pub cutoff: f64,
    /// Domain extent as `[min_x, min_y, max_x, max_y]`.
    pub domain: [f64; 4],
}

impl RunFingerprint {
    /// The 16-hex-digit digest stored in (and checked against) bundles.
    pub fn digest(&self) -> String {
        let canonical = format!(
            "n={};p={};c={};method={};law={};boundary={};dt={};steps={};seed={};cutoff={};domain={},{},{},{}",
            self.n,
            self.p,
            self.c,
            self.method,
            self.law,
            self.boundary,
            hex_of_f64(self.dt),
            self.steps,
            self.seed,
            hex_of_f64(self.cutoff),
            hex_of_f64(self.domain[0]),
            hex_of_f64(self.domain[1]),
            hex_of_f64(self.domain[2]),
            hex_of_f64(self.domain[3]),
        );
        format!("{:016x}", fnv1a(canonical.as_bytes()))
    }
}

/// One column (team) of particles as owned by its leader at a timestep
/// boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBlock {
    /// The team (grid column) index the block belongs to.
    pub team: usize,
    /// The team's particles, in the leader's storage order.
    pub particles: Vec<Particle>,
}

/// A full `nbody-checkpoint/v1` bundle: everything needed to continue a
/// run from a timestep boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBundle {
    /// [`RunFingerprint::digest`] of the writing run's configuration.
    pub fingerprint: String,
    /// Completed timesteps at the moment of the checkpoint; a resume
    /// continues with step `step`.
    pub step: u64,
    /// Initialization seed of the writing run (schedule/RNG state — the
    /// run's only random input, so recording it pins the whole schedule).
    pub seed: u64,
    /// Per-column particle blocks.
    pub blocks: Vec<ColumnBlock>,
}

fn vec2_json(v: Vec2) -> Json {
    Json::Arr(vec![Json::Str(hex_of_f64(v.x)), Json::Str(hex_of_f64(v.y))])
}

fn particle_json(p: &Particle) -> Json {
    Json::Obj(vec![
        ("id".to_string(), Json::Str(p.id.to_string())),
        ("pos".to_string(), vec2_json(p.pos)),
        ("vel".to_string(), vec2_json(p.vel)),
        ("force".to_string(), vec2_json(p.force)),
        ("mass".to_string(), Json::Str(hex_of_f64(p.mass))),
    ])
}

fn vec2_of_json(v: Option<&Json>, field: &'static str) -> Result<Vec2, CheckpointError> {
    let parts = v
        .and_then(Json::as_array)
        .ok_or(CheckpointError::MissingField { field })?;
    if parts.len() != 2 {
        return Err(CheckpointError::MissingField { field });
    }
    let x = f64_of_hex(
        parts[0]
            .as_str()
            .ok_or(CheckpointError::MissingField { field })?,
    )?;
    let y = f64_of_hex(
        parts[1]
            .as_str()
            .ok_or(CheckpointError::MissingField { field })?,
    )?;
    Ok(Vec2::new(x, y))
}

fn particle_of_json(v: &Json) -> Result<Particle, CheckpointError> {
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or(CheckpointError::MissingField { field: "id" })?;
    let mass = f64_of_hex(
        v.get("mass")
            .and_then(Json::as_str)
            .ok_or(CheckpointError::MissingField { field: "mass" })?,
    )?;
    Ok(Particle {
        pos: vec2_of_json(v.get("pos"), "pos")?,
        vel: vec2_of_json(v.get("vel"), "vel")?,
        force: vec2_of_json(v.get("force"), "force")?,
        mass,
        id,
    })
}

impl CheckpointBundle {
    // The canonical payload (everything except the checksum). Both the
    // writer and the loader serialize through this one builder, so the
    // checksum is always computed over identical bytes.
    fn payload_json(&self) -> Json {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                Json::Obj(vec![
                    ("team".to_string(), Json::Num(b.team as f64)),
                    (
                        "particles".to_string(),
                        Json::Arr(b.particles.iter().map(particle_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            (
                "fingerprint".to_string(),
                Json::Str(self.fingerprint.clone()),
            ),
            // u64 counters travel as decimal strings: Json numbers are f64
            // and cannot hold every u64 exactly.
            ("step".to_string(), Json::Str(self.step.to_string())),
            ("seed".to_string(), Json::Str(self.seed.to_string())),
            ("blocks".to_string(), Json::Arr(blocks)),
        ])
    }

    /// FNV-1a digest (16 hex digits) of the canonical payload text.
    pub fn checksum(&self) -> String {
        format!("{:016x}", fnv1a(self.payload_json().to_string().as_bytes()))
    }

    /// Serialize to the on-disk JSON form, checksum included.
    pub fn to_json_string(&self) -> String {
        let checksum = self.checksum();
        let mut members = match self.payload_json() {
            Json::Obj(m) => m,
            _ => unreachable!("payload is always an object"),
        };
        members.push(("checksum".to_string(), Json::Str(checksum)));
        Json::Obj(members).to_string()
    }

    /// Parse and validate a bundle: schema, required fields, checksum.
    pub fn from_json_str(text: &str) -> Result<CheckpointBundle, CheckpointError> {
        let v = Json::parse(text).map_err(|detail| CheckpointError::Parse { detail })?;
        let schema = v
            .get("schema")
            .and_then(Json::as_str)
            .ok_or(CheckpointError::MissingField { field: "schema" })?;
        if schema != SCHEMA {
            return Err(CheckpointError::BadSchema {
                found: schema.to_string(),
            });
        }
        let fingerprint = v
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or(CheckpointError::MissingField {
                field: "fingerprint",
            })?
            .to_string();
        let step = v
            .get("step")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or(CheckpointError::MissingField { field: "step" })?;
        let seed = v
            .get("seed")
            .and_then(Json::as_str)
            .and_then(|s| s.parse::<u64>().ok())
            .ok_or(CheckpointError::MissingField { field: "seed" })?;
        let raw_blocks = v
            .get("blocks")
            .and_then(Json::as_array)
            .ok_or(CheckpointError::MissingField { field: "blocks" })?;
        let mut blocks = Vec::with_capacity(raw_blocks.len());
        for rb in raw_blocks {
            let team = rb
                .get("team")
                .and_then(Json::as_f64)
                .ok_or(CheckpointError::MissingField { field: "team" })?
                as usize;
            let raw_particles = rb
                .get("particles")
                .and_then(Json::as_array)
                .ok_or(CheckpointError::MissingField { field: "particles" })?;
            let particles = raw_particles
                .iter()
                .map(particle_of_json)
                .collect::<Result<Vec<_>, _>>()?;
            blocks.push(ColumnBlock { team, particles });
        }
        let recorded = v
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or(CheckpointError::MissingField { field: "checksum" })?
            .to_string();
        let bundle = CheckpointBundle {
            fingerprint,
            step,
            seed,
            blocks,
        };
        let computed = bundle.checksum();
        if computed != recorded {
            return Err(CheckpointError::ChecksumMismatch { recorded, computed });
        }
        Ok(bundle)
    }

    /// Refuse the bundle unless it was written by a run with `expected`'s
    /// fingerprint digest.
    pub fn validate_fingerprint(&self, expected: &str) -> Result<(), CheckpointError> {
        if self.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected.to_string(),
                found: self.fingerprint.clone(),
            });
        }
        Ok(())
    }

    /// All particles across blocks, sorted by id — the canonical full-state
    /// vector a resume re-decomposes from.
    pub fn all_particles(&self) -> Vec<Particle> {
        let mut out: Vec<Particle> = self
            .blocks
            .iter()
            .flat_map(|b| b.particles.iter().copied())
            .collect();
        out.sort_by_key(|q| q.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint() -> RunFingerprint {
        RunFingerprint {
            n: 64,
            p: 8,
            c: 2,
            method: "ca".to_string(),
            law: "gravity".to_string(),
            boundary: "reflective".to_string(),
            dt: 1e-3,
            steps: 10,
            seed: 42,
            cutoff: 0.0,
            domain: [0.0, 0.0, 1.0, 1.0],
        }
    }

    fn sample_bundle() -> CheckpointBundle {
        let mk = |id: u64| Particle {
            pos: Vec2::new(0.1 * id as f64, -0.25),
            vel: Vec2::new(f64::MIN_POSITIVE, 3.5e10),
            force: Vec2::new(-0.0, 1.0 / 3.0),
            mass: 1.5,
            id,
        };
        CheckpointBundle {
            fingerprint: fingerprint().digest(),
            step: 3,
            seed: 42,
            blocks: vec![
                ColumnBlock {
                    team: 0,
                    particles: vec![mk(0), mk(2)],
                },
                ColumnBlock {
                    team: 1,
                    particles: vec![mk(1), mk(3)],
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let b = sample_bundle();
        let text = b.to_json_string();
        let back = CheckpointBundle::from_json_str(&text).unwrap();
        assert_eq!(back, b);
        // -0.0 survives: PartialEq treats it as 0.0, so check bits too.
        assert_eq!(
            back.blocks[0].particles[0].force.x.to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn corrupt_payload_is_rejected_by_checksum() {
        let text = sample_bundle().to_json_string();
        // Flip one hex digit inside a bit pattern (still valid JSON).
        let needle = hex_of_f64(1.5);
        let tampered = text.replacen(&needle, &format!("{:016x}", 1.5f64.to_bits() ^ 1), 1);
        assert_ne!(text, tampered, "tampering found its target");
        match CheckpointBundle::from_json_str(&tampered) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_bundle_is_a_parse_error() {
        let text = sample_bundle().to_json_string();
        let truncated = &text[..text.len() / 2];
        match CheckpointBundle::from_json_str(truncated) {
            Err(CheckpointError::Parse { .. }) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let text = sample_bundle()
            .to_json_string()
            .replace(SCHEMA, "nbody-checkpoint/v999");
        match CheckpointBundle::from_json_str(&text) {
            Err(CheckpointError::BadSchema { found }) => {
                assert_eq!(found, "nbody-checkpoint/v999");
            }
            other => panic!("expected bad schema, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_guards_resume() {
        let b = sample_bundle();
        b.validate_fingerprint(&fingerprint().digest()).unwrap();
        let mut other = fingerprint();
        other.dt = 2e-3;
        match b.validate_fingerprint(&other.digest()) {
            Err(CheckpointError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_digest_is_sensitive_to_every_field() {
        let base = fingerprint().digest();
        let mut variants = Vec::new();
        let mut fp = fingerprint();
        fp.n = 65;
        variants.push(fp.digest());
        let mut fp = fingerprint();
        fp.method = "ca-cutoff-1d".to_string();
        variants.push(fp.digest());
        let mut fp = fingerprint();
        fp.seed = 43;
        variants.push(fp.digest());
        let mut fp = fingerprint();
        fp.domain[2] = 2.0;
        variants.push(fp.digest());
        for v in variants {
            assert_ne!(v, base);
        }
    }

    #[test]
    fn all_particles_concatenates_and_sorts() {
        let ids: Vec<u64> = sample_bundle()
            .all_particles()
            .iter()
            .map(|q| q.id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
