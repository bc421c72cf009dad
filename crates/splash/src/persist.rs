//! Save and load trained SLIM models.
//!
//! A saved file is one self-contained **artifact**: the full
//! [`SplashConfig`], the feature mode, the model's input/output
//! dimensions, every trainable parameter, the optional `SAVEDOPT`
//! optimizer section and — for a streaming engine — the engine's
//! streaming state: the witness (augmenter tables, ring capacity `k`,
//! stream clock) and every per-node ring, merged across shards. Loading
//! decodes that state instead of re-running the positional embedding and
//! replaying the training prefix, so an artifact restores exactly the
//! engine that saved it, at any shard count: a checkpoint without a WAL.
//! A weights-only file ([`save_model`], a durable checkpoint's
//! `model.<e>.bin`) carries no state and cannot back a streaming engine on
//! its own.
//!
//! # Layout
//!
//! Little-endian, written and parsed by hand: the model is a flat list of
//! shaped `f32` tensors plus a dozen scalars, which does not justify a
//! serialization dependency.
//!
//! | section   | content |
//! |-----------|---------|
//! | header    | magic `SPLASHM\x01`, format version `u32` (3) |
//! | weights   | config, feature mode, dimensions, every parameter tensor |
//! | `SAVEDOPT`| optional: Adam step count and moments |
//! | witness   | optional: magic `SPLASHG`, augmenter tables, `k`, clock |
//! | rings     | with the witness: magic `SPLASHD`, every non-empty ring |
//! | checksum  | FNV-1a (64-bit) of every byte before it |
//!
//! The witness and ring sections use the same encoders as the durable
//! checkpoint's `witness.<e>.bin` and `state.<e>.bin.shard<i>` files
//! ([`crate::durable`]), which call into this module.
//!
//! Failures are typed ([`SplashError`]): a file that is not a SPLASH model
//! or has been damaged loads as [`SplashError::CorruptModel`] (a flipped
//! byte names the checksum), a file from another format revision —
//! including every file written before the state sections existed and the
//! retired `SPLASHS` shard manifests — as
//! [`SplashError::PersistVersionMismatch`], and plain filesystem trouble
//! as [`SplashError::Io`] — so a serving layer can distinguish "retry with
//! the right file" from "re-export the model" from "fix the disk".

use std::io::{self, Read, Write};
use std::path::Path;

use embed::{GraRepConfig, Node2VecConfig};
use nn::{Matrix, Parameterized};
use rand::{rngs::StdRng, SeedableRng};

use crate::augment::{AugmenterState, FeatureProcess};
use crate::capture::{CapturedNeighbor, InputFeatures};
use crate::config::{PositionalSource, SplashConfig};
use crate::error::SplashError;
use crate::slim::{AdamState, SlimModel};
use crate::stream::{assemble_stream_state, RingState, StreamState, WitnessSnapshot};

const MAGIC: &[u8; 8] = b"SPLASHM\x01";
/// Format revision of the artifact. v3 adds the witness, ring and
/// checksum sections; it is numbered past the retired `SPLASHS` manifest's
/// v2 so that every older file reports an older version.
const VERSION: u32 = 3;

/// Magic of the retired sharded manifest (v1 and v2). Recognised only to
/// report such a file as [`SplashError::PersistVersionMismatch`].
const LEGACY_SHARD_MAGIC: &[u8; 8] = b"SPLASHS\x01";

/// Tag of the optional optimizer-state section ([`SavedModel::opt`]).
const OPT_MAGIC: &[u8; 8] = b"SAVEDOPT";
/// Format revision of the optimizer-state section.
const OPT_VERSION: u32 = 1;

/// Magic of a witness section (augmenter + ring capacity + stream clock).
const WITNESS_MAGIC: &[u8; 8] = b"SPLASHG\x01";
/// Format revision of the witness section.
const WITNESS_VERSION: u32 = 1;
/// Magic of a ring section.
const RINGS_MAGIC: &[u8; 8] = b"SPLASHD\x01";
/// Format revision of the ring section (v2: rings only — the augmenter
/// and clock live in the witness section).
const RINGS_VERSION: u32 = 2;

/// Upper bound on any persisted structural dimension. A corrupt (or
/// hostile) file claiming `hidden = 2^60` used to abort the process on
/// allocation inside `SlimModel::new` before any typed error could be
/// reported; every dimension is now checked against this bound *before*
/// the architecture is instantiated, so impossible values surface as
/// [`SplashError::CorruptModel`].
pub(crate) const MAX_DIM: u64 = 1 << 20;

/// Upper bound on any single weight tensor's element count (256 MiB of
/// `f32`). Individually sane dimensions can still multiply into an
/// allocation abort (`hidden = feat_dim = 2^20` ⇒ a 4 TiB matrix), so the
/// per-tensor products are bounded too, before `SlimModel::new` runs.
const MAX_TENSOR_ELEMS: u64 = 1 << 26;

/// Upper bound on node-indexed table lengths parsed from a state section
/// (node ids are `u32`).
pub(crate) const MAX_NODES: u64 = 1 << 32;
/// Upper bound on any single state-section table allocation (elements),
/// so a corrupt count surfaces as a typed error instead of an allocation
/// abort — the same discipline as [`MAX_TENSOR_ELEMS`].
const MAX_STATE_ELEMS: u64 = 1 << 30;

/// A model restored from disk, with everything needed to serve it.
#[derive(Debug)]
pub struct SavedModel {
    /// The configuration the model was trained with.
    pub cfg: SplashConfig,
    /// The feature mode the model consumes (the selected process for a full
    /// SPLASH run, or the fixed mode of an ablation run) — this is what
    /// `capture` must be called with at serving time.
    pub mode: InputFeatures,
    /// Node-feature input width.
    pub feat_dim: usize,
    /// Edge-feature input width.
    pub edge_feat_dim: usize,
    /// Output (label) width.
    pub out_dim: usize,
    /// The restored model.
    pub model: SlimModel,
    /// Checkpointed optimizer state, when the file carries a `SAVEDOPT`
    /// section (saved from an online model) — what makes resumed online
    /// fine-tuning bit-identical to an uninterrupted run.
    pub opt: Option<AdamState>,
    /// The streaming engine's state at save time (witness plus every
    /// ring); `None` for a weights-only file. Checked against the model
    /// when an engine is built from it.
    pub(crate) state: Option<StreamState>,
}

impl SavedModel {
    /// The selected augmentation process, when the mode is a single process.
    pub fn selected(&self) -> Option<FeatureProcess> {
        match self.mode {
            InputFeatures::Process(p) => Some(p),
            _ => None,
        }
    }
}

/// Writes `model` and its context to `path` as a weights-only artifact
/// (no streaming state). The pipeline's ablation runs save this way;
/// streaming engines save through [`crate::StreamingPredictor::save`],
/// [`crate::ShardedPredictor::save`] or
/// [`crate::SplashService::save_model`], which add the witness and rings.
///
/// `model` is taken mutably only because parameter access goes through
/// [`Parameterized::params_mut`]; values are not modified.
pub fn save_model(
    path: &Path,
    model: &mut SlimModel,
    cfg: &SplashConfig,
    mode: InputFeatures,
    feat_dim: usize,
    edge_feat_dim: usize,
    out_dim: usize,
) -> Result<(), SplashError> {
    let bytes =
        artifact_bytes(model, cfg, mode, feat_dim, edge_feat_dim, out_dim, None, None)?;
    std::fs::write(path, bytes)?;
    Ok(())
}

/// Serializes a complete artifact into memory: header, weights, the
/// optional `SAVEDOPT` section, the optional streaming state (`witness`
/// plus `rings`, merged across shards) and the trailing checksum. The
/// durable checkpoint writes the weights-only form of these bytes through
/// its crash-injection seam; every save writes them to a file.
#[allow(clippy::too_many_arguments)]
pub(crate) fn artifact_bytes(
    model: &mut SlimModel,
    cfg: &SplashConfig,
    mode: InputFeatures,
    feat_dim: usize,
    edge_feat_dim: usize,
    out_dim: usize,
    opt: Option<&AdamState>,
    state: Option<(&WitnessSnapshot, &[RingState])>,
) -> Result<Vec<u8>, SplashError> {
    let mut w = Vec::new();
    w.write_all(MAGIC)?;
    put_u32(&mut w, VERSION)?;
    write_config(&mut w, cfg)?;
    put_u8(&mut w, match mode {
        InputFeatures::Zero => 0,
        InputFeatures::RawRandom => 1,
        InputFeatures::External => 2,
        InputFeatures::Process(FeatureProcess::Random) => 3,
        InputFeatures::Process(FeatureProcess::Positional) => 4,
        InputFeatures::Process(FeatureProcess::Structural) => 5,
        InputFeatures::Joint => 6,
    })?;
    put_u64(&mut w, feat_dim as u64)?;
    put_u64(&mut w, edge_feat_dim as u64)?;
    put_u64(&mut w, out_dim as u64)?;

    let params = model.params_mut();
    put_u64(&mut w, params.len() as u64)?;
    for p in params {
        let (r, c) = p.value.shape();
        put_u64(&mut w, r as u64)?;
        put_u64(&mut w, c as u64)?;
        for &x in p.value.data() {
            put_f32(&mut w, x)?;
        }
    }
    if let Some(state) = opt {
        w.write_all(OPT_MAGIC)?;
        put_u32(&mut w, OPT_VERSION)?;
        put_u64(&mut w, state.steps)?;
        put_u64(&mut w, state.moments.len() as u64)?;
        for (m, v) in &state.moments {
            // Shapes are implied: the section is only valid against the
            // architecture whose parameters precede it, and the reader
            // checks each pair against the rebuilt model's shapes.
            for &x in m.data() {
                put_f32(&mut w, x)?;
            }
            for &x in v.data() {
                put_f32(&mut w, x)?;
            }
        }
    }
    if let Some((witness, rings)) = state {
        write_witness(&mut w, witness)?;
        write_rings(&mut w, rings, 0, 1)?;
    }
    let checksum = fnv1a(&w);
    put_u64(&mut w, checksum)?;
    Ok(w)
}

/// Reads an artifact written by any save.
///
/// Typed failures: a wrong magic, truncation, a checksum mismatch, or
/// impossible tags/shapes load as [`SplashError::CorruptModel`]; a
/// recognisable SPLASH file from another format revision as
/// [`SplashError::PersistVersionMismatch`]; filesystem errors as
/// [`SplashError::Io`].
pub fn load_model(path: &Path) -> Result<SavedModel, SplashError> {
    read_artifact(&std::fs::read(path)?)
}

/// [`load_model`]'s body over the file's bytes: header, checksum, then the
/// sections in order.
fn read_artifact(bytes: &[u8]) -> Result<SavedModel, SplashError> {
    let truncated = || SplashError::CorruptModel { what: "file is truncated".into() };
    let magic = bytes.get(..8).ok_or_else(truncated)?;
    if magic != MAGIC && magic != LEGACY_SHARD_MAGIC {
        return Err(SplashError::CorruptModel {
            what: "not a SPLASH model file (bad magic)".into(),
        });
    }
    let version = bytes.get(8..12).ok_or_else(truncated)?;
    let version = u32::from_le_bytes(version.try_into().expect("four bytes"));
    if magic == LEGACY_SHARD_MAGIC || version != VERSION {
        return Err(SplashError::PersistVersionMismatch { found: version, supported: VERSION });
    }
    let body_end = bytes.len().checked_sub(8).filter(|&end| end >= 12).ok_or_else(truncated)?;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("eight bytes"));
    if fnv1a(&bytes[..body_end]) != stored {
        return Err(SplashError::CorruptModel {
            what: "artifact fails its checksum (damaged or truncated)".into(),
        });
    }
    let mut r = &bytes[12..body_end];
    let mut saved = read_weights(&mut r).map_err(corrupt_or_io)?;
    if r.starts_with(WITNESS_MAGIC) {
        let witness = read_witness(&mut r)?;
        let rings = read_rings(&mut r, witness.k)?;
        saved.state = Some(assemble_stream_state(witness, vec![rings])?);
    }
    if !r.is_empty() {
        return Err(SplashError::CorruptModel {
            what: "trailing bytes are not a SAVEDOPT or streaming-state section".into(),
        });
    }
    Ok(saved)
}

/// FNV-1a over `bytes` — enough to catch a damaged or spliced file;
/// integrity against adversaries is out of scope for a local model store.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Classifies an error raised while parsing a file whose magic already
/// checked out: anything that means "the bytes are wrong" (truncation,
/// impossible tags or shapes) is a corrupt model; the rest is plain I/O.
pub(crate) fn corrupt_or_io(e: io::Error) -> SplashError {
    match e.kind() {
        io::ErrorKind::UnexpectedEof => SplashError::CorruptModel {
            what: "file is truncated".into(),
        },
        io::ErrorKind::InvalidData => SplashError::CorruptModel { what: e.to_string() },
        _ => SplashError::Io(e),
    }
}

/// Parses the weights section and the optional `SAVEDOPT` section that
/// follows it.
///
/// The deserialized config is **validated before the architecture is
/// instantiated**: `SplashConfig::validate` plus a sanity bound on every
/// structural dimension ([`MAX_DIM`]). A corrupt or hostile file used to
/// reach `SlimModel::new` unchecked, where an absurd `hidden` aborted the
/// process on allocation; it now reports [`SplashError::CorruptModel`]
/// (pinned by the crafted-artifact tests).
fn read_weights(mut r: &mut &[u8]) -> io::Result<SavedModel> {
    let cfg = read_config(&mut r)?;
    let mode = match get_u8(&mut r)? {
        0 => InputFeatures::Zero,
        1 => InputFeatures::RawRandom,
        2 => InputFeatures::External,
        3 => InputFeatures::Process(FeatureProcess::Random),
        4 => InputFeatures::Process(FeatureProcess::Positional),
        5 => InputFeatures::Process(FeatureProcess::Structural),
        6 => InputFeatures::Joint,
        t => return Err(bad(format!("unknown feature-mode tag {t}"))),
    };
    let feat_dim = sane_dim("node-feature width", get_u64(&mut r)?)?;
    let edge_feat_dim = sane_dim("edge-feature width", get_u64(&mut r)?)?;
    let out_dim = sane_dim("output width", get_u64(&mut r)?)?;
    if out_dim == 0 {
        return Err(bad("output width must be positive".to_string()));
    }
    cfg.validate()
        .map_err(|e| bad(format!("stored config fails validation: {e}")))?;
    for (name, value) in [
        ("feat_dim", cfg.feat_dim),
        ("k", cfg.k),
        ("time_dim", cfg.time_dim),
        ("hidden", cfg.hidden),
        ("batch_size", cfg.batch_size),
    ] {
        sane_dim(name, value as u64)?;
    }
    // Dimensions are individually bounded (≤ 2^20, so these u64 products
    // cannot overflow); now bound every weight tensor SlimModel::new will
    // allocate — the largest inputs to each of its three MLPs.
    let (dh, dt) = (cfg.hidden as u64, cfg.time_dim as u64);
    let raw_dim = feat_dim as u64 + edge_feat_dim as u64 + dt;
    for (name, elems) in [
        ("message-MLP input weight", raw_dim * dh),
        ("aggregate-MLP input weight", (feat_dim as u64 + dh) * dh),
        ("hidden weight", dh * dh),
        ("decoder output weight", dh * out_dim as u64),
    ] {
        if elems > MAX_TENSOR_ELEMS {
            return Err(bad(format!(
                "impossible {name}: {elems} elements (limit {MAX_TENSOR_ELEMS})"
            )));
        }
    }

    // Rebuild the architecture, then overwrite every parameter in the
    // stable `params_mut` order.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x511D);
    let mut model = SlimModel::new(&cfg, feat_dim, edge_feat_dim, out_dim, &mut rng);
    let stored = get_u64(&mut r)? as usize;
    let params = model.params_mut();
    if stored != params.len() {
        return Err(bad(format!(
            "parameter count mismatch: file has {stored}, architecture has {}",
            params.len()
        )));
    }
    for (i, p) in params.into_iter().enumerate() {
        let rows = get_u64(&mut r)? as usize;
        let cols = get_u64(&mut r)? as usize;
        if (rows, cols) != p.value.shape() {
            return Err(bad(format!(
                "parameter {i} shape mismatch: file {rows}x{cols}, architecture {:?}",
                p.value.shape()
            )));
        }
        for x in p.value.data_mut() {
            *x = get_f32(&mut r)?;
        }
    }
    let opt = if r.starts_with(OPT_MAGIC) {
        *r = &r[OPT_MAGIC.len()..];
        Some(read_opt_section(r, &mut model)?)
    } else {
        None
    };
    Ok(SavedModel { cfg, mode, feat_dim, edge_feat_dim, out_dim, model, opt, state: None })
}

/// Bounds-checks one persisted structural dimension against [`MAX_DIM`].
pub(crate) fn sane_dim(name: &str, value: u64) -> io::Result<usize> {
    if value > MAX_DIM {
        return Err(bad(format!("impossible {name} {value} (limit {MAX_DIM})")));
    }
    Ok(value as usize)
}

/// Parses a `SAVEDOPT` section after its tag; anything that is not a
/// complete, architecture-matching section is corruption.
fn read_opt_section<R: Read>(r: &mut R, model: &mut SlimModel) -> io::Result<AdamState> {
    let version = get_u32(r)?;
    if version != OPT_VERSION {
        return Err(bad(format!(
            "unknown SAVEDOPT section version {version} (this build reads {OPT_VERSION})"
        )));
    }
    let steps = get_u64(r)?;
    let stored = get_u64(r)? as usize;
    let params = model.params_mut();
    if stored != params.len() {
        return Err(bad(format!(
            "SAVEDOPT moment count mismatch: file has {stored}, architecture has {}",
            params.len()
        )));
    }
    let mut moments = Vec::with_capacity(stored);
    for p in params {
        let (rows, cols) = p.value.shape();
        let mut m = Matrix::zeros(rows, cols);
        for x in m.data_mut() {
            *x = get_f32(r)?;
        }
        let mut v = Matrix::zeros(rows, cols);
        for x in v.data_mut() {
            *x = get_f32(r)?;
        }
        moments.push((m, v));
    }
    Ok(AdamState { steps, moments })
}

fn write_config<W: Write>(w: &mut W, cfg: &SplashConfig) -> io::Result<()> {
    put_u64(w, cfg.feat_dim as u64)?;
    put_u64(w, cfg.k as u64)?;
    put_u64(w, cfg.time_dim as u64)?;
    put_u64(w, cfg.hidden as u64)?;
    put_f32(w, cfg.lambda_s)?;
    put_f32(w, cfg.degree_alpha)?;
    put_f32(w, cfg.time_alpha)?;
    put_f32(w, cfg.time_beta)?;
    put_f32(w, cfg.lr)?;
    put_u64(w, cfg.epochs as u64)?;
    put_u64(w, cfg.batch_size as u64)?;
    put_u64(w, cfg.selector_epochs as u64)?;
    put_f32(w, cfg.selector_lr)?;
    put_u64(w, cfg.seed)?;
    // node2vec
    put_u64(w, cfg.node2vec.walk.walks_per_node as u64)?;
    put_u64(w, cfg.node2vec.walk.walk_length as u64)?;
    put_f32(w, cfg.node2vec.walk.p)?;
    put_f32(w, cfg.node2vec.walk.q)?;
    put_u64(w, cfg.node2vec.walk.threads as u64)?;
    put_u64(w, cfg.node2vec.sgns.dim as u64)?;
    put_u64(w, cfg.node2vec.sgns.window as u64)?;
    put_u64(w, cfg.node2vec.sgns.negatives as u64)?;
    put_u64(w, cfg.node2vec.sgns.epochs as u64)?;
    put_f32(w, cfg.node2vec.sgns.lr)?;
    // positional source
    match cfg.positional {
        PositionalSource::Node2Vec => put_u8(w, 0)?,
        PositionalSource::GraRep(g) => {
            put_u8(w, 1)?;
            put_u64(w, g.dim as u64)?;
            put_u64(w, g.transition_steps as u64)?;
            put_u64(w, g.svd_iters as u64)?;
        }
    }
    Ok(())
}

fn read_config<R: Read>(r: &mut R) -> io::Result<SplashConfig> {
    // Field order mirrors `write_config` exactly.
    let feat_dim = get_u64(r)? as usize;
    let k = get_u64(r)? as usize;
    let time_dim = get_u64(r)? as usize;
    let hidden = get_u64(r)? as usize;
    let lambda_s = get_f32(r)?;
    let degree_alpha = get_f32(r)?;
    let time_alpha = get_f32(r)?;
    let time_beta = get_f32(r)?;
    let lr = get_f32(r)?;
    let epochs = get_u64(r)? as usize;
    let batch_size = get_u64(r)? as usize;
    let selector_epochs = get_u64(r)? as usize;
    let selector_lr = get_f32(r)?;
    let seed = get_u64(r)?;
    let node2vec = Node2VecConfig {
        walk: embed::WalkConfig {
            walks_per_node: get_u64(r)? as usize,
            walk_length: get_u64(r)? as usize,
            p: get_f32(r)?,
            q: get_f32(r)?,
            threads: get_u64(r)? as usize,
        },
        sgns: embed::SkipGramConfig {
            dim: get_u64(r)? as usize,
            window: get_u64(r)? as usize,
            negatives: get_u64(r)? as usize,
            epochs: get_u64(r)? as usize,
            lr: get_f32(r)?,
        },
    };
    let positional = match get_u8(r)? {
        0 => PositionalSource::Node2Vec,
        1 => PositionalSource::GraRep(GraRepConfig {
            dim: get_u64(r)? as usize,
            transition_steps: get_u64(r)? as usize,
            svd_iters: get_u64(r)? as usize,
        }),
        t => return Err(bad(format!("unknown positional-source tag {t}"))),
    };
    Ok(SplashConfig {
        feat_dim,
        k,
        time_dim,
        hidden,
        lambda_s,
        degree_alpha,
        time_alpha,
        time_beta,
        node2vec,
        positional,
        lr,
        epochs,
        batch_size,
        selector_epochs,
        selector_lr,
        seed,
    })
}

// ---------------------------------------------------------------------------
// Streaming-state sections: the witness and the rings. A durable
// checkpoint writes them as its `witness.<e>.bin` and per-shard ring
// files; an artifact carries them after its weights.

pub(crate) fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

pub(crate) fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_bits(u64::from_le_bytes(b)))
}

fn write_matrix<W: Write>(w: &mut W, m: &Matrix) -> io::Result<()> {
    put_u64(w, m.rows() as u64)?;
    put_u64(w, m.cols() as u64)?;
    for &x in m.data() {
        put_f32(w, x)?;
    }
    Ok(())
}

fn read_matrix<R: Read>(r: &mut R, what: &str) -> io::Result<Matrix> {
    let rows = get_u64(r)?;
    let cols = get_u64(r)?;
    if rows > MAX_NODES || cols > MAX_DIM || rows.saturating_mul(cols) > MAX_STATE_ELEMS
    {
        return Err(bad(format!("impossible {what} shape {rows}x{cols}")));
    }
    let mut m = Matrix::zeros(rows as usize, cols as usize);
    for x in m.data_mut() {
        *x = get_f32(r)?;
    }
    Ok(m)
}

fn write_prop<W: Write>(w: &mut W, prop: &[Option<Vec<f32>>]) -> io::Result<()> {
    put_u64(w, prop.len() as u64)?;
    for slot in prop {
        match slot {
            None => put_u8(w, 0)?,
            Some(f) => {
                put_u8(w, 1)?;
                put_u64(w, f.len() as u64)?;
                for &x in f {
                    put_f32(w, x)?;
                }
            }
        }
    }
    Ok(())
}

fn read_prop<R: Read>(r: &mut R, dv: usize, what: &str) -> io::Result<Vec<Option<Vec<f32>>>> {
    let len = get_u64(r)?;
    if len > MAX_NODES {
        return Err(bad(format!("impossible {what} length {len}")));
    }
    let mut out = Vec::with_capacity(len.min(1 << 20) as usize);
    for _ in 0..len {
        match get_u8(r)? {
            0 => out.push(None),
            1 => {
                let n = get_u64(r)? as usize;
                if n != dv {
                    return Err(bad(format!(
                        "{what} entry has {n} elements, feature dim is {dv}"
                    )));
                }
                let mut f = vec![0.0f32; n];
                for x in &mut f {
                    *x = get_f32(r)?;
                }
                out.push(Some(f));
            }
            t => return Err(bad(format!("unknown {what} slot tag {t}"))),
        }
    }
    Ok(out)
}

pub(crate) fn write_neighbor<W: Write>(w: &mut W, e: &CapturedNeighbor) -> io::Result<()> {
    put_u32(w, e.other)?;
    put_f64(w, e.time)?;
    put_f32(w, e.weight)?;
    put_u64(w, e.feat.len() as u64)?;
    for &x in &e.feat {
        put_f32(w, x)?;
    }
    put_u64(w, e.edge_feat.len() as u64)?;
    for &x in &e.edge_feat {
        put_f32(w, x)?;
    }
    Ok(())
}

pub(crate) fn read_neighbor<R: Read>(r: &mut R) -> io::Result<CapturedNeighbor> {
    let other = get_u32(r)?;
    let time = get_f64(r)?;
    let weight = get_f32(r)?;
    let feat_len = sane_dim("ring-entry feature width", get_u64(r)?)?;
    let mut feat = vec![0.0f32; feat_len];
    for x in &mut feat {
        *x = get_f32(r)?;
    }
    let edge_len = sane_dim("ring-entry edge-feature width", get_u64(r)?)?;
    let mut edge_feat = vec![0.0f32; edge_len];
    for x in &mut edge_feat {
        *x = get_f32(r)?;
    }
    Ok(CapturedNeighbor { other, feat, edge_feat, time, weight })
}

/// Writes a witness section: stream clock, ring capacity, and the full
/// augmenter/tracker state — everything that is a global function of the
/// edge stream, written once per engine regardless of the shard count.
pub(crate) fn write_witness<W: Write>(w: &mut W, witness: &WitnessSnapshot) -> io::Result<()> {
    w.write_all(WITNESS_MAGIC)?;
    put_u32(w, WITNESS_VERSION)?;
    put_f64(w, witness.last_time)?;
    put_u64(w, witness.k as u64)?;

    let a = &witness.augmenter;
    put_u64(w, a.dv as u64)?;
    put_u64(w, a.seen.len() as u64)?;
    for &b in &a.seen {
        put_u8(w, b as u8)?;
    }
    write_matrix(w, &a.random_seen)?;
    write_matrix(w, &a.positional_seen)?;
    write_prop(w, &a.random_prop)?;
    write_prop(w, &a.positional_prop)?;
    put_u64(w, a.degrees.len() as u64)?;
    for &d in &a.degrees {
        put_u64(w, d)?;
    }
    put_u64(w, a.degrees_total)
}

/// Parses a witness section from the front of `r`, advancing it.
pub(crate) fn read_witness(r: &mut &[u8]) -> Result<WitnessSnapshot, SplashError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(corrupt_or_io)?;
    if &magic != WITNESS_MAGIC {
        return Err(SplashError::CorruptModel {
            what: "not a SPLASH witness snapshot (bad magic)".into(),
        });
    }
    let version = get_u32(r).map_err(corrupt_or_io)?;
    if version != WITNESS_VERSION {
        return Err(SplashError::PersistVersionMismatch {
            found: version,
            supported: WITNESS_VERSION,
        });
    }
    read_witness_body(r).map_err(corrupt_or_io)
}

fn read_witness_body<R: Read>(r: &mut R) -> io::Result<WitnessSnapshot> {
    let last_time = get_f64(r)?;
    let k = sane_dim("ring capacity", get_u64(r)?)?;

    let dv = sane_dim("feature dim", get_u64(r)?)?;
    let seen_len = get_u64(r)?;
    if seen_len > MAX_NODES {
        return Err(bad(format!("impossible seen-table length {seen_len}")));
    }
    let mut seen = Vec::with_capacity(seen_len.min(1 << 20) as usize);
    for _ in 0..seen_len {
        seen.push(match get_u8(r)? {
            0 => false,
            1 => true,
            t => return Err(bad(format!("seen flag is {t}, not 0/1"))),
        });
    }
    let random_seen = read_matrix(r, "random-feature table")?;
    let positional_seen = read_matrix(r, "positional-feature table")?;
    if random_seen.cols() != dv || positional_seen.cols() != dv {
        return Err(bad("feature tables disagree with the feature dim".to_string()));
    }
    let random_prop = read_prop(r, dv, "propagated random features")?;
    let positional_prop = read_prop(r, dv, "propagated positional features")?;
    let deg_len = get_u64(r)?;
    if deg_len > MAX_NODES {
        return Err(bad(format!("impossible degree-table length {deg_len}")));
    }
    let mut degrees = Vec::with_capacity(deg_len.min(1 << 20) as usize);
    for _ in 0..deg_len {
        degrees.push(get_u64(r)?);
    }
    let degrees_total = get_u64(r)?;

    Ok(WitnessSnapshot {
        augmenter: AugmenterState {
            dv,
            seen,
            random_seen,
            positional_seen,
            random_prop,
            positional_prop,
            degrees,
            degrees_total,
        },
        k,
        last_time,
    })
}

/// Writes a ring section: `rings` (non-empty rings, storage order with
/// cursors) as partition `shard` of `shards`. An artifact writes every
/// ring as partition 0 of 1.
pub(crate) fn write_rings<W: Write>(
    w: &mut W,
    rings: &[RingState],
    shard: usize,
    shards: usize,
) -> io::Result<()> {
    w.write_all(RINGS_MAGIC)?;
    put_u32(w, RINGS_VERSION)?;
    put_u64(w, shard as u64)?;
    put_u64(w, shards as u64)?;
    put_u64(w, rings.len() as u64)?;
    for ring in rings {
        put_u32(w, ring.node)?;
        put_u64(w, ring.head as u64)?;
        put_u64(w, ring.entries.len() as u64)?;
        for e in &ring.entries {
            write_neighbor(w, e)?;
        }
    }
    Ok(())
}

/// Parses a ring section from the front of `r`, advancing it. `k` is the
/// witness's ring capacity, bounding every ring's entry count.
pub(crate) fn read_rings(r: &mut &[u8], k: usize) -> Result<Vec<RingState>, SplashError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(corrupt_or_io)?;
    if &magic != RINGS_MAGIC {
        return Err(SplashError::CorruptModel {
            what: "not a SPLASH ring section (bad magic)".into(),
        });
    }
    let version = get_u32(r).map_err(corrupt_or_io)?;
    if version != RINGS_VERSION {
        return Err(SplashError::PersistVersionMismatch {
            found: version,
            supported: RINGS_VERSION,
        });
    }
    read_rings_body(r, k).map_err(corrupt_or_io)
}

fn read_rings_body<R: Read>(r: &mut R, k: usize) -> io::Result<Vec<RingState>> {
    let _shard = get_u64(r)?;
    let shards = get_u64(r)?;
    if shards == 0 || shards > 1 << 20 {
        return Err(bad(format!("impossible shard count {shards}")));
    }
    let ring_count = get_u64(r)?;
    if ring_count > MAX_NODES {
        return Err(bad(format!("impossible ring count {ring_count}")));
    }
    let mut rings = Vec::with_capacity(ring_count.min(1 << 20) as usize);
    for _ in 0..ring_count {
        let node = get_u32(r)?;
        let head = get_u64(r)? as usize;
        let entries_len = get_u64(r)? as usize;
        if entries_len > k || head >= entries_len.max(1) {
            return Err(bad(format!(
                "ring for node {node} is inconsistent ({entries_len} entries, head {head}, k={k})"
            )));
        }
        let mut entries = Vec::with_capacity(entries_len);
        for _ in 0..entries_len {
            entries.push(read_neighbor(r)?);
        }
        rings.push(RingState { node, head, entries });
    }
    Ok(rings)
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

pub(crate) fn put_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

pub(crate) fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn put_f32<W: Write>(w: &mut W, v: f32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

pub(crate) fn get_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

pub(crate) fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn get_f32<R: Read>(r: &mut R) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture, InputFeatures};
    use crate::pipeline::{predict_slim, split_bounds, train_slim, SEEN_FRAC};
    use crate::select::truncate_to_available;
    use crate::stream::StreamingPredictor;
    use datasets::synthetic_shift;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("splash-persist-{tag}-{}.bin", std::process::id()))
    }

    /// Rewrites the trailing checksum of a patched artifact, so a test
    /// reaches the parser behind it.
    fn reseal(bytes: &mut [u8]) {
        let end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..end]);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn roundtrip_predictions_are_identical() {
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.3);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 2;
        let cap = capture(&dataset, InputFeatures::Process(FeatureProcess::Positional), &cfg, SEEN_FRAC);
        let (train_end, val_end) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let before = predict_slim(&model, &cap.queries[val_end..], 64);

        let path = tmp("roundtrip");
        save_model(
            &path,
            &mut model,
            &cfg,
            InputFeatures::Process(FeatureProcess::Positional),
            cap.feat_dim,
            cap.edge_feat_dim,
            dataset.num_classes,
        )
        .unwrap();
        let restored = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.selected(), Some(FeatureProcess::Positional));
        assert_eq!(restored.mode, InputFeatures::Process(FeatureProcess::Positional));
        assert_eq!(restored.feat_dim, cap.feat_dim);
        assert_eq!(restored.cfg.k, cfg.k);
        let after = predict_slim(&restored.model, &cap.queries[val_end..], 64);
        assert_eq!(before.data(), after.data(), "restored model must predict identically");
    }

    #[test]
    fn config_with_grarep_source_roundtrips() {
        let mut cfg = SplashConfig::tiny();
        cfg.positional = PositionalSource::GraRep(GraRepConfig {
            dim: 8,
            transition_steps: 3,
            svd_iters: 2,
        });
        let mut buf = Vec::new();
        write_config(&mut buf, &cfg).unwrap();
        let back = read_config(&mut buf.as_slice()).unwrap();
        assert_eq!(back.positional, cfg.positional);
        assert_eq!(back.feat_dim, cfg.feat_dim);
        assert_eq!(back.node2vec.walk.q, cfg.node2vec.walk.q);
    }

    #[test]
    fn config_roundtrips_every_field() {
        // Exercise every serialized field with non-default values.
        let cfg = SplashConfig {
            feat_dim: 17,
            k: 3,
            time_dim: 9,
            hidden: 21,
            lambda_s: 0.123,
            degree_alpha: 77.7,
            time_alpha: 2.5,
            time_beta: 6.25,
            node2vec: Node2VecConfig {
                walk: embed::WalkConfig {
                    walks_per_node: 11,
                    walk_length: 31,
                    p: 0.25,
                    q: 4.0,
                    threads: 3,
                },
                sgns: embed::SkipGramConfig {
                    dim: 17,
                    window: 5,
                    negatives: 7,
                    epochs: 4,
                    lr: 0.07,
                },
            },
            positional: PositionalSource::Node2Vec,
            lr: 3.5e-4,
            epochs: 13,
            batch_size: 57,
            selector_epochs: 2,
            selector_lr: 0.011,
            seed: 0xDEAD_BEEF,
        };
        let mut buf = Vec::new();
        write_config(&mut buf, &cfg).unwrap();
        let back = read_config(&mut buf.as_slice()).unwrap();
        assert_eq!(back.feat_dim, cfg.feat_dim);
        assert_eq!(back.k, cfg.k);
        assert_eq!(back.time_dim, cfg.time_dim);
        assert_eq!(back.hidden, cfg.hidden);
        assert_eq!(back.lambda_s, cfg.lambda_s);
        assert_eq!(back.degree_alpha, cfg.degree_alpha);
        assert_eq!(back.time_alpha, cfg.time_alpha);
        assert_eq!(back.time_beta, cfg.time_beta);
        assert_eq!(back.lr, cfg.lr);
        assert_eq!(back.epochs, cfg.epochs);
        assert_eq!(back.batch_size, cfg.batch_size);
        assert_eq!(back.selector_epochs, cfg.selector_epochs);
        assert_eq!(back.selector_lr, cfg.selector_lr);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.node2vec.walk.p, cfg.node2vec.walk.p);
        assert_eq!(back.node2vec.walk.q, cfg.node2vec.walk.q);
        assert_eq!(back.node2vec.walk.walks_per_node, cfg.node2vec.walk.walks_per_node);
        assert_eq!(back.node2vec.walk.walk_length, cfg.node2vec.walk.walk_length);
        assert_eq!(back.node2vec.walk.threads, cfg.node2vec.walk.threads);
        assert_eq!(back.node2vec.sgns.dim, cfg.node2vec.sgns.dim);
        assert_eq!(back.node2vec.sgns.window, cfg.node2vec.sgns.window);
        assert_eq!(back.node2vec.sgns.negatives, cfg.node2vec.sgns.negatives);
        assert_eq!(back.node2vec.sgns.epochs, cfg.node2vec.sgns.epochs);
        assert_eq!(back.node2vec.sgns.lr, cfg.node2vec.sgns.lr);
        assert_eq!(back.positional, cfg.positional);
    }

    #[test]
    fn wrong_magic_is_corrupt() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTAMODELFILE....").unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn missing_file_is_io() {
        let err = load_model(Path::new("/definitely/not/here.bin")).unwrap_err();
        assert!(matches!(err, SplashError::Io(_)), "{err:?}");
    }

    /// Truncating a valid file anywhere after the header must load as
    /// `CorruptModel`, never panic and never yield a half-read model.
    #[test]
    fn truncated_file_is_corrupt() {
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.2);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 1;
        let cap = capture(&dataset, InputFeatures::RawRandom, &cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let path = tmp("trunc");
        save_model(&path, &mut model, &cfg, InputFeatures::RawRandom, cap.feat_dim, cap.edge_feat_dim, 2)
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for keep in [bytes.len() / 2, MAGIC.len() + 4 + 1, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            let err = load_model(&path).unwrap_err();
            assert!(
                matches!(err, SplashError::CorruptModel { .. }),
                "truncation to {keep} bytes: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A freshly trained tiny model saved to `path`; returns its bytes.
    fn saved_bytes(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.2);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 1;
        let cap = capture(&dataset, InputFeatures::RawRandom, &cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let path = tmp(tag);
        save_model(
            &path,
            &mut model,
            &cfg,
            InputFeatures::RawRandom,
            cap.feat_dim,
            cap.edge_feat_dim,
            dataset.num_classes,
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    /// Byte offsets of the config fields patched by the crafted-artifact
    /// tests (magic 8 + version 4, then the `write_config` layout:
    /// feat_dim, k, time_dim, hidden as u64s, then f32 scales).
    const OFF_K: usize = 20;
    const OFF_TIME_DIM: usize = 28;
    const OFF_HIDDEN: usize = 36;
    const OFF_LR: usize = 60;

    /// Regression (crafted artifact): a file claiming `hidden = 2^60` used
    /// to abort the process on allocation inside `SlimModel::new`; it must
    /// load as a typed `CorruptModel` naming the bad dimension.
    #[test]
    fn oversized_dimension_is_corrupt_not_abort() {
        let (path, bytes) = saved_bytes("dim-bomb");
        let mut patched = bytes.clone();
        patched[OFF_HIDDEN..OFF_HIDDEN + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        reseal(&mut patched);
        std::fs::write(&path, &patched).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
        assert!(err.to_string().contains("hidden"), "{err}");
    }

    /// Regression (crafted artifact): dimensions that are individually
    /// under [`MAX_DIM`] can still multiply into an allocation abort; the
    /// per-tensor element bound must catch the product.
    #[test]
    fn oversized_dimension_product_is_corrupt_not_abort() {
        let (path, bytes) = saved_bytes("dim-product-bomb");
        let mut patched = bytes.clone();
        // hidden = time_dim = 2^20: each passes sane_dim, but the message
        // MLP's input weight alone would be ≥ 2^40 elements (~4 TiB).
        patched[OFF_HIDDEN..OFF_HIDDEN + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
        patched[OFF_TIME_DIM..OFF_TIME_DIM + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
        reseal(&mut patched);
        std::fs::write(&path, &patched).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
        assert!(err.to_string().contains("elements"), "{err}");
    }

    /// Regression (crafted artifact): the deserialized config must pass
    /// `SplashConfig::validate` — a zero dimension or a non-finite scale is
    /// corruption, not a panic (or a hang) later in the pipeline.
    #[test]
    fn invalid_stored_config_is_corrupt() {
        let (path, bytes) = saved_bytes("cfg-bomb");
        // Zero `k`: fails validation.
        let mut patched = bytes.clone();
        patched[OFF_K..OFF_K + 8].copy_from_slice(&0u64.to_le_bytes());
        reseal(&mut patched);
        std::fs::write(&path, &patched).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
        assert!(err.to_string().contains("validation"), "{err}");
        // NaN learning rate: fails validation too.
        let mut patched = bytes.clone();
        patched[OFF_LR..OFF_LR + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        reseal(&mut patched);
        std::fs::write(&path, &patched).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
        assert!(err.to_string().contains("lr"), "{err}");
    }

    /// Trailing bytes that are not a complete `SAVEDOPT` section are
    /// corruption, never a silent partial read — even behind a valid
    /// checksum.
    #[test]
    fn damaged_opt_trailer_is_corrupt() {
        let (path, bytes) = saved_bytes("opt-trailer");
        let body = &bytes[..bytes.len() - 8];
        // Garbage appended after the parameters.
        let mut patched = body.to_vec();
        patched.extend_from_slice(b"JUNKJUNKJUNK");
        patched.extend_from_slice(&[0; 8]);
        reseal(&mut patched);
        std::fs::write(&path, &patched).unwrap();
        let err = load_model(&path).unwrap_err();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
        assert!(err.to_string().contains("SAVEDOPT"), "{err}");
        // A truncated (but correctly tagged) section is corruption too.
        let mut patched = body.to_vec();
        patched.extend_from_slice(OPT_MAGIC);
        patched.extend_from_slice(&OPT_VERSION.to_le_bytes());
        patched.extend_from_slice(&[0; 8]);
        reseal(&mut patched);
        std::fs::write(&path, &patched).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, SplashError::CorruptModel { .. }), "{err:?}");
    }

    /// The `SAVEDOPT` section round-trips the optimizer clock and every
    /// moment bit; a file without it loads with `opt: None`.
    #[test]
    fn opt_state_round_trips() {
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.2);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 2;
        let cap = capture(&dataset, InputFeatures::RawRandom, &cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let state = model.extract_adam_state(17);
        let path = tmp("opt-roundtrip");
        let bytes = artifact_bytes(
            &mut model,
            &cfg,
            InputFeatures::RawRandom,
            cap.feat_dim,
            cap.edge_feat_dim,
            dataset.num_classes,
            Some(&state),
            None,
        )
        .unwrap();
        std::fs::write(&path, bytes).unwrap();
        let restored = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let back = restored.opt.expect("SAVEDOPT section restores");
        assert_eq!(back.steps, 17);
        assert_eq!(back.moments.len(), state.moments.len());
        for ((m1, v1), (m2, v2)) in back.moments.iter().zip(&state.moments) {
            assert_eq!(m1.data(), m2.data());
            assert_eq!(v1.data(), v2.data());
        }

        // Without the section: opt is None (the pre-existing roundtrip
        // files in the other tests already exercise this, but pin it).
        let (path, _) = saved_bytes("opt-none");
        let plain = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(plain.opt.is_none());
    }

    /// A file whose version word differs from this build's must report the
    /// found/supported pair, not a generic corruption.
    #[test]
    fn version_mismatch_is_typed() {
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.2);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 1;
        let cap = capture(&dataset, InputFeatures::RawRandom, &cfg, SEEN_FRAC);
        let (train_end, _) = split_bounds(cap.queries.len());
        let (mut model, _) = train_slim(&cap, &dataset, &cap.queries[..train_end], &cfg);
        let path = tmp("version");
        save_model(&path, &mut model, &cfg, InputFeatures::RawRandom, cap.feat_dim, cap.edge_feat_dim, 2)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The version word sits right after the 8-byte magic.
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        match err {
            SplashError::PersistVersionMismatch { found, supported } => {
                assert_eq!(found, 99);
                assert_eq!(supported, VERSION);
            }
            other => panic!("expected PersistVersionMismatch, got {other:?}"),
        }
    }

    /// A trained streaming engine (process `R`) fed part of its live tail,
    /// so its rings and witness differ from the training-prefix state.
    fn live_engine() -> StreamingPredictor {
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.3);
        let mut cfg = SplashConfig::tiny();
        cfg.epochs = 1;
        let mut engine =
            StreamingPredictor::train_with_process(&dataset, &cfg, FeatureProcess::Random);
        let t_seen = crate::capture::seen_end_time(&dataset, SEEN_FRAC);
        let prefix = dataset.stream.prefix_len_at(t_seen);
        let tail = &dataset.stream.edges()[prefix..];
        engine.try_push_edges(&tail[..tail.len() / 2]).unwrap();
        engine
    }

    /// A streaming artifact with every section (weights, `SAVEDOPT`,
    /// witness, rings, checksum), plus the byte offset where each section
    /// ends.
    fn sectioned_artifact() -> (Vec<u8>, [(&'static str, usize); 5]) {
        let mut engine = live_engine();
        let opt = engine.model().clone().extract_adam_state(3);
        let witness = engine.durable_witness();
        let rings = engine.durable_rings();
        let weights = engine.artifact_bytes(None, None).unwrap().len() - 8;
        let with_opt = engine.artifact_bytes(Some(&opt), None).unwrap().len() - 8;
        let mut w = Vec::new();
        write_witness(&mut w, &witness).unwrap();
        let witness_end = with_opt + w.len();
        let bytes = engine.artifact_bytes(Some(&opt), Some((&witness, &rings))).unwrap();
        let rings_end = bytes.len() - 8;
        let ends = [
            ("weights", weights),
            ("SAVEDOPT", with_opt),
            ("witness", witness_end),
            ("rings", rings_end),
            ("checksum", bytes.len()),
        ];
        (bytes, ends)
    }

    /// A streaming artifact restores the saving engine's state: its
    /// predictions, and the bytes it saves again.
    #[test]
    fn streaming_artifact_restores_the_saved_state() {
        let mut engine = live_engine();
        let path = tmp("stream-roundtrip");
        engine.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let saved = load_model(&path).unwrap();
        assert!(saved.state.is_some());
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.3);
        let mut restored = StreamingPredictor::try_from_saved(saved, &dataset).unwrap();
        assert_eq!(restored.last_time(), engine.last_time());
        let t = engine.last_time() + 1.0;
        let nodes: Vec<u32> = (0..60).collect();
        assert_eq!(
            restored.try_predict_many(&nodes, t).unwrap().data(),
            engine.try_predict_many(&nodes, t).unwrap().data()
        );
        restored.save(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "re-saved artifact differs");
        std::fs::remove_file(&path).ok();
    }

    /// A file cut short inside any section is `CorruptModel` — both as
    /// written (the checksum no longer matches) and resealed, so the
    /// section parser itself meets the end of the file.
    #[test]
    fn artifact_cut_short_in_any_section_is_corrupt() {
        let (bytes, ends) = sectioned_artifact();
        let path = tmp("cut");
        let mut start = 12;
        for (section, end) in ends {
            assert!(end > start, "{section} section is empty");
            let cut = start + (end - start) / 2;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = load_model(&path).unwrap_err();
            assert!(
                matches!(err, SplashError::CorruptModel { .. }),
                "cut inside {section} at {cut}: {err:?}"
            );
            if section != "checksum" {
                let mut resealed = bytes[..cut].to_vec();
                resealed.extend_from_slice(&[0; 8]);
                reseal(&mut resealed);
                std::fs::write(&path, &resealed).unwrap();
                let err = load_model(&path).unwrap_err();
                assert!(
                    matches!(err, SplashError::CorruptModel { .. }),
                    "resealed cut inside {section} at {cut}: {err:?}"
                );
            }
            start = end;
        }
        std::fs::remove_file(&path).ok();
    }

    /// One flipped byte anywhere after the header — in every section,
    /// the checksum included — is a `CorruptModel` naming the checksum.
    #[test]
    fn flipped_byte_names_the_checksum() {
        let (bytes, ends) = sectioned_artifact();
        let path = tmp("flip");
        let mut offsets: Vec<usize> = (12..bytes.len()).step_by(997).collect();
        let mut start = 12;
        for (_, end) in ends {
            offsets.extend([start, (start + end) / 2, end - 1]);
            start = end;
        }
        for at in offsets {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            std::fs::write(&path, &flipped).unwrap();
            match load_model(&path).unwrap_err() {
                SplashError::CorruptModel { what } => {
                    assert!(what.contains("checksum"), "byte {at}: {what}")
                }
                other => panic!("byte {at}: expected CorruptModel, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// Files from before the self-contained format load as typed version
    /// mismatches: a `SPLASHM` v1 model file and both revisions of the
    /// retired `SPLASHS` shard manifest.
    #[test]
    fn legacy_files_are_version_mismatches() {
        let (path, bytes) = saved_bytes("legacy");
        // A v1 model file: same header magic, version 1, no checksum.
        let mut v1 = bytes[..bytes.len() - 8].to_vec();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        let name = b"model.bin.shard0";
        let manifest = |version: u32| {
            let mut m = b"SPLASHS\x01".to_vec();
            m.extend_from_slice(&version.to_le_bytes());
            m.extend_from_slice(&2u64.to_le_bytes());
            m.extend_from_slice(&(name.len() as u64).to_le_bytes());
            m.extend_from_slice(name);
            m.extend_from_slice(&0u64.to_le_bytes());
            m
        };
        for (file, found) in [(v1, 1), (manifest(1), 1), (manifest(2), 2)] {
            std::fs::write(&path, &file).unwrap();
            match load_model(&path).unwrap_err() {
                SplashError::PersistVersionMismatch { found: f, supported } => {
                    assert_eq!((f, supported), (found, VERSION));
                }
                other => panic!("expected PersistVersionMismatch, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A ring entry wider than the model's input (behind a valid
    /// checksum) is refused before any engine is built.
    #[test]
    fn wide_ring_entry_is_corrupt_before_any_engine() {
        let mut engine = live_engine();
        let witness = engine.durable_witness();
        for edge_side in [false, true] {
            let mut rings = engine.durable_rings();
            let entry = &mut rings[0].entries[0];
            if edge_side {
                entry.edge_feat.push(0.0);
            } else {
                entry.feat.push(0.0);
            }
            let bytes = engine.artifact_bytes(None, Some((&witness, &rings))).unwrap();
            let path = tmp("wide-ring");
            std::fs::write(&path, bytes).unwrap();
            let saved = load_model(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.3);
            match StreamingPredictor::try_from_saved(saved, &dataset).unwrap_err() {
                SplashError::CorruptModel { what } => assert!(what.contains("wide"), "{what}"),
                other => panic!("expected CorruptModel, got {other:?}"),
            }
        }
    }

    /// A weights-only file cannot back a streaming engine: the rebuild
    /// from the training stream is gone, so it is a typed error.
    #[test]
    fn weights_only_file_is_not_a_streaming_engine() {
        let mut engine = live_engine();
        let path = tmp("weights-only");
        std::fs::write(&path, engine.artifact_bytes(None, None).unwrap()).unwrap();
        let saved = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(saved.state.is_none());
        let dataset = truncate_to_available(&synthetic_shift(50, 13), 0.3);
        let err = StreamingPredictor::try_from_saved(saved, &dataset).unwrap_err();
        assert!(
            matches!(&err, SplashError::CorruptModel { what } if what.contains("weights only")),
            "{err:?}"
        );
    }
}
