//! Binary (de)serialisation of parameter stores — model checkpointing.
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic    "WDN2"            4 bytes
//! count    u32               number of parameters
//! per parameter:
//!   name_len u32, name utf-8 bytes
//!   rows u32, cols u32
//!   rows*cols f32 values
//! checksum u64               FNV-1a over every byte between magic and
//!                            checksum
//! ```
//!
//! The format is intentionally simple and self-describing; loading
//! validates the magic, the trailing checksum, name uniqueness and buffer
//! sizes with checked arithmetic, so a truncated or corrupted checkpoint
//! fails loudly — with an [`Err`], never a panic — instead of yielding
//! garbage weights. The checksum makes *any* single-byte corruption
//! detectable, including flips inside the f32 payload that would otherwise
//! parse cleanly into wrong values.

use crate::params::ParamStore;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"WDN2";
/// Bytes of fixed framing: magic + trailing checksum.
const FOOTER_LEN: usize = 8;

/// Serialisation errors.
///
/// The first four variants describe malformed buffers; the remaining ones
/// describe a well-formed checkpoint that does not match the model it is
/// being loaded into (see `WidenModel::try_load_weights` in `widen-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A parameter name was not valid UTF-8.
    BadName,
    /// The trailing checksum does not match the content (bit corruption),
    /// or parsing left unconsumed bytes.
    Corrupted,
    /// The checkpoint holds a different number of parameters than the
    /// target model.
    CountMismatch {
        /// Parameters the model expects.
        expected: usize,
        /// Parameters the checkpoint holds.
        found: usize,
    },
    /// The checkpoint names a parameter the target model does not have.
    UnknownParam(String),
    /// A parameter's stored shape differs from the model's.
    ShapeMismatch {
        /// The offending parameter.
        name: String,
        /// Shape the model expects.
        expected: (usize, usize),
        /// Shape the checkpoint holds.
        found: (usize, usize),
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a WIDEN checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadName => write!(f, "parameter name is not valid UTF-8"),
            CheckpointError::Corrupted => write!(f, "checkpoint corrupted (checksum mismatch)"),
            CheckpointError::CountMismatch { expected, found } => write!(
                f,
                "checkpoint holds {found} parameters, model expects {expected}"
            ),
            CheckpointError::UnknownParam(name) => {
                write!(f, "checkpoint has unknown parameter `{name}`")
            }
            CheckpointError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch for `{name}`: checkpoint {found:?}, model {expected:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// 64-bit FNV-1a digest, used for the checkpoint checksum and as the
/// cache/registry identity of a checkpoint's exact byte content.
pub fn digest64(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialises a parameter store into a checkpoint buffer.
pub fn save_params(params: &ParamStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + params.scalar_count() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for (_, name, tensor) in params.iter() {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&(tensor.rows() as u32).to_le_bytes());
        buf.extend_from_slice(&(tensor.cols() as u32).to_le_bytes());
        for &v in tensor.as_slice() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    let checksum = digest64(&buf[4..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    buf
}

/// Reads one little-endian `u32` off the front of `data`.
fn take_u32(data: &mut &[u8]) -> Result<usize, CheckpointError> {
    let Some((word, rest)) = data.split_first_chunk() else {
        return Err(CheckpointError::Truncated);
    };
    *data = rest;
    Ok(u32::from_le_bytes(*word) as usize)
}

/// Deserialises a checkpoint into a fresh parameter store.
///
/// # Errors
/// Returns a [`CheckpointError`] on malformed input. Never panics: sizes
/// are validated with checked arithmetic and the trailing checksum rejects
/// arbitrary byte corruption before any content is interpreted.
pub fn load_params(data: &[u8]) -> Result<ParamStore, CheckpointError> {
    let Some((magic, rest)) = data.split_first_chunk::<4>() else {
        return Err(CheckpointError::BadMagic);
    };
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let Some((payload, stored)) = rest.split_last_chunk::<FOOTER_LEN>() else {
        return Err(CheckpointError::Truncated);
    };
    let mut data = payload;
    let count = take_u32(&mut data)?;
    if digest64(payload) != u64::from_le_bytes(*stored) {
        return Err(CheckpointError::Corrupted);
    }

    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = take_u32(&mut data)?;
        let Some((name, rest)) = data.split_at_checked(name_len) else {
            return Err(CheckpointError::Truncated);
        };
        let name = std::str::from_utf8(name)
            .map_err(|_| CheckpointError::BadName)?
            .to_string();
        data = rest;
        let rows = take_u32(&mut data)?;
        let cols = take_u32(&mut data)?;
        let byte_len = rows
            .checked_mul(cols)
            .and_then(|scalars| scalars.checked_mul(4))
            .ok_or(CheckpointError::Truncated)?;
        let Some((values, rest)) = data.split_at_checked(byte_len) else {
            return Err(CheckpointError::Truncated);
        };
        data = rest;
        let values = values
            .as_chunks()
            .0
            .iter()
            .map(|&word| f32::from_le_bytes(word))
            .collect();
        if store.id(&name).is_some() {
            return Err(CheckpointError::Corrupted);
        }
        store.register(name, Tensor::from_vec(rows, cols, values));
    }
    if !data.is_empty() {
        return Err(CheckpointError::Corrupted);
    }
    Ok(store)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut store = ParamStore::new();
        store.register("alpha", Tensor::from_rows(&[&[1.0, -2.5], &[3.5, 0.0]]));
        store.register("β-weights", Tensor::row_vector(&[0.125]));
        store
    }

    /// `save_params(&sample_store())`, one field per line: magic and count,
    /// `alpha`'s header and its four f32s, `β-weights`' header and its one
    /// f32, the FNV-1a checksum. Checkpoints are a format contract, so the
    /// writer must reproduce these bytes exactly.
    const SAMPLE_CHECKPOINT: &[u8] = b"WDN2\x02\0\0\0\
        \x05\0\0\0alpha\x02\0\0\0\x02\0\0\0\
        \0\0\x80\x3f\0\0\x20\xc0\0\0\x60\x40\0\0\0\0\
        \x0a\0\0\0\xce\xb2-weights\x01\0\0\0\x01\0\0\0\
        \0\0\0\x3e\
        \xff\x9d\xf3\x24\x5f\x39\xa8\xa9";

    #[test]
    fn sample_checkpoint_bytes_are_pinned() {
        assert_eq!(save_params(&sample_store()), SAMPLE_CHECKPOINT);
        let loaded = load_params(SAMPLE_CHECKPOINT).expect("pinned bytes load");
        assert_eq!(save_params(&loaded), SAMPLE_CHECKPOINT);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let store = sample_store();
        let bytes = save_params(&store);
        let loaded = load_params(&bytes).expect("valid checkpoint");
        assert_eq!(loaded.len(), store.len());
        for (id, name, tensor) in store.iter() {
            let lid = loaded.id(name).expect("name survives");
            assert_eq!(loaded.get(lid).as_slice(), tensor.as_slice());
            assert_eq!(loaded.get(lid).shape(), tensor.shape());
            let _ = id;
        }
        // Insertion order preserved (optimizer-state alignment).
        let names_a: Vec<&str> = store.iter().map(|(_, n, _)| n).collect();
        let names_b: Vec<&str> = loaded.iter().map(|(_, n, _)| n).collect();
        assert_eq!(names_a, names_b);
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            load_params(b"NOPE1234"),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(load_params(b""), Err(CheckpointError::BadMagic)));
        // The previous format version is rejected, not misread.
        assert!(matches!(
            load_params(b"WDN1\x00\x00\x00\x00"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn truncation_rejected_at_every_boundary() {
        let bytes = SAMPLE_CHECKPOINT;
        for cut in 0..bytes.len() {
            let result = load_params(&bytes[..cut]);
            assert!(
                result.is_err(),
                "cut at {cut} of {} should fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = SAMPLE_CHECKPOINT;
        for offset in 0..bytes.len() {
            for mask in [0x01, 0x40, 0x80, 0xff] {
                let mut mutated = bytes.to_vec();
                mutated[offset] ^= mask;
                assert!(
                    load_params(&mutated).is_err(),
                    "flip {mask:#04x} at {offset} of {} should fail",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn empty_store_round_trips() {
        let store = ParamStore::new();
        let loaded = load_params(&save_params(&store)).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(digest64(b"a"), digest64(b"b"));
        assert_eq!(digest64(b"widen"), digest64(b"widen"));
    }
}
