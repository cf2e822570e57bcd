//! Snapshot corruption fuzz: random byte flips, truncations and
//! combinations thereof applied to a valid snapshot image must always come
//! back as a typed `Error::Snapshot(_)` — never a panic, and never an
//! attempted giant allocation (corrupt counts are rejected against the
//! remaining section capacity before any `Vec::with_capacity`). Every case
//! runs twice: through `read_snapshot` on the bytes and through
//! `load_snapshot` on a file holding them, which must agree.

use kgstore::snapshot::{load_snapshot, read_snapshot, write_snapshot};
use kgstore::{KnowledgeGraph, KnowledgeGraphBuilder};
use proptest::prelude::*;
use specqp_common::{Error, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn snapshot_image() -> &'static Vec<u8> {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let mut b = KnowledgeGraphBuilder::new();
        // Varied structure so every section (dictionary, columns, all eight
        // index maps) has real content to corrupt.
        for i in 0..40u32 {
            b.add(
                &format!("e{i}"),
                &format!("p{}", i % 5),
                &format!("o{}", i % 11),
                f64::from(i % 7 + 1),
            );
        }
        b.add("loop", "self", "loop", 4.0);
        b.intern("orphan-term");
        write_snapshot(&b.build())
    })
}

/// Loads `bytes` both from memory and from a file. The two paths run one
/// decoder, so they must return the same graph or the same error.
fn load_both_ways(bytes: &[u8]) -> Result<KnowledgeGraph> {
    static FILES: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "specqp_fuzz_{}_{}.snap",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).expect("write the fuzz case");
    let from_file = load_snapshot(&path);
    std::fs::remove_file(&path).ok();
    let from_bytes = read_snapshot(bytes);
    match (&from_bytes, &from_file) {
        (Ok(a), Ok(b)) => assert_eq!(write_snapshot(a), write_snapshot(b)),
        (a, b) => assert_eq!(a.as_ref().err(), b.as_ref().err()),
    }
    from_bytes
}

/// Asserts that loading `bytes` fails with a typed snapshot error (the
/// load itself happening inside the call — any panic fails the test run).
fn assert_typed_failure(bytes: &[u8], what: &str) -> std::result::Result<(), TestCaseError> {
    match load_both_ways(bytes) {
        Err(Error::Snapshot(_)) => Ok(()),
        Err(other) => Err(TestCaseError::fail(format!(
            "{what}: expected Error::Snapshot, got {other:?}"
        ))),
        Ok(_) => Err(TestCaseError::fail(format!(
            "{what}: corrupt image loaded successfully"
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Any single flipped byte is caught (framing check, structural check or
    /// the FNV-1a trailer — a flip of the trailer itself mismatches the
    /// recomputed sum).
    #[test]
    fn flipped_byte_is_typed_error(pos in any::<u32>(), mask in 1u8..=255) {
        let image = snapshot_image();
        let mut bytes = image.clone();
        let at = pos as usize % bytes.len();
        bytes[at] ^= mask;
        assert_typed_failure(&bytes, &format!("flip at {at} mask {mask:#x}"))?;
    }

    /// Any proper prefix is caught.
    #[test]
    fn truncation_is_typed_error(len in any::<u32>()) {
        let image = snapshot_image();
        let cut = len as usize % image.len();
        assert_typed_failure(&image[..cut], &format!("truncated to {cut}"))?;
    }

    /// Truncation composed with byte flips (corruption inside the surviving
    /// prefix) is caught too — framing errors must fire before any section
    /// is trusted.
    #[test]
    fn truncation_plus_flips_is_typed_error(
        len in any::<u32>(),
        flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..=8),
    ) {
        let image = snapshot_image();
        let cut = len as usize % image.len();
        let mut bytes = image[..cut].to_vec();
        if bytes.is_empty() {
            return Ok(());
        }
        for (pos, mask) in flips {
            let at = pos as usize % bytes.len();
            bytes[at] ^= mask;
        }
        assert_typed_failure(&bytes, &format!("truncated to {cut} + flips"))?;
    }

    /// Growing the image (trailing garbage after the checksum, of any
    /// content) is caught by exact-length framing.
    #[test]
    fn trailing_garbage_is_typed_error(extra in proptest::collection::vec(any::<u8>(), 1..=64)) {
        let image = snapshot_image();
        let mut bytes = image.clone();
        bytes.extend_from_slice(&extra);
        assert_typed_failure(&bytes, "trailing garbage")?;
    }

    /// Re-stamping a valid checksum over a flipped payload byte pushes the
    /// corruption past the trailer check; the structural validation layer
    /// must still reject it (or, for score/term bytes whose new value is
    /// semantically valid, load a graph without panicking).
    #[test]
    fn payload_flip_with_fixed_checksum_never_panics(pos in any::<u32>(), mask in 1u8..=255) {
        let image = snapshot_image();
        let mut bytes = image.clone();
        let body_end = bytes.len() - 8;
        // Skip the 16-byte header (magic/version handled by other tests).
        let at = 16 + pos as usize % (body_end - 16);
        bytes[at] ^= mask;
        let sum = specqp_common::fnv1a_64_lanes(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
        match load_both_ways(&bytes) {
            Ok(_) | Err(Error::Snapshot(_)) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "flip at {at}: expected snapshot error or benign load, got {other:?}"
                )));
            }
        }
    }
}

#[test]
fn pristine_image_still_loads() {
    // Guard for the fuzz fixtures themselves: the uncorrupted image loads.
    let g = load_both_ways(snapshot_image()).expect("pristine snapshot loads");
    assert_eq!(g.len(), 41);
}
