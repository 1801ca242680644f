//! Half-width wire payloads: bf16 encode/decode for collectives.
//!
//! The measured bottleneck on both fabrics is bytes on the wire —
//! gradient fusion buffers and factor/eigen allgather payloads are all
//! `f32` today. This module is the codec layer that halves them:
//!
//! * [`encode_payload`] packs an `f32` slice into half-width words (two
//!   bf16 values per `f32` wire word, RNE conversion, plus one
//!   length-prefix word), so an `n`-element tensor travels as
//!   `⌈n/2⌉ + 1` words instead of `n`.
//! * [`decode_payload`] widens back, rejecting any non-finite decoded
//!   value in the spirit of `factor_unpack_checked`: a NaN/Inf that
//!   slipped into a half payload must not silently poison every rank's
//!   statistics. Rejection is [`CollectiveError::Mismatch`] — *not*
//!   retryable, because re-encoding the same source replays the same
//!   bad payload (unlike transient transport faults).
//! * [`try_allreduce_half`] implements a reduced collective over half
//!   words: each rank allgathers its encoded payload and folds the
//!   decoded contributions *locally in pinned rank order* (the same
//!   `combine_into`/`finalize` semantics the fabrics use), so results
//!   are bitwise identical across fabrics and runs by construction —
//!   and the wire carries half-width words. Byte accounting flows
//!   through the underlying collective, so the per-class counters
//!   (`comm/bytes/gradient`, …) honestly show the halved volume.
//! * [`try_allgather_half`] is the straightforward gather of encoded
//!   payloads, used for factor and eigendecomposition exchange.
//!
//! Every payload sent through this module is additionally accounted
//! under a per-dtype ambient counter (`comm/bytes/dtype/f32`,
//! `comm/bytes/dtype/bf16`) — the counters the mixed-precision
//! acceptance experiment asserts halving on — plus `comm/wire/rejected`
//! for decode rejections.

use crate::communicator::{combine_into, finalize, Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::TrafficClass;
use kfac_tensor::half::{bf16_to_f32, f32_to_bf16, Dtype};

/// Record `bytes` sent at `dtype` width on the ambient per-dtype wire
/// counter (`comm/bytes/dtype/<name>`), when telemetry is installed.
pub fn record_dtype_bytes(dtype: Dtype, bytes: usize) {
    if let Some((registry, _)) = kfac_telemetry::current() {
        registry
            .counter(&format!("comm/bytes/dtype/{}", dtype.name()))
            .add(bytes as u64);
    }
}

fn record_rejection() {
    if let Some((registry, _)) = kfac_telemetry::current() {
        registry.counter("comm/wire/rejected").inc();
    }
}

/// Number of `f32` wire words an `n`-element tensor occupies at `dtype`
/// width (including the length prefix for half formats).
pub fn wire_words(n: usize, dtype: Dtype) -> usize {
    match dtype {
        Dtype::F32 => n,
        Dtype::Bf16 => n.div_ceil(2) + 1,
    }
}

/// Encode `data` into half-width wire words: one `f32` length-prefix
/// word (the element count as raw `u32` bits) followed by `⌈n/2⌉` words
/// each packing two RNE-converted bf16 values (low half first; the
/// final high half is zero-padded for odd `n`).
///
/// For [`Dtype::F32`] the payload is returned unchanged (no prefix) —
/// callers use this to keep one code path across policies.
pub fn encode_payload(data: &[f32], dtype: Dtype) -> Vec<f32> {
    if dtype == Dtype::F32 {
        return data.to_vec();
    }
    let mut words = Vec::with_capacity(wire_words(data.len(), dtype));
    words.push(f32::from_bits(data.len() as u32));
    let mut chunks = data.chunks_exact(2);
    for pair in &mut chunks {
        let lo = f32_to_bf16(pair[0]) as u32;
        let hi = f32_to_bf16(pair[1]) as u32;
        words.push(f32::from_bits(lo | (hi << 16)));
    }
    if let [last] = chunks.remainder() {
        words.push(f32::from_bits(f32_to_bf16(*last) as u32));
    }
    words
}

/// Decode a payload produced by [`encode_payload`], widening every half
/// value back to `f32` and rejecting non-finite values (see module
/// docs). For [`Dtype::F32`] the words are returned as-is after the
/// same finiteness check.
pub fn decode_payload(words: &[f32], dtype: Dtype) -> Result<Vec<f32>, CollectiveError> {
    if dtype == Dtype::F32 {
        if words.iter().any(|v| !v.is_finite()) {
            record_rejection();
            return Err(CollectiveError::Mismatch(
                "non-finite value in f32 wire payload",
            ));
        }
        return Ok(words.to_vec());
    }
    let Some((&prefix, packed)) = words.split_first() else {
        record_rejection();
        return Err(CollectiveError::Mismatch(
            "half wire payload missing length prefix",
        ));
    };
    let n = prefix.to_bits() as usize;
    if packed.len() != n.div_ceil(2) {
        record_rejection();
        return Err(CollectiveError::Mismatch(
            "half wire payload length disagrees with prefix",
        ));
    }
    let mut out = Vec::with_capacity(n);
    for &w in packed {
        let bits = w.to_bits();
        out.push(bf16_to_f32(bits as u16));
        if out.len() < n {
            out.push(bf16_to_f32((bits >> 16) as u16));
        }
    }
    if out.iter().any(|v| !v.is_finite()) {
        record_rejection();
        return Err(CollectiveError::Mismatch(
            "non-finite value in half-precision wire payload",
        ));
    }
    Ok(out)
}

/// Allreduce `buf` across ranks with the wire carrying `dtype`-width
/// words; see module docs for the allgather-and-fold construction. For
/// [`Dtype::F32`] this is exactly the communicator's own allreduce
/// (bitwise unchanged from the pre-mixed-precision stack).
///
/// An empty `buf` is a non-event at either width: `Ok` before the
/// communicator is reached — no bytes, no sequence number, no length
/// prefix. An allreduce's length is the same on every rank by contract,
/// so every rank takes this return together; it is how a phase driver
/// spells "no factor exchange is due this iteration" without a branch
/// (`Kfac::factor_pack`). [`try_allgather_half`] has no such return: its
/// lengths legitimately differ by rank (a rank that owns no factor
/// contributes nothing to the Eigen allgather), so an empty contribution
/// must still take part.
pub fn try_allreduce_half(
    comm: &dyn Communicator,
    buf: &mut [f32],
    op: ReduceOp,
    class: TrafficClass,
    dtype: Dtype,
) -> Result<(), CollectiveError> {
    if buf.is_empty() {
        return Ok(());
    }
    if dtype == Dtype::F32 {
        comm.try_allreduce_tagged(buf, op, class)?;
        record_dtype_bytes(dtype, buf.len() * dtype.size_of());
        return Ok(());
    }
    let words = encode_payload(buf, dtype);
    let gathered = comm.try_allgather_tagged(&words, class)?;
    debug_assert_eq!(gathered.len(), comm.size());
    // Fold decoded contributions locally in pinned rank order — the
    // exact accumulation semantics of the fabrics' own reductions, so
    // every rank (on every fabric) computes bitwise the same result.
    let mut acc: Option<Vec<f32>> = None;
    for payload in &gathered {
        let x = decode_payload(payload, dtype)?;
        match &mut acc {
            None => acc = Some(x),
            Some(a) => {
                if a.len() != x.len() {
                    record_rejection();
                    return Err(CollectiveError::Mismatch(
                        "half allreduce payload lengths disagree across ranks",
                    ));
                }
                combine_into(a, &x, op);
            }
        }
    }
    let mut acc = acc.expect("allgather returned no payloads");
    finalize(&mut acc, op, comm.size());
    if acc.len() != buf.len() {
        record_rejection();
        return Err(CollectiveError::Mismatch(
            "half allreduce result length disagrees with buffer",
        ));
    }
    buf.copy_from_slice(&acc);
    // Two halves per word: the dtype counter records true wire bytes
    // (words × 4 = elements × 2, plus the prefix word).
    record_dtype_bytes(dtype, words.len() * std::mem::size_of::<f32>());
    Ok(())
}

/// Allgather `payload` with the wire carrying `dtype`-width words,
/// decoding every rank's contribution back to `f32` (with non-finite
/// rejection). For [`Dtype::F32`] this is the communicator's own
/// allgather.
pub fn try_allgather_half(
    comm: &dyn Communicator,
    payload: &[f32],
    class: TrafficClass,
    dtype: Dtype,
) -> Result<Vec<Vec<f32>>, CollectiveError> {
    if dtype == Dtype::F32 {
        let gathered = comm.try_allgather_tagged(payload, class)?;
        record_dtype_bytes(dtype, payload.len() * dtype.size_of());
        return Ok(gathered);
    }
    let words = encode_payload(payload, dtype);
    let gathered = comm.try_allgather_tagged(&words, class)?;
    let mut out = Vec::with_capacity(gathered.len());
    for p in &gathered {
        out.push(decode_payload(p, dtype)?);
    }
    record_dtype_bytes(dtype, words.len() * std::mem::size_of::<f32>());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalComm;
    use crate::thread::ThreadComm;
    use std::thread;

    #[test]
    fn round_trip_even_and_odd_lengths() {
        for n in [0usize, 1, 2, 3, 8, 17] {
            let data: Vec<f32> = (0..n).map(|i| i as f32 - 4.0).collect();
            let words = encode_payload(&data, Dtype::Bf16);
            assert_eq!(words.len(), wire_words(n, Dtype::Bf16));
            let back = decode_payload(&words, Dtype::Bf16).unwrap();
            // Small integers are exactly representable in bf16.
            assert_eq!(back, data, "n={n}");
        }
    }

    #[test]
    fn f32_passthrough_is_identity() {
        let data = vec![1.5, -2.25, 1e-20];
        let words = encode_payload(&data, Dtype::F32);
        assert_eq!(words, data);
        assert_eq!(decode_payload(&words, Dtype::F32).unwrap(), data);
    }

    #[test]
    fn decode_rejects_non_finite() {
        // A NaN survives bf16 encoding and must be rejected on decode.
        let words = encode_payload(&[1.0, f32::NAN], Dtype::Bf16);
        let err = decode_payload(&words, Dtype::Bf16).unwrap_err();
        assert!(matches!(err, CollectiveError::Mismatch(_)), "{err:?}");
        // bf16 keeps f32's exponent range, so Inf also travels — reject.
        let words = encode_payload(&[f32::INFINITY], Dtype::Bf16);
        assert!(decode_payload(&words, Dtype::Bf16).is_err());
    }

    #[test]
    fn decode_rejects_truncated_and_mislabeled_payloads() {
        assert!(decode_payload(&[], Dtype::Bf16).is_err());
        let mut words = encode_payload(&[1.0, 2.0, 3.0], Dtype::Bf16);
        words.pop();
        assert!(decode_payload(&words, Dtype::Bf16).is_err());
    }

    #[test]
    fn half_allreduce_averages_and_halves_bytes() {
        let ranks = 4usize;
        let comms = ThreadComm::create(ranks);
        let n = 1000usize;
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .enumerate()
                .map(|(rank, comm)| {
                    s.spawn(move || {
                        let mut buf: Vec<f32> =
                            (0..n).map(|i| (rank * n + i) as f32 * 0.25).collect();
                        try_allreduce_half(
                            comm,
                            &mut buf,
                            ReduceOp::Average,
                            TrafficClass::Gradient,
                            Dtype::Bf16,
                        )
                        .unwrap();
                        (buf, comm.traffic().gradient_bytes)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // All ranks agree bitwise.
        for (buf, _) in &results[1..] {
            assert_eq!(buf, &results[0].0);
        }
        // Wire bytes: (n/2 + 1) words × 4 bytes ≈ half of an f32
        // allreduce's n × 4.
        let expected = (n / 2 + 1) * 4;
        for (_, bytes) in &results {
            assert_eq!(*bytes, expected as u64);
        }
        // And the values are the bf16-rounded average, close to exact.
        let exact =
            |i: usize| (0..ranks).map(|r| (r * n + i) as f32 * 0.25).sum::<f32>() / ranks as f32;
        for (i, v) in results[0].0.iter().enumerate() {
            let e = exact(i);
            assert!((v - e).abs() <= e.abs() / 128.0 + 1e-3, "i={i} {v} vs {e}");
        }
    }

    #[test]
    fn half_allreduce_f32_policy_matches_plain_allreduce() {
        let comm = LocalComm::new();
        let mut a = vec![1.0f32, -2.5, 3.25];
        let mut b = a.clone();
        try_allreduce_half(
            &comm,
            &mut a,
            ReduceOp::Average,
            TrafficClass::Gradient,
            Dtype::F32,
        )
        .unwrap();
        comm.allreduce_tagged(&mut b, ReduceOp::Average, TrafficClass::Gradient);
        assert_eq!(a, b);
    }

    #[test]
    fn half_allgather_decodes_per_rank_payloads() {
        let comms = ThreadComm::create(2);
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .enumerate()
                .map(|(rank, comm)| {
                    s.spawn(move || {
                        // Different lengths per rank, like eig payloads.
                        let payload: Vec<f32> =
                            (0..3 + rank).map(|i| i as f32 + rank as f32).collect();
                        try_allgather_half(comm, &payload, TrafficClass::Eigen, Dtype::Bf16)
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for gathered in &results {
            assert_eq!(gathered.len(), 2);
            assert_eq!(gathered[0], vec![0.0, 1.0, 2.0]);
            assert_eq!(gathered[1], vec![1.0, 2.0, 3.0, 4.0]);
        }
    }
}
