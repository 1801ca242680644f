//! Training-state checkpoints for rank-loss recovery.
//!
//! A checkpoint captures everything needed to resume training with
//! bitwise-identical results: model parameters (`visit_params` order),
//! SGD momentum buffers, the complete K-FAC preconditioner state
//! ([`Kfac::save_state`]), and the loop position (iteration / epoch).
//! BatchNorm running statistics are deliberately excluded: they feed
//! only `Mode::Eval` forward passes, so Train-mode math — and therefore
//! the resumed parameter trajectory — is unaffected.
//!
//! The encoding is self-describing little-endian binary with no
//! external dependencies; [`restore`] validates structure and sizes and
//! errors on mismatched models rather than silently corrupting state.

use kfac::codec::{put_f32s, put_u64, Reader};
use kfac::Kfac;
use kfac_nn::Layer;
use kfac_optim::Sgd;

/// Serialize the full training state into a checkpoint blob.
///
/// `iteration` and `epoch` are the loop position to resume from (the
/// next iteration to execute).
pub fn save(
    model: &mut dyn Layer,
    optimizer: &Sgd,
    kfac: Option<&Kfac>,
    iteration: u64,
    epoch: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"CKPT");
    put_u64(&mut out, 1); // format version
    put_u64(&mut out, iteration);
    put_u64(&mut out, epoch);

    // Model parameters, flat in visit_params order.
    let mut params = Vec::new();
    model.visit_params("", &mut |_, w, _| params.extend_from_slice(w));
    put_u64(&mut out, params.len() as u64);
    put_f32s(&mut out, &params);

    // SGD momentum buffers, name-sorted.
    let velocity = optimizer.export_state();
    put_u64(&mut out, velocity.len() as u64);
    for (name, v) in &velocity {
        put_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
        put_u64(&mut out, v.len() as u64);
        put_f32s(&mut out, v);
    }

    // K-FAC preconditioner state.
    match kfac {
        Some(k) => {
            out.push(1);
            let state = k.save_state();
            put_u64(&mut out, state.len() as u64);
            out.extend_from_slice(&state);
        }
        None => out.push(0),
    }
    out
}

/// Restore a checkpoint produced by [`save`] into an
/// identically-structured model / optimizer / preconditioner. Returns
/// `(iteration, epoch)` to resume from. Errors on malformed bytes or a
/// parameter-count mismatch, in which case the model may be partially
/// written and should be discarded.
pub fn restore(
    bytes: &[u8],
    model: &mut dyn Layer,
    optimizer: &mut Sgd,
    kfac: Option<&mut Kfac>,
) -> Result<(u64, u64), String> {
    let mut r = Reader::new(bytes, "checkpoint");
    if r.take(4)? != b"CKPT" {
        return Err("not a checkpoint blob".into());
    }
    if r.u64()? != 1 {
        return Err("unsupported checkpoint version".into());
    }
    let iteration = r.u64()?;
    let epoch = r.u64()?;

    let n_params = r.u64()? as usize;
    let params = r.f32s(n_params)?;
    let mut off = 0usize;
    let mut overrun = false;
    model.visit_params("", &mut |_, w, _| {
        if off + w.len() <= params.len() {
            w.copy_from_slice(&params[off..off + w.len()]);
        } else {
            overrun = true;
        }
        off += w.len();
    });
    if overrun || off != params.len() {
        return Err(format!(
            "checkpoint holds {} parameters, model wants {off}",
            params.len()
        ));
    }

    // Grown as entries decode: the count is outside input, and a damaged
    // one must run into the end of the blob, not into the allocator.
    let n_vel = r.u64()?;
    let mut velocity = Vec::new();
    for _ in 0..n_vel {
        let name_len = r.u64()? as usize;
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| "bad parameter name in checkpoint".to_string())?;
        let len = r.u64()? as usize;
        velocity.push((name, r.f32s(len)?));
    }
    optimizer.import_state(velocity);

    match (r.u8()?, kfac) {
        (0, _) => {}
        (1, Some(k)) => {
            let len = r.u64()? as usize;
            k.restore_state(r.take(len)?)?;
        }
        (1, None) => {
            // Checkpoint carries K-FAC state but the run has no
            // preconditioner: skip it rather than fail, so SGD-only
            // resumption from a K-FAC checkpoint still works.
            let len = r.u64()? as usize;
            r.take(len)?;
        }
        (t, _) => return Err(format!("bad kfac tag {t}")),
    }
    if !r.is_empty() {
        return Err("trailing bytes in checkpoint".into());
    }
    Ok((iteration, epoch))
}

/// Atomically persist a checkpoint blob to `path`: write to a temp file
/// in the same directory, fsync it, rename over the destination, then
/// fsync the directory (on Unix) so the rename itself is durable. A
/// crash at any point leaves either the previous checkpoint or the new
/// one — never a torn `CKPT` file.
pub fn save_to_file(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    #[cfg(unix)]
    if let Some(dir) = dir {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Read a checkpoint blob previously persisted with [`save_to_file`].
/// Structural validation happens in [`restore`]; this only moves bytes.
pub fn load_from_file(path: &std::path::Path) -> std::io::Result<Vec<u8>> {
    std::fs::read(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_nn::{Linear, Sequential};
    use kfac_tensor::Rng64;

    fn model(seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        Sequential::from_layers(vec![Box::new(Linear::new("fc", 6, 4, true, &mut rng))])
    }

    fn flat_params(m: &mut Sequential) -> Vec<f32> {
        let mut p = Vec::new();
        m.visit_params("", &mut |_, w, _| p.extend_from_slice(w));
        p
    }

    #[test]
    fn mismatched_model_is_rejected() {
        let mut m = model(1);
        let mut opt = Sgd::new(0.9, 0.0);
        let blob = save(&mut m, &opt, None, 0, 0);
        let mut rng = Rng64::new(2);
        let mut other =
            Sequential::from_layers(vec![Box::new(Linear::new("fc", 10, 4, true, &mut rng))]);
        assert!(restore(&blob, &mut other, &mut opt, None).is_err());
        assert!(restore(b"JUNK", &mut m, &mut opt, None).is_err());
        assert!(restore(&blob[..blob.len() - 3], &mut m, &mut opt, None).is_err());
    }

    /// Satellite: a checkpoint file truncated mid-write (the failure
    /// atomic persistence prevents, simulated here directly) must
    /// restore as a typed error, never a panic.
    #[test]
    fn truncated_checkpoint_file_is_a_typed_error() {
        let mut m = model(5);
        let mut opt = Sgd::new(0.9, 1e-4);
        let blob = save(&mut m, &opt, None, 7, 1);
        let dir = std::env::temp_dir().join("kfac-ckpt-truncation-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        save_to_file(&path, &blob).unwrap();

        // Intact file round-trips.
        let loaded = load_from_file(&path).unwrap();
        assert_eq!(loaded, blob);
        let (it, ep) = restore(&loaded, &mut m, &mut opt, None).unwrap();
        assert_eq!((it, ep), (7, 1));

        // Truncate at every interesting boundary: header, mid-params,
        // one byte short. All must be Err("checkpoint truncated"-class),
        // none may panic.
        for cut in [0, 2, 9, blob.len() / 2, blob.len() - 1] {
            std::fs::write(&path, &blob[..cut]).unwrap();
            let torn = load_from_file(&path).unwrap();
            let err = restore(&torn, &mut m, &mut opt, None).unwrap_err();
            assert!(
                err.contains("truncated") || err.contains("not a checkpoint"),
                "cut={cut}: unexpected error {err:?}"
            );
        }

        // A damaged count is as typed as a short file: the velocity
        // count (the word after the parameters) with every bit set.
        let n_params = flat_params(&mut m).len();
        let count_at = 4 + 8 * 4 + 4 * n_params;
        let mut flipped = blob.clone();
        flipped[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = restore(&flipped, &mut m, &mut opt, None).unwrap_err();
        assert!(err.contains("truncated"), "velocity count: {err:?}");

        // Atomic persistence leaves no temp file behind.
        save_to_file(&path, &blob).unwrap();
        assert!(!path.with_extension("ckpt.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
