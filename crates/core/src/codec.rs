//! The little-endian byte codec of the two state blobs: the
//! preconditioner's ([`crate::Kfac::save_state`]) and the training
//! checkpoint that embeds it (`kfac_harness::checkpoint`).

/// Append `v` as 8 little-endian bytes.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append each value as 4 little-endian bytes.
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Cursor over a blob; running off the end is `Err("<what> truncated")`.
pub struct Reader<'a> {
    bytes: &'a [u8],
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// Read `bytes` from the start; `what` names the blob in errors.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { bytes, what }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() < n {
            return Err(format!("{} truncated", self.what));
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// The next `n` little-endian `f32`s.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, String> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| format!("{} truncated", self.what))?;
        Ok(self
            .take(len)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}
