//! Minimal 4-dimensional NCHW tensor for the neural-network substrate.
//!
//! Activations flowing through the CNN are `(batch, channels, height,
//! width)` blocks, matching PyTorch's memory layout. The type is a thin
//! shape-checked wrapper over a contiguous `Vec<f32>`; all heavy math is
//! done by reshaping into [`Matrix`](crate::Matrix) views (patch blocks, GEMM).

/// Contiguous NCHW tensor of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<f32>,
}

impl Tensor4 {
    /// Allocate a zero tensor of shape `(n, c, h, w)`.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != n*c*h*w`.
    pub fn from_vec(n: usize, c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * c * h * w, "tensor4 data length mismatch");
        Tensor4 { n, c, h, w, data }
    }

    /// Shape as `(n, c, h, w)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Batch dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
    /// Channel dimension.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }
    /// Height.
    #[inline]
    pub fn h(&self) -> usize {
        self.h
    }
    /// Width.
    #[inline]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat offset of `(n, c, h, w)`.
    #[inline(always)]
    pub fn offset(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(n < self.n && c < self.c && h < self.h && w < self.w);
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Read one element.
    #[inline(always)]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.offset(n, c, h, w)]
    }

    /// Mutable access to one element.
    #[inline(always)]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let o = self.offset(n, c, h, w);
        &mut self.data[o]
    }

    /// Borrow the whole buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the whole buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reshape in place for buffer reuse: keeps the backing allocation
    /// when capacity allows and leaves the contents unspecified (stale
    /// values from the previous use; only a grown tail is zero-filled).
    /// Mirrors [`Matrix::reset_for`](crate::Matrix::reset_for).
    pub fn reset_for(&mut self, n: usize, c: usize, h: usize, w: usize) {
        self.data.resize(n * c * h * w, 0.0);
        self.n = n;
        self.c = c;
        self.h = h;
        self.w = w;
    }

    /// Borrow the `(c,h,w)` block of sample `n` as a contiguous slice.
    #[inline]
    pub fn sample(&self, n: usize) -> &[f32] {
        let stride = self.c * self.h * self.w;
        &self.data[n * stride..(n + 1) * stride]
    }

    /// Mutably borrow the `(c,h,w)` block of sample `n`.
    #[inline]
    pub fn sample_mut(&mut self, n: usize) -> &mut [f32] {
        let stride = self.c * self.h * self.w;
        &mut self.data[n * stride..(n + 1) * stride]
    }

    /// Borrow channel plane `(n, c)` as a contiguous `h*w` slice.
    #[inline]
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let start = self.offset(n, c, 0, 0);
        &self.data[start..start + self.h * self.w]
    }

    /// Mutably borrow channel plane `(n, c)`.
    #[inline]
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let start = self.offset(n, c, 0, 0);
        &mut self.data[start..start + self.h * self.w]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_indexing() {
        let mut t = Tensor4::zeros(2, 3, 4, 5);
        assert_eq!(t.shape(), (2, 3, 4, 5));
        assert_eq!(t.len(), 120);
        *t.at_mut(1, 2, 3, 4) = 7.0;
        assert_eq!(t.at(1, 2, 3, 4), 7.0);
        // Last element of the buffer.
        assert_eq!(t.as_slice()[119], 7.0);
    }

    #[test]
    fn nchw_layout_order() {
        let mut t = Tensor4::zeros(1, 2, 2, 2);
        *t.at_mut(0, 0, 0, 1) = 1.0;
        *t.at_mut(0, 1, 0, 0) = 2.0;
        // c-major after n: offset(0,1,0,0) = 4.
        assert_eq!(t.as_slice()[1], 1.0);
        assert_eq!(t.as_slice()[4], 2.0);
    }

    #[test]
    fn sample_and_plane_views() {
        let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let t = Tensor4::from_vec(2, 3, 2, 2, data);
        assert_eq!(t.sample(1)[0], 12.0);
        assert_eq!(t.plane(0, 1), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(t.plane(1, 2), &[20.0, 21.0, 22.0, 23.0]);
    }

    #[test]
    #[should_panic(expected = "tensor4 data length mismatch")]
    fn bad_length_panics() {
        let _ = Tensor4::from_vec(1, 1, 2, 2, vec![0.0; 3]);
    }
}
