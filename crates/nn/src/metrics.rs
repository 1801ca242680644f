//! Classification metrics.

use kfac_tensor::Tensor4;

/// Count of samples whose arg-max logit equals the target (Top-1).
#[allow(clippy::needless_range_loop)] // `i` indexes logits rows and targets
pub fn top1_correct(logits: &Tensor4, targets: &[usize]) -> usize {
    let (n, k, h, w) = logits.shape();
    assert_eq!((h, w), (1, 1), "logits must be (N, K, 1, 1)");
    assert_eq!(targets.len(), n);
    let mut correct = 0;
    for i in 0..n {
        let row = &logits.as_slice()[i * k..(i + 1) * k];
        let mut best = 0usize;
        for (c, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = c;
            }
        }
        if best == targets[i] {
            correct += 1;
        }
    }
    correct
}

/// Running accuracy accumulator across batches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accuracy {
    correct: usize,
    total: usize,
}

impl Accuracy {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one batch of predictions.
    pub fn update(&mut self, logits: &Tensor4, targets: &[usize]) {
        self.correct += top1_correct(logits, targets);
        self.total += targets.len();
    }

    /// Raw `(correct, total)` counts.
    pub fn counts(&self) -> (usize, usize) {
        (self.correct, self.total)
    }

    /// Accuracy in `[0, 1]`; 0 when empty.
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tensor_from;

    #[test]
    fn counts_argmax_matches() {
        let logits = tensor_from(3, 2, 1, 1, &[1.0, 0.0, 0.0, 1.0, 2.0, -1.0]);
        assert_eq!(top1_correct(&logits, &[0, 1, 0]), 3);
        assert_eq!(top1_correct(&logits, &[1, 1, 0]), 2);
    }

    #[test]
    fn accumulator_tracks_rate() {
        let mut acc = Accuracy::new();
        let logits = tensor_from(2, 2, 1, 1, &[1.0, 0.0, 1.0, 0.0]);
        acc.update(&logits, &[0, 1]); // one right, one wrong
        assert_eq!(acc.counts(), (1, 2));
        assert!((acc.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_zero() {
        assert_eq!(Accuracy::new().value(), 0.0);
    }
}
