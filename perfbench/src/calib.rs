//! Host-speed calibration for the end-to-end times.
//!
//! The benchmark shares its cores with other tenants, whose load can slow
//! the same code by half for a minute at a time. So before and after each
//! timed stretch of work the benchmark times a fixed reference kernel of
//! its own (no program code), and reports the stretch in *nominal
//! seconds*: its wall seconds scaled by how much slower than
//! [`NOMINAL_SLICE_S`] the reference kernel ran around it. A program
//! change moves nominal seconds as it moves wall seconds; a slow host
//! slows the stretch and the reference alike, and cancels out.
//!
//! The kernel is a miniature of the pruning loop: one n = 61 matrix times
//! each of [`VECTORS`] vectors streamed from a 1 MB buffer, summed into
//! one vector. On a shared 2-core AVX2 host its slowdowns tracked those of
//! full likelihood evaluations on both gene shapes (correlation about 0.9
//! over 3-second windows, slope about 1), as closely as an L1-resident
//! matrix product did and more closely than a scalar dependency chain.

use crate::spans::clock;
use std::hint::black_box;

/// Order of the kernel's matrix: the codon model's n = 61.
const N: usize = 61;
/// Vectors streamed per slice (1 MB).
pub const VECTORS: usize = 2000;
/// Slices per calibration point, about half a second.
pub const SLICES: usize = 100;
/// Seconds one slice takes at the nominal host speed. Any fixed value
/// works, since parent and change are scaled alike; this one is about a
/// slice's typical time on the 2-core AVX2 machine the benchmark was
/// written on, so nominal seconds read close to wall seconds there.
pub const NOMINAL_SLICE_S: f64 = 0.0047;

/// The kernel's operands: a fixed matrix, the vectors it multiplies and
/// the vector their products are summed into.
struct Operands {
    matrix: Vec<f64>,
    input: Vec<f64>,
    sum: Vec<f64>,
}

impl Operands {
    fn new() -> Operands {
        Operands {
            matrix: (0..N * N).map(|i| (i as f64 * 0.37).sin()).collect(),
            input: (0..N * VECTORS).map(|i| (i as f64 * 0.13).cos()).collect(),
            sum: vec![0.0; N],
        }
    }

    /// Seconds of one slice: `sum += matrix · input[v]` for every vector
    /// `v`.
    fn slice_s(&mut self) -> f64 {
        let t = clock();
        let matrix = black_box(&self.matrix);
        for x in self.input.chunks_exact(N) {
            for (si, row) in self.sum.iter_mut().zip(matrix.chunks_exact(N)) {
                *si += row.iter().zip(x).map(|(a, b)| a * b).sum::<f64>();
            }
        }
        black_box(&mut self.sum);
        t.elapsed().as_secs_f64()
    }

    /// Mean seconds of [`SLICES`] slices.
    fn mean_slice_s(&mut self) -> f64 {
        (0..SLICES).map(|_| self.slice_s()).sum::<f64>() / SLICES as f64
    }
}

/// One calibration point: mean slice seconds over [`SLICES`] slices on
/// each of `threads` threads at once (one per batch worker, so that every
/// core the next stretch uses is sampled).
pub fn point(threads: usize) -> f64 {
    let per_thread = || Operands::new().mean_slice_s();
    if threads <= 1 {
        return per_thread();
    }
    let means: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(per_thread)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(f64::NAN))
            .collect()
    });
    means.iter().sum::<f64>() / means.len() as f64
}

/// Factor that turns wall seconds of a stretch into nominal seconds,
/// from the calibration points taken just before and just after it.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_SLICE_S / (0.5 * (before_s + after_s))
}
