//! Fixtures every workload shares: the golden twin networks, seeded
//! request inputs, and the reference outputs the program's answers are
//! checked against.
//!
//! The golden models are fixed — trained from [`FIXTURE_SEED`] whatever
//! the run's `--seed` — so the known heal failures (README.md) hit the
//! same layers in every run. The run seed picks only the inputs: the
//! requests, the fault positions and the order of the heal schedule.

use milr_core::MilrConfig;
use milr_nn::Sequential;
use milr_substrate::{SubstrateKind, WeightSubstrate};
use milr_tensor::{Tensor, TensorRng};

/// Seed the golden twins are built and trained from.
pub const FIXTURE_SEED: u64 = 42;

/// Distinct request inputs per run. Requests cycle through them in a
/// seeded order; one reference forward each is computed up front, so
/// checking an answer costs a compare rather than a forward that would
/// compete with the server for the cores.
pub const INPUT_POOL: usize = 512;

/// The substrate every workload stores weights in: SECDED over AES-XTS
/// ciphertext, the encrypted-VM arm whose decode is the costliest.
pub const SUBSTRATE: SubstrateKind = SubstrateKind::XtsSecded;

/// The reduced CIFAR-10-small twin, trained.
pub fn cifar() -> Sequential {
    milr_models::trained_reduced("cifar", FIXTURE_SEED).0
}

/// The reduced MNIST twin, trained.
pub fn mnist() -> Sequential {
    milr_models::trained_reduced("mnist", FIXTURE_SEED).0
}

/// MILR protection settings of every workload (the paper defaults).
pub fn milr_config() -> MilrConfig {
    MilrConfig::default()
}

/// Builds one layer shard on [`SUBSTRATE`].
pub fn build_shard(weights: &[f32]) -> Box<dyn WeightSubstrate> {
    SUBSTRATE.store(weights)
}

/// Derives an independent stream for one use of the run seed.
pub fn rng(seed: u64, stream: u64) -> TensorRng {
    TensorRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Uniform index below `n` (`n > 0`).
pub fn below(rng: &mut TensorRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Seeded request inputs with their reference outputs.
pub struct Requests {
    pub inputs: Vec<Tensor>,
    pub expected: Vec<Tensor>,
    order: TensorRng,
}

impl Requests {
    /// [`INPUT_POOL`] inputs drawn from `seed`, each with the output of
    /// `Sequential::forward` on the unprotected in-memory `golden`.
    pub fn new(golden: &Sequential, seed: u64) -> Self {
        let mut draw = rng(seed, 1);
        let inputs: Vec<Tensor> = (0..INPUT_POOL)
            .map(|_| draw.uniform_tensor(golden.input_shape()))
            .collect();
        let expected = inputs.iter().map(|x| reference_output(golden, x)).collect();
        Requests {
            inputs,
            expected,
            order: rng(seed, 2),
        }
    }

    /// Index of the next request's input.
    pub fn next_index(&mut self) -> usize {
        below(&mut self.order, INPUT_POOL)
    }
}

/// `Sequential::forward` of one example, batch dimension stripped.
pub fn reference_output(golden: &Sequential, input: &Tensor) -> Tensor {
    let batch = golden
        .stack_batch(std::slice::from_ref(input))
        .expect("input has the model's shape");
    let out = golden.forward(&batch).expect("golden model runs");
    Sequential::split_batch(&out, 1)
        .expect("one output row")
        .pop()
        .expect("one output row")
}

/// True when `got` is bit-for-bit `expected`.
pub fn bit_equal(got: &Tensor, expected: &Tensor) -> bool {
    got.shape() == expected.shape()
        && got
            .data()
            .iter()
            .zip(expected.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Largest elementwise distance between two same-shape tensors
/// (infinite on a shape mismatch or a non-finite element).
pub fn max_abs_diff(got: &Tensor, expected: &Tensor) -> f32 {
    if got.shape() != expected.shape() {
        return f32::INFINITY;
    }
    got.data()
        .iter()
        .zip(expected.data())
        .map(|(a, b)| {
            let d = (a - b).abs();
            if d.is_nan() {
                f32::INFINITY
            } else {
                d
            }
        })
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sequential {
        milr_models::serving_probe(3)
    }

    #[test]
    fn same_seed_same_requests() {
        let golden = tiny();
        let (mut a, mut b) = (Requests::new(&golden, 9), Requests::new(&golden, 9));
        assert!(a.inputs.iter().zip(&b.inputs).all(|(x, y)| bit_equal(x, y)));
        let (ia, ib): (Vec<usize>, Vec<usize>) =
            (0..64).map(|_| (a.next_index(), b.next_index())).unzip();
        assert_eq!(ia, ib);
        let mut c = Requests::new(&golden, 10);
        assert!(!bit_equal(&a.inputs[0], &c.inputs[0]));
        assert_ne!(ia, (0..64).map(|_| c.next_index()).collect::<Vec<_>>());
    }

    #[test]
    fn a_corrupted_output_fails_the_check() {
        let golden = tiny();
        let req = Requests::new(&golden, 5);
        let good = req.expected[0].clone();
        assert!(bit_equal(&good, &req.expected[0]));
        assert_eq!(max_abs_diff(&good, &req.expected[0]), 0.0);
        // One flipped low mantissa bit is enough to fail bit equality.
        let mut bad = good.clone();
        let v = bad.data()[1];
        bad.data_mut()[1] = f32::from_bits(v.to_bits() ^ 1);
        assert!(!bit_equal(&bad, &req.expected[0]));
        assert!(max_abs_diff(&bad, &req.expected[0]) > 0.0);
        let mut nan = good;
        nan.data_mut()[0] = f32::NAN;
        assert!(!bit_equal(&nan, &req.expected[0]));
        assert_eq!(max_abs_diff(&nan, &req.expected[0]), f32::INFINITY);
    }
}
