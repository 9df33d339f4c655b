//! Trainable parameters: a value plus its accumulated gradient.
//!
//! COM-AID's parameter set `Θ` (Eq. 1) is the union of all layer
//! parameters; training "progressively back-propagates the error … and
//! their parameters are updated accordingly" (§4.2). Each layer owns its
//! [`MatParam`]/[`VecParam`] pairs and exposes them through the
//! [`Parameter`] trait so the optimizer and the gradient checker can walk
//! `Θ` generically.

use ncl_tensor::wire::{Reader, Wire, WireError};
use ncl_tensor::{Matrix, Vector};

/// Uniform view over a trainable parameter tensor.
pub trait Parameter {
    /// Number of scalar entries.
    fn num_params(&self) -> usize;
    /// Sum of squared gradient entries (for global-norm clipping).
    fn sq_grad_norm(&self) -> f32;
    /// Multiplies the gradient by `factor` (clipping).
    fn scale_grad(&mut self, factor: f32);
    /// SGD update `value -= lr * grad`.
    fn step(&mut self, lr: f32);
    /// Clears the gradient.
    fn zero_grad(&mut self);
    /// Mutable view of the values (used by the finite-difference checker).
    fn values_mut(&mut self) -> &mut [f32];
    /// View of the gradient buffer.
    fn grads(&self) -> &[f32];
    /// Mutable view of the gradient buffer (shard merging).
    fn grads_mut(&mut self) -> &mut [f32];
    /// For sparse parameters: the rows whose gradients are live. `None`
    /// means the whole gradient buffer is dense/live.
    fn touched(&self) -> Option<&[u32]> {
        None
    }
    /// Drains `donor`'s accumulated gradient into this parameter
    /// (`self.g += donor.g; donor.g = 0`), the merge step of the
    /// data-parallel trainer. The default is a dense element-wise add;
    /// sparse parameters override it to stay O(touched).
    ///
    /// # Panics
    /// Panics if the two parameters have different sizes.
    fn merge_grad_from(&mut self, donor: &mut dyn Parameter) {
        let dst = self.grads_mut();
        let src = donor.grads();
        assert_eq!(dst.len(), src.len(), "merge_grad_from: size mismatch");
        for (d, s) in dst.iter_mut().zip(src) {
            *d += s;
        }
        donor.zero_grad();
    }
}

/// A matrix-shaped parameter.
#[derive(Debug, Clone)]
pub struct MatParam {
    /// Current value.
    pub v: Matrix,
    /// Accumulated gradient, same shape as `v`.
    pub g: Matrix,
}

impl MatParam {
    /// Wraps an initial value with a zero gradient.
    pub fn new(v: Matrix) -> Self {
        let g = Matrix::zeros(v.rows(), v.cols());
        Self { v, g }
    }

    /// Overwrites this parameter's values with `src`'s (replica sync for
    /// the data-parallel trainer). Gradients are untouched.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn copy_values_from(&mut self, src: &Self) {
        assert_eq!(
            self.v.as_slice().len(),
            src.v.as_slice().len(),
            "copy_values_from: shape mismatch"
        );
        self.v.as_mut_slice().copy_from_slice(src.v.as_slice());
    }
}

impl Parameter for MatParam {
    fn num_params(&self) -> usize {
        self.v.rows() * self.v.cols()
    }
    fn sq_grad_norm(&self) -> f32 {
        self.g.sq_sum()
    }
    fn scale_grad(&mut self, factor: f32) {
        self.g.scale(factor);
    }
    fn step(&mut self, lr: f32) {
        self.v.axpy(-lr, &self.g);
    }
    fn zero_grad(&mut self) {
        self.g.fill_zero();
    }
    fn values_mut(&mut self) -> &mut [f32] {
        self.v.as_mut_slice()
    }
    fn grads(&self) -> &[f32] {
        self.g.as_slice()
    }
    fn grads_mut(&mut self) -> &mut [f32] {
        self.g.as_mut_slice()
    }
}

/// A vector-shaped parameter (biases).
#[derive(Debug, Clone)]
pub struct VecParam {
    /// Current value.
    pub v: Vector,
    /// Accumulated gradient, same length as `v`.
    pub g: Vector,
}

impl VecParam {
    /// Wraps an initial value with a zero gradient.
    pub fn new(v: Vector) -> Self {
        let g = Vector::zeros(v.len());
        Self { v, g }
    }

    /// A zero-initialised parameter of length `n` (the usual bias init).
    pub fn zeros(n: usize) -> Self {
        Self::new(Vector::zeros(n))
    }

    /// Overwrites this parameter's values with `src`'s (replica sync).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn copy_values_from(&mut self, src: &Self) {
        assert_eq!(
            self.v.len(),
            src.v.len(),
            "copy_values_from: length mismatch"
        );
        self.v.as_mut_slice().copy_from_slice(src.v.as_slice());
    }
}

impl Parameter for VecParam {
    fn num_params(&self) -> usize {
        self.v.len()
    }
    fn sq_grad_norm(&self) -> f32 {
        self.g.dot(&self.g)
    }
    fn scale_grad(&mut self, factor: f32) {
        self.g.scale(factor);
    }
    fn step(&mut self, lr: f32) {
        self.v.axpy(-lr, &self.g);
    }
    fn zero_grad(&mut self) {
        self.g.fill_zero();
    }
    fn values_mut(&mut self) -> &mut [f32] {
        self.v.as_mut_slice()
    }
    fn grads(&self) -> &[f32] {
        self.g.as_slice()
    }
    fn grads_mut(&mut self) -> &mut [f32] {
        self.g.as_mut_slice()
    }
}

/// A collection of named parameters, the concrete representation of `Θ`.
///
/// Layers register `&mut dyn Parameter` views into this walker; the
/// optimizer and gradient checker consume it.
pub struct ParamSet<'a> {
    entries: Vec<(&'static str, &'a mut dyn Parameter)>,
}

impl<'a> ParamSet<'a> {
    /// An empty set.
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// Registers a parameter under a diagnostic name.
    pub fn add(&mut self, name: &'static str, p: &'a mut dyn Parameter) {
        self.entries.push((name, p));
    }

    /// Iterates mutably over the registered parameters.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&'static str, &mut (dyn Parameter + 'a))> {
        self.entries.iter_mut().map(|(n, p)| (*n, &mut **p))
    }

    /// Number of registered tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.entries.iter().map(|(_, p)| p.num_params()).sum()
    }

    /// Drains `donor`'s gradients into this set, tensor by tensor in
    /// registration order. Both sets must have been collected from
    /// identically-shaped models (same walk, same order).
    ///
    /// # Panics
    /// Panics if the sets have different lengths or mismatched names.
    pub fn merge_grads_from(&mut self, donor: &mut ParamSet<'_>) {
        assert_eq!(
            self.entries.len(),
            donor.entries.len(),
            "merge_grads_from: tensor count mismatch"
        );
        for ((name, dst), (donor_name, src)) in
            self.entries.iter_mut().zip(donor.entries.iter_mut())
        {
            assert_eq!(*name, *donor_name, "merge_grads_from: walk order differs");
            dst.merge_grad_from(&mut **src);
        }
    }
}

impl<'a> Default for ParamSet<'a> {
    fn default() -> Self {
        Self::new()
    }
}

/// Implemented by every model/layer that owns parameters.
pub trait HasParams {
    /// Registers all owned parameters into `set`.
    fn collect_params<'a>(&'a mut self, set: &mut ParamSet<'a>);
}

/// Checkpoints persist parameter *values* only; gradients are transient
/// training state and decode as zeros.
impl Wire for MatParam {
    fn encode(&self, out: &mut Vec<u8>) {
        self.v.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self::new(Matrix::decode(r)?))
    }
}

/// See [`MatParam`]'s `Wire` impl: values only, fresh zero gradient.
impl Wire for VecParam {
    fn encode(&self, out: &mut Vec<u8>) {
        self.v.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self::new(Vector::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mat_param_step_moves_against_gradient() {
        let mut p = MatParam::new(Matrix::zeros(2, 2));
        p.g.as_mut_slice().copy_from_slice(&[1.0, -2.0, 0.0, 4.0]);
        p.step(0.5);
        assert_eq!(p.v.as_slice(), &[-0.5, 1.0, 0.0, -2.0]);
    }

    #[test]
    fn vec_param_zero_grad() {
        let mut p = VecParam::zeros(3);
        p.g[0] = 5.0;
        assert!(p.sq_grad_norm() > 0.0);
        p.zero_grad();
        assert_eq!(p.sq_grad_norm(), 0.0);
    }

    #[test]
    fn scale_grad_halves() {
        let mut p = VecParam::zeros(2);
        p.g[0] = 2.0;
        p.g[1] = 4.0;
        p.scale_grad(0.5);
        assert_eq!(p.grads(), &[1.0, 2.0]);
    }

    #[test]
    fn merge_grad_from_adds_and_drains_donor() {
        let mut dst = VecParam::zeros(3);
        let mut src = VecParam::zeros(3);
        dst.g.as_mut_slice().copy_from_slice(&[1.0, 0.0, -1.0]);
        src.g.as_mut_slice().copy_from_slice(&[0.5, 2.0, 1.0]);
        dst.merge_grad_from(&mut src);
        assert_eq!(dst.grads(), &[1.5, 2.0, 0.0]);
        assert_eq!(src.grads(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn param_set_merge_walks_in_order() {
        let mut a1 = MatParam::new(Matrix::zeros(2, 2));
        let mut b1 = VecParam::zeros(2);
        let mut a2 = MatParam::new(Matrix::zeros(2, 2));
        let mut b2 = VecParam::zeros(2);
        a2.g.as_mut_slice().fill(1.0);
        b2.g.as_mut_slice().fill(2.0);
        let mut dst = ParamSet::new();
        dst.add("a", &mut a1);
        dst.add("b", &mut b1);
        let mut donor = ParamSet::new();
        donor.add("a", &mut a2);
        donor.add("b", &mut b2);
        dst.merge_grads_from(&mut donor);
        drop(dst);
        drop(donor);
        assert_eq!(a1.grads(), &[1.0; 4]);
        assert_eq!(b1.grads(), &[2.0; 2]);
        assert_eq!(a2.grads(), &[0.0; 4]);
    }

    #[test]
    fn copy_values_from_syncs_without_touching_grads() {
        let mut dst = MatParam::new(Matrix::zeros(2, 2));
        dst.g.as_mut_slice().fill(3.0);
        let src = MatParam::new(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        dst.copy_values_from(&src);
        assert_eq!(dst.v.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(dst.grads(), &[3.0; 4]);
    }

    #[test]
    fn param_set_counts() {
        let mut a = MatParam::new(Matrix::zeros(2, 3));
        let mut b = VecParam::zeros(4);
        let mut set = ParamSet::new();
        set.add("a", &mut a);
        set.add("b", &mut b);
        assert_eq!(set.len(), 2);
        assert_eq!(set.num_params(), 10);
        assert!(!set.is_empty());
    }
}
