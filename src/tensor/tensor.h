#ifndef EXPLAINTI_TENSOR_TENSOR_H_
#define EXPLAINTI_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace explainti::tensor {

/// Tensor shape; rank 0 (empty shape) denotes a scalar.
using Shape = std::vector<int64_t>;

/// Number of elements implied by `shape` (1 for scalars).
int64_t NumElements(const Shape& shape);

/// Renders a shape as "[2, 3]" for error messages.
std::string ShapeToString(const Shape& shape);

namespace internal {

/// Graph node backing a Tensor: storage, gradient, and the backward closure
/// that scatters this node's gradient into its parents.
struct Node {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // Allocated lazily; same length as data.
  bool requires_grad = false;
  // Parents kept alive for backward; empty for leaves.
  std::vector<std::shared_ptr<Node>> parents;
  // Propagates `grad` into parents' grads. Null for leaves.
  std::function<void()> backward_fn;

  /// Ensures `grad` is allocated (zero-filled) and returns it.
  std::vector<float>& EnsureGrad();
};

/// A fresh heap node of `shape` with zero-filled data: every leaf and op
/// result starts here.
std::shared_ptr<Node> MakeNode(Shape shape);

}  // namespace internal

/// Dense float32 tensor with reverse-mode automatic differentiation.
///
/// `Tensor` is a cheap value-semantics handle onto a shared graph node, in
/// the style of PyTorch: operations in tensor_ops.h build a computation
/// graph, and `Backward()` on a scalar loss fills `grad()` on every
/// reachable tensor with `requires_grad() == true` (and on the interior
/// nodes between them). Single-threaded; designed for the small encoder
/// models used in this reproduction, not for large-scale training.
class Tensor {
 public:
  /// Null handle; most operations on it abort. Use the factories below.
  Tensor() = default;

  // Factories -----------------------------------------------------------

  /// Zero-filled tensor.
  static Tensor Zeros(const Shape& shape);

  /// Tensor filled with `value`.
  static Tensor Full(const Shape& shape, float value);

  /// Tensor wrapping a copy of `values`; size must match the shape.
  static Tensor FromVector(const Shape& shape,
                           const std::vector<float>& values);

  /// Gaussian init with the given standard deviation.
  static Tensor Randn(const Shape& shape, util::Rng& rng, float stddev);

  /// Uniform init in [-bound, bound].
  static Tensor RandUniform(const Shape& shape, util::Rng& rng, float bound);

  // Introspection -------------------------------------------------------

  bool defined() const { return node_ != nullptr; }
  const Shape& shape() const;
  /// Rank (number of dimensions).
  int64_t rank() const;
  /// Extent of dimension `i` (supports negative indexing from the back).
  int64_t dim(int64_t i) const;
  /// Total number of elements.
  int64_t size() const { return static_cast<int64_t>(node_->data.size()); }

  // data()/size() are defined inline: they run once or more per tensor op,
  // and the out-of-line call was measurable (~3%) in serving profiles.
  float* data() { return node_->data.data(); }
  const float* data() const { return node_->data.data(); }

  /// Gradient buffer; allocated (zeros) on first access.
  float* grad();
  const float* grad() const;
  /// True if a gradient buffer has been allocated.
  bool has_grad() const;

  bool requires_grad() const;
  /// Marks this tensor as a trainable leaf (or not). Only meaningful on
  /// leaves; interior nodes track requirement automatically.
  Tensor& set_requires_grad(bool requires_grad);

  /// Value of a rank-0 or single-element tensor.
  float item() const;

  /// Copies the data out.
  std::vector<float> ToVector() const;

  // Autograd ------------------------------------------------------------

  /// Runs reverse-mode autodiff from this scalar: topologically sorts the
  /// graph, seeds d(self)/d(self) = 1, and accumulates into grad buffers.
  /// Requires `size() == 1`.
  void Backward();

  /// Zeroes this tensor's gradient buffer if allocated.
  void ZeroGrad();

  /// Returns a tensor sharing this data but cut off from the graph
  /// (constant with respect to autograd).
  Tensor Detach() const;

  // Internal ------------------------------------------------------------

  /// Wraps an existing node (used by tensor_ops.cc).
  explicit Tensor(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}
  const std::shared_ptr<internal::Node>& node() const { return node_; }

 private:
  std::shared_ptr<internal::Node> node_;
};

}  // namespace explainti::tensor

#endif  // EXPLAINTI_TENSOR_TENSOR_H_
