#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace explainti::tensor {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

namespace internal {

std::vector<float>& Node::EnsureGrad() {
  if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  return grad;
}

std::shared_ptr<Node> MakeNode(Shape shape) {
  auto node = std::make_shared<Node>();
  node->data.assign(static_cast<size_t>(NumElements(shape)), 0.0f);
  node->shape = std::move(shape);
  return node;
}

}  // namespace internal

Tensor Tensor::Zeros(const Shape& shape) {
  return Tensor(internal::MakeNode(shape));
}

Tensor Tensor::Full(const Shape& shape, float value) {
  auto node = internal::MakeNode(shape);
  for (float& v : node->data) v = value;
  return Tensor(node);
}

Tensor Tensor::FromVector(const Shape& shape,
                          const std::vector<float>& values) {
  CHECK_EQ(static_cast<int64_t>(values.size()), NumElements(shape))
      << "FromVector size mismatch for shape " << ShapeToString(shape);
  auto node = internal::MakeNode(shape);
  std::copy(values.begin(), values.end(), node->data.begin());
  return Tensor(node);
}

Tensor Tensor::Scalar(float value) {
  auto node = internal::MakeNode({});
  node->data[0] = value;
  return Tensor(node);
}

Tensor Tensor::Randn(const Shape& shape, util::Rng& rng, float stddev) {
  auto node = internal::MakeNode(shape);
  for (float& v : node->data) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return Tensor(node);
}

Tensor Tensor::RandUniform(const Shape& shape, util::Rng& rng, float bound) {
  auto node = internal::MakeNode(shape);
  for (float& v : node->data) {
    v = static_cast<float>(rng.Uniform(-bound, bound));
  }
  return Tensor(node);
}

const Shape& Tensor::shape() const {
  CHECK(node_ != nullptr) << "shape() on null tensor";
  return node_->shape;
}

int64_t Tensor::rank() const { return static_cast<int64_t>(shape().size()); }

int64_t Tensor::dim(int64_t i) const {
  const Shape& s = shape();
  int64_t r = static_cast<int64_t>(s.size());
  if (i < 0) i += r;
  CHECK(i >= 0 && i < r) << "dim index " << i << " out of range for "
                         << ShapeToString(s);
  return s[static_cast<size_t>(i)];
}

float* Tensor::grad() {
  CHECK(node_ != nullptr);
  return node_->EnsureGrad().data();
}

const float* Tensor::grad() const {
  CHECK(node_ != nullptr);
  return node_->EnsureGrad().data();
}

bool Tensor::has_grad() const {
  CHECK(node_ != nullptr);
  return node_->grad.size() == node_->data.size();
}

bool Tensor::requires_grad() const {
  CHECK(node_ != nullptr);
  return node_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool requires_grad) {
  CHECK(node_ != nullptr);
  node_->requires_grad = requires_grad;
  return *this;
}

float Tensor::item() const {
  CHECK_EQ(size(), 1) << "item() requires a single-element tensor";
  return node_->data[0];
}

float Tensor::at(int64_t flat_index) const {
  CHECK(flat_index >= 0 && flat_index < size());
  return node_->data[static_cast<size_t>(flat_index)];
}

std::vector<float> Tensor::ToVector() const {
  CHECK(node_ != nullptr);
  return node_->data;
}

void Tensor::Backward() {
  CHECK(node_ != nullptr);
  CHECK_EQ(size(), 1) << "Backward() must start from a scalar";

  // Topological order via iterative post-order DFS.
  std::vector<internal::Node*> order;
  std::unordered_set<internal::Node*> visited;
  std::vector<std::pair<internal::Node*, size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, child_index] = stack.back();
    if (child_index < node->parents.size()) {
      internal::Node* parent = node->parents[child_index].get();
      ++child_index;
      if (visited.insert(parent).second) stack.emplace_back(parent, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  node_->EnsureGrad()[0] = 1.0f;
  // `order` is post-order (parents before children); reverse it so each
  // node's backward runs after all of its consumers have contributed.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
    if (node->backward_fn && node->grad.size() == node->data.size()) {
      node->backward_fn();
    }
  }
}

void Tensor::ZeroGrad() {
  CHECK(node_ != nullptr);
  if (!node_->grad.empty()) {
    std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  }
}

Tensor Tensor::Detach() const {
  CHECK(node_ != nullptr);
  auto node = internal::MakeNode(node_->shape);
  // Copy: detached view must not alias autograd.
  std::copy(node_->data.begin(), node_->data.end(), node->data.begin());
  node->requires_grad = false;
  return Tensor(node);
}

Tensor Tensor::Clone() const { return Detach(); }

void Tensor::AddInPlace(const Tensor& other, float scale) {
  CHECK(node_ != nullptr && other.node_ != nullptr);
  CHECK_EQ(size(), other.size()) << "AddInPlace size mismatch";
  const float* src = other.data();
  float* dst = data();
  for (int64_t i = 0; i < size(); ++i) dst[i] += scale * src[i];
}

}  // namespace explainti::tensor
