#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/gelu.h"
#include "tensor/plan_kernels.h"
#include "util/logging.h"

#if defined(__GNUC__) || defined(__clang__)
#define EXPLAINTI_RESTRICT __restrict__
#else
#define EXPLAINTI_RESTRICT
#endif

namespace explainti::tensor {

namespace {

using internal::Node;

/// Allocates a zero-filled op-result node wired to its parents. The
/// caller fills `data` and attaches `backward_fn` when `requires_grad` is
/// set.
template <typename ParentRange>
std::shared_ptr<Node> NewNodeImpl(Shape shape, const ParentRange& parents) {
  auto node = internal::MakeNode(std::move(shape));
  bool requires_grad = false;
  for (const Tensor& p : parents) {
    CHECK(p.defined());
    node->parents.push_back(p.node());
    requires_grad = requires_grad || p.node()->requires_grad;
  }
  node->requires_grad = requires_grad;
  return node;
}

/// Fixed-arity form for the common `{a, b}` call sites (the parent list
/// lives on the stack as reference_wrappers, no Tensor copies).
std::shared_ptr<Node> NewNode(
    Shape shape,
    std::initializer_list<std::reference_wrapper<const Tensor>> parents) {
  return NewNodeImpl(std::move(shape), parents);
}

/// Variable-arity form for ops with a runtime parent list (Concat*, Stack).
std::shared_ptr<Node> NewNode(Shape shape, const std::vector<Tensor>& parents) {
  return NewNodeImpl(std::move(shape), parents);
}

void Accumulate(Node* parent, const float* grad, size_t n) {
  if (!parent->requires_grad) return;
  auto& g = parent->EnsureGrad();
  for (size_t i = 0; i < n; ++i) g[i] += grad[i];
}

int64_t LastDim(const Tensor& t) {
  CHECK_GE(t.rank(), 1);
  return t.dim(-1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Elementwise / binary
// ---------------------------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  const bool broadcast = a.shape() != b.shape();
  if (broadcast) {
    CHECK(b.rank() == 1 && a.rank() >= 1 && LastDim(a) == b.dim(0))
        << "Add broadcast requires b rank-1 matching a's last dim; got "
        << ShapeToString(a.shape()) << " + " << ShapeToString(b.shape());
  }
  auto node = NewNode(a.shape(), {a, b});
  const int64_t n = a.size();
  const int64_t cols = broadcast ? b.size() : n;
  const float* EXPLAINTI_RESTRICT pa = a.data();
  const float* EXPLAINTI_RESTRICT pb = b.data();
  float* EXPLAINTI_RESTRICT po = node->data.data();
  // Split the flat `i % cols` indexing into row loops: the modulo costs an
  // integer division per element, which dominated this op in profiles. The
  // additions themselves are unchanged, so the bits are too.
  if (!broadcast) {
    for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
  } else {
    for (int64_t r = 0; r < n; r += cols) {
      for (int64_t j = 0; j < cols; ++j) po[r + j] = pa[r + j] + pb[j];
    }
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    auto nb = b.node();
    node->backward_fn = [out, na, nb, n, cols, broadcast]() {
      Accumulate(na.get(), out->grad.data(), static_cast<size_t>(n));
      if (!nb->requires_grad) return;
      auto& gb = nb->EnsureGrad();
      if (!broadcast) {
        for (int64_t i = 0; i < n; ++i) gb[i] += out->grad[i];
      } else {
        for (int64_t r = 0; r < n; r += cols) {
          for (int64_t j = 0; j < cols; ++j) gb[j] += out->grad[r + j];
        }
      }
    };
  }
  return Tensor(node);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CHECK(a.shape() == b.shape()) << "Sub shape mismatch";
  auto node = NewNode(a.shape(), {a, b});
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) node->data[i] = a.data()[i] - b.data()[i];
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    auto nb = b.node();
    node->backward_fn = [out, na, nb, n]() {
      Accumulate(na.get(), out->grad.data(), static_cast<size_t>(n));
      if (!nb->requires_grad) return;
      auto& gb = nb->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) gb[i] -= out->grad[i];
    };
  }
  return Tensor(node);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  const bool broadcast = a.shape() != b.shape();
  if (broadcast) {
    CHECK(b.rank() == 1 && LastDim(a) == b.dim(0))
        << "Mul broadcast requires b rank-1 matching a's last dim";
  }
  auto node = NewNode(a.shape(), {a, b});
  const int64_t n = a.size();
  const int64_t cols = broadcast ? b.size() : n;
  {
    const float* EXPLAINTI_RESTRICT pa = a.data();
    const float* EXPLAINTI_RESTRICT pb = b.data();
    float* EXPLAINTI_RESTRICT po = node->data.data();
    // Row loops instead of `i % cols` — same products, no per-element
    // integer division (see Add above).
    for (int64_t r = 0; r < n; r += cols) {
      for (int64_t j = 0; j < cols; ++j) po[r + j] = pa[r + j] * pb[j];
    }
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    auto nb = b.node();
    node->backward_fn = [out, na, nb, n, cols]() {
      if (na->requires_grad) {
        auto& ga = na->EnsureGrad();
        for (int64_t r = 0; r < n; r += cols) {
          for (int64_t j = 0; j < cols; ++j) {
            ga[r + j] += out->grad[r + j] * nb->data[j];
          }
        }
      }
      if (nb->requires_grad) {
        auto& gb = nb->EnsureGrad();
        for (int64_t r = 0; r < n; r += cols) {
          for (int64_t j = 0; j < cols; ++j) {
            gb[j] += out->grad[r + j] * na->data[r + j];
          }
        }
      }
    };
  }
  return Tensor(node);
}

Tensor Scale(const Tensor& a, float c) {
  auto node = NewNode(a.shape(), {a});
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) node->data[i] = a.data()[i] * c;
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, n, c]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) ga[i] += out->grad[i] * c;
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CHECK(a.rank() == 1 || a.rank() == 2) << "MatMul: bad lhs rank";
  CHECK(b.rank() == 1 || b.rank() == 2) << "MatMul: bad rhs rank";
  const int64_t m = a.rank() == 2 ? a.dim(0) : 1;
  const int64_t k = a.rank() == 2 ? a.dim(1) : a.dim(0);
  const int64_t k2 = b.rank() == 2 ? b.dim(0) : b.dim(0);
  const int64_t n = b.rank() == 2 ? b.dim(1) : 1;
  CHECK_EQ(k, k2) << "MatMul inner-dimension mismatch: "
                  << ShapeToString(a.shape()) << " x "
                  << ShapeToString(b.shape());

  Shape out_shape;
  if (a.rank() == 2 && b.rank() == 2) {
    out_shape = {m, n};
  } else if (a.rank() == 1 && b.rank() == 2) {
    out_shape = {n};
  } else if (a.rank() == 2 && b.rank() == 1) {
    out_shape = {m};
  } else {
    out_shape = {};  // scalar dot
  }

  // C = A·B on the serving GEMM, accumulating into the zero-filled node.
  auto node = NewNode(out_shape, {a, b});
  ServingGemm(a.data(), k, b.data(), n, /*trans_b=*/false, node->data.data(),
              n, m, k, n);

  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    auto nb = b.node();
    node->backward_fn = [out, na, nb, m, k, n]() {
      const float* gout = out->grad.data();
      if (na->requires_grad) {
        // dA = dC·Bᵀ : [m,k], each element a j-ascending dot product from
        // zero, then added to the gradient.
        std::vector<float> da(static_cast<size_t>(m * k), 0.0f);
        ServingGemm(gout, n, nb->data.data(), n, /*trans_b=*/true, da.data(),
                    k, m, n, k);
        Accumulate(na.get(), da.data(), da.size());
      }
      if (nb->requires_grad) {
        // dB = Aᵀ·dC : [k,n], accumulated i-ascending straight into the
        // gradient, over a transposed copy of A.
        const float* pa = na->data.data();
        std::vector<float> at(static_cast<size_t>(k * m));
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t kk = 0; kk < k; ++kk) at[kk * m + i] = pa[i * k + kk];
        }
        ServingGemm(at.data(), m, gout, n, /*trans_b=*/false,
                    nb->EnsureGrad().data(), n, k, m, n);
      }
    };
  }
  return Tensor(node);
}

Tensor Transpose(const Tensor& a) {
  CHECK_EQ(a.rank(), 2) << "Transpose requires rank-2";
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  auto node = NewNode({n, m}, {a});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      node->data[j * m + i] = a.data()[i * n + j];
    }
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, m, n]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          ga[i * n + j] += out->grad[j * m + i];
        }
      }
    };
  }
  return Tensor(node);
}

Tensor L2Normalize(const Tensor& x, float eps) {
  CHECK_EQ(x.rank(), 1) << "L2Normalize requires rank-1";
  const int64_t n = x.size();
  auto node = NewNode(x.shape(), {x});
  const float norm = L2NormalizeRow(x.data(), node->data.data(), n, eps);
  if (node->requires_grad) {
    Node* out = node.get();
    auto nx = x.node();
    node->backward_fn = [out, nx, n, norm]() {
      if (!nx->requires_grad) return;
      // d/dx (x / |x|) = (I - y y^T) / |x| with y = x/|x|.
      float dot = 0.0f;
      for (int64_t i = 0; i < n; ++i) dot += out->grad[i] * out->data[i];
      auto& gx = nx->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        gx[i] += (out->grad[i] - dot * out->data[i]) / norm;
      }
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Shape
// ---------------------------------------------------------------------------

Tensor Reshape(const Tensor& a, const Shape& shape) {
  CHECK_EQ(NumElements(shape), a.size()) << "Reshape element-count mismatch";
  auto node = NewNode(shape, {a});
  std::copy(a.data(), a.data() + a.size(), node->data.begin());
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na]() {
      Accumulate(na.get(), out->grad.data(), out->grad.size());
    };
  }
  return Tensor(node);
}

Tensor SliceRows(const Tensor& a, int64_t start, int64_t end) {
  CHECK_EQ(a.rank(), 2) << "SliceRows requires rank-2";
  CHECK(0 <= start && start < end && end <= a.dim(0))
      << "SliceRows range [" << start << ", " << end << ") out of bounds";
  const int64_t n = a.dim(1);
  const int64_t rows = end - start;
  auto node = NewNode({rows, n}, {a});
  std::copy(a.data() + start * n, a.data() + end * n, node->data.begin());
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, start, rows, n]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < rows * n; ++i) {
        ga[start * n + i] += out->grad[i];
      }
    };
  }
  return Tensor(node);
}

Tensor Row(const Tensor& a, int64_t index) {
  Tensor slice = SliceRows(a, index, index + 1);
  return Reshape(slice, {a.dim(1)});
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t end) {
  CHECK_EQ(a.rank(), 2) << "SliceCols requires rank-2";
  CHECK(0 <= start && start < end && end <= a.dim(1))
      << "SliceCols range [" << start << ", " << end << ") out of bounds";
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  const int64_t w = end - start;
  auto node = NewNode({m, w}, {a});
  for (int64_t i = 0; i < m; ++i) {
    std::copy(a.data() + i * n + start, a.data() + i * n + end,
              node->data.begin() + i * w);
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, m, n, w, start]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < w; ++j) {
          ga[i * n + start + j] += out->grad[i * w + j];
        }
      }
    };
  }
  return Tensor(node);
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  CHECK(!parts.empty());
  const int64_t m = parts[0].dim(0);
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    CHECK(p.rank() == 2 && p.dim(0) == m) << "ConcatCols row mismatch";
    total_cols += p.dim(1);
  }
  auto node = NewNode({m, total_cols}, parts);
  int64_t col_offset = 0;
  for (const Tensor& p : parts) {
    const int64_t w = p.dim(1);
    for (int64_t i = 0; i < m; ++i) {
      std::copy(p.data() + i * w, p.data() + (i + 1) * w,
                node->data.begin() + i * total_cols + col_offset);
    }
    col_offset += w;
  }
  if (node->requires_grad) {
    Node* out = node.get();
    std::vector<std::shared_ptr<Node>> nodes;
    nodes.reserve(parts.size());
    for (const Tensor& p : parts) nodes.push_back(p.node());
    node->backward_fn = [out, nodes, m, total_cols]() {
      int64_t col_offset = 0;
      for (const auto& parent : nodes) {
        const int64_t w =
            static_cast<int64_t>(parent->data.size()) / m;
        if (parent->requires_grad) {
          auto& g = parent->EnsureGrad();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < w; ++j) {
              g[i * w + j] += out->grad[i * total_cols + col_offset + j];
            }
          }
        }
        col_offset += w;
      }
    };
  }
  return Tensor(node);
}

Tensor Concat(const Tensor& a, const Tensor& b) {
  CHECK(a.rank() == 1 && b.rank() == 1) << "Concat requires rank-1 inputs";
  const int64_t p = a.size();
  const int64_t q = b.size();
  auto node = NewNode({p + q}, {a, b});
  std::copy(a.data(), a.data() + p, node->data.begin());
  std::copy(b.data(), b.data() + q, node->data.begin() + p);
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    auto nb = b.node();
    node->backward_fn = [out, na, nb, p, q]() {
      Accumulate(na.get(), out->grad.data(), static_cast<size_t>(p));
      if (nb->requires_grad) {
        auto& gb = nb->EnsureGrad();
        for (int64_t i = 0; i < q; ++i) gb[i] += out->grad[p + i];
      }
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

Tensor MeanRows(const Tensor& a) {
  CHECK_EQ(a.rank(), 2) << "MeanRows requires rank-2";
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  auto node = NewNode({n}, {a});
  MeanRowsInto(a.data(), m, n, node->data.data());
  const float inv_m = 1.0f / static_cast<float>(m);
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, m, n, inv_m]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          ga[i * n + j] += out->grad[j] * inv_m;
        }
      }
    };
  }
  return Tensor(node);
}

Tensor Sum(const Tensor& a) {
  auto node = NewNode({}, {a});
  float acc = 0.0f;
  for (int64_t i = 0; i < a.size(); ++i) acc += a.data()[i];
  node->data[0] = acc;
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (float& g : ga) g += out->grad[0];
    };
  }
  return Tensor(node);
}

Tensor Mean(const Tensor& a) {
  return Scale(Sum(a), 1.0f / static_cast<float>(a.size()));
}

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

Tensor Relu(const Tensor& a) {
  auto node = NewNode(a.shape(), {a});
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    node->data[i] = a.data()[i] > 0.0f ? a.data()[i] : 0.0f;
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, n]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        if (na->data[i] > 0.0f) ga[i] += out->grad[i];
      }
    };
  }
  return Tensor(node);
}

Tensor Gelu(const Tensor& a) {
  auto node = NewNode(a.shape(), {a});
  const int64_t n = a.size();
  GeluInto(a.data(), node->data.data(), n);
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, n]() {
      if (!na->requires_grad) return;
      GeluGradAccumulate(na->data.data(), out->grad.data(),
                         na->EnsureGrad().data(), n);
    };
  }
  return Tensor(node);
}

Tensor SigmoidOp(const Tensor& a) {
  auto node = NewNode(a.shape(), {a});
  const int64_t n = a.size();
  SigmoidInto(a.data(), node->data.data(), n);
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, n]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) {
        const float y = out->data[i];
        ga[i] += out->grad[i] * y * (1.0f - y);
      }
    };
  }
  return Tensor(node);
}

namespace {

/// Applies a row-wise softmax-family op over the last dimension.
struct RowRange {
  int64_t rows;
  int64_t cols;
};

RowRange LastDimRows(const Tensor& a) {
  CHECK_GE(a.rank(), 1);
  const int64_t cols = a.dim(-1);
  return RowRange{a.size() / cols, cols};
}

}  // namespace

Tensor Softmax(const Tensor& a) {
  const RowRange rr = LastDimRows(a);
  auto node = NewNode(a.shape(), {a});
  // The row loop is ScaleSoftmaxRows' with scale 1 (x * 1.0f == x), the
  // one compiled copy the serving paths run too.
  float* pout = node->data.data();
  std::copy(a.data(), a.data() + a.size(), pout);
  ScaleSoftmaxRows(pout, rr.rows, rr.cols, 1.0f);
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, rr]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t r = 0; r < rr.rows; ++r) {
        const float* y = out->data.data() + r * rr.cols;
        const float* gy = out->grad.data() + r * rr.cols;
        float dot = 0.0f;
        for (int64_t j = 0; j < rr.cols; ++j) dot += y[j] * gy[j];
        for (int64_t j = 0; j < rr.cols; ++j) {
          ga[r * rr.cols + j] += y[j] * (gy[j] - dot);
        }
      }
    };
  }
  return Tensor(node);
}

Tensor LogSoftmax(const Tensor& a) {
  const RowRange rr = LastDimRows(a);
  auto node = NewNode(a.shape(), {a});
  const float* pa = a.data();
  float* pout = node->data.data();
  for (int64_t r = 0; r < rr.rows; ++r) {
    const float* in = pa + r * rr.cols;
    float* out = pout + r * rr.cols;
    float max_v = in[0];
    for (int64_t j = 1; j < rr.cols; ++j) max_v = std::max(max_v, in[j]);
    float total = 0.0f;
    for (int64_t j = 0; j < rr.cols; ++j) total += std::exp(in[j] - max_v);
    const float log_z = max_v + std::log(total);
    for (int64_t j = 0; j < rr.cols; ++j) out[j] = in[j] - log_z;
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, rr]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t r = 0; r < rr.rows; ++r) {
        const float* y = out->data.data() + r * rr.cols;
        const float* gy = out->grad.data() + r * rr.cols;
        float gsum = 0.0f;
        for (int64_t j = 0; j < rr.cols; ++j) gsum += gy[j];
        for (int64_t j = 0; j < rr.cols; ++j) {
          ga[r * rr.cols + j] += gy[j] - std::exp(y[j]) * gsum;
        }
      }
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Normalisation
// ---------------------------------------------------------------------------

Tensor LayerNorm(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  const RowRange rr = LastDimRows(a);
  CHECK(gamma.rank() == 1 && gamma.size() == rr.cols) << "LayerNorm gamma";
  CHECK(beta.rank() == 1 && beta.size() == rr.cols) << "LayerNorm beta";
  auto node = NewNode(a.shape(), {a, gamma, beta});
  // Cache per-row mean and inverse stddev for backward — only when a
  // backward pass can happen.
  std::shared_ptr<std::vector<float>> means, inv_stds;
  if (node->requires_grad) {
    means = std::make_shared<std::vector<float>>(rr.rows);
    inv_stds = std::make_shared<std::vector<float>>(rr.rows);
  }
  // Each row is normalised in place by LayerNormRow, the row routine the
  // serving LayerNorm fusions run.
  float* pout = node->data.data();
  std::copy(a.data(), a.data() + a.size(), pout);
  for (int64_t r = 0; r < rr.rows; ++r) {
    const LayerNormStats stats = LayerNormRow(
        pout + r * rr.cols, rr.cols, gamma.data(), beta.data(), eps);
    if (means) {
      (*means)[r] = stats.mean;
      (*inv_stds)[r] = stats.inv_std;
    }
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    auto ng = gamma.node();
    auto nb = beta.node();
    node->backward_fn = [out, na, ng, nb, rr, means, inv_stds]() {
      // gamma/beta gradients accumulate across rows, row-ascending.
      if (ng->requires_grad) {
        auto& gg = ng->EnsureGrad();
        for (int64_t r = 0; r < rr.rows; ++r) {
          const float* in = na->data.data() + r * rr.cols;
          const float* gy = out->grad.data() + r * rr.cols;
          const float mean = (*means)[r];
          const float inv_std = (*inv_stds)[r];
          for (int64_t j = 0; j < rr.cols; ++j) {
            gg[j] += gy[j] * (in[j] - mean) * inv_std;
          }
        }
      }
      if (nb->requires_grad) {
        auto& gb = nb->EnsureGrad();
        for (int64_t r = 0; r < rr.rows; ++r) {
          const float* gy = out->grad.data() + r * rr.cols;
          for (int64_t j = 0; j < rr.cols; ++j) gb[j] += gy[j];
        }
      }
      if (na->requires_grad) {
        auto& ga = na->EnsureGrad();
        for (int64_t r = 0; r < rr.rows; ++r) {
          const float* in = na->data.data() + r * rr.cols;
          const float* gy = out->grad.data() + r * rr.cols;
          const float mean = (*means)[r];
          const float inv_std = (*inv_stds)[r];
          // Standard layernorm backward:
          // dx = (gamma*gy - mean(gamma*gy) - xhat*mean(gamma*gy*xhat))
          //      * inv_std
          float sum_g = 0.0f;
          float sum_gx = 0.0f;
          for (int64_t j = 0; j < rr.cols; ++j) {
            const float xhat = (in[j] - mean) * inv_std;
            const float g = gy[j] * ng->data[j];
            sum_g += g;
            sum_gx += g * xhat;
          }
          const float inv_n = 1.0f / static_cast<float>(rr.cols);
          for (int64_t j = 0; j < rr.cols; ++j) {
            const float xhat = (in[j] - mean) * inv_std;
            const float g = gy[j] * ng->data[j];
            ga[r * rr.cols + j] +=
                (g - sum_g * inv_n - xhat * sum_gx * inv_n) * inv_std;
          }
        }
      }
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Embeddings
// ---------------------------------------------------------------------------

Tensor EmbeddingLookup(const Tensor& table, const std::vector<int>& ids) {
  CHECK_EQ(table.rank(), 2) << "EmbeddingLookup requires rank-2 table";
  const int64_t vocab = table.dim(0);
  const int64_t d = table.dim(1);
  for (int id : ids) {
    CHECK(id >= 0 && id < vocab) << "embedding id " << id << " out of range";
  }
  auto node = NewNode({static_cast<int64_t>(ids.size()), d}, {table});
  for (size_t i = 0; i < ids.size(); ++i) {
    std::copy(table.data() + ids[i] * d, table.data() + (ids[i] + 1) * d,
              node->data.begin() + static_cast<int64_t>(i) * d);
  }
  if (node->requires_grad) {
    Node* out = node.get();
    auto nt = table.node();
    node->backward_fn = [out, nt, ids, d]() {
      if (!nt->requires_grad) return;
      auto& gt = nt->EnsureGrad();
      for (size_t i = 0; i < ids.size(); ++i) {
        for (int64_t j = 0; j < d; ++j) {
          gt[ids[i] * d + j] += out->grad[static_cast<int64_t>(i) * d + j];
        }
      }
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

Tensor Dropout(const Tensor& a, float p, util::Rng& rng, bool training) {
  if (!training || p <= 0.0f) {
    // Identity pass-through that still participates in the graph.
    return Scale(a, 1.0f);
  }
  CHECK_LT(p, 1.0f) << "Dropout probability must be < 1";
  const int64_t n = a.size();
  auto mask = std::make_shared<std::vector<float>>(n);
  const float keep_scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    (*mask)[i] = rng.Bernoulli(p) ? 0.0f : keep_scale;
  }
  auto node = NewNode(a.shape(), {a});
  for (int64_t i = 0; i < n; ++i) node->data[i] = a.data()[i] * (*mask)[i];
  if (node->requires_grad) {
    Node* out = node.get();
    auto na = a.node();
    node->backward_fn = [out, na, mask, n]() {
      if (!na->requires_grad) return;
      auto& ga = na->EnsureGrad();
      for (int64_t i = 0; i < n; ++i) ga[i] += out->grad[i] * (*mask)[i];
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

Tensor CrossEntropyLoss(const Tensor& logits, int target) {
  CHECK_EQ(logits.rank(), 1) << "CrossEntropyLoss expects rank-1 logits";
  CHECK(target >= 0 && target < logits.size()) << "target out of range";
  Tensor log_probs = LogSoftmax(logits);
  // loss = -log_probs[target]
  auto node = NewNode({}, {log_probs});
  node->data[0] = -log_probs.data()[target];
  if (node->requires_grad) {
    Node* out = node.get();
    auto nl = log_probs.node();
    node->backward_fn = [out, nl, target]() {
      if (!nl->requires_grad) return;
      nl->EnsureGrad()[target] -= out->grad[0];
    };
  }
  return Tensor(node);
}

Tensor BceWithLogitsLoss(const Tensor& logits,
                         const std::vector<float>& target) {
  CHECK_EQ(logits.rank(), 1);
  CHECK_EQ(static_cast<int64_t>(target.size()), logits.size());
  const int64_t c = logits.size();
  auto node = NewNode({}, {logits});
  // Stable per-element loss: max(x,0) - x*t + log(1 + exp(-|x|)).
  float total = 0.0f;
  for (int64_t i = 0; i < c; ++i) {
    const float x = logits.data()[i];
    const float t = target[static_cast<size_t>(i)];
    total += std::max(x, 0.0f) - x * t + std::log1p(std::exp(-std::abs(x)));
  }
  node->data[0] = total / static_cast<float>(c);
  if (node->requires_grad) {
    Node* out = node.get();
    auto nl = logits.node();
    node->backward_fn = [out, nl, target, c]() {
      if (!nl->requires_grad) return;
      auto& g = nl->EnsureGrad();
      const float scale = out->grad[0] / static_cast<float>(c);
      for (int64_t i = 0; i < c; ++i) {
        const float sig = 1.0f / (1.0f + std::exp(-nl->data[i]));
        g[i] += scale * (sig - target[static_cast<size_t>(i)]);
      }
    };
  }
  return Tensor(node);
}

Tensor NllFromProbs(const Tensor& probs, int target) {
  CHECK_EQ(probs.rank(), 1);
  CHECK(target >= 0 && target < probs.size());
  constexpr float kEps = 1e-7f;
  auto node = NewNode({}, {probs});
  const float p = std::max(probs.data()[target], kEps);
  node->data[0] = -std::log(p);
  if (node->requires_grad) {
    Node* out = node.get();
    auto np = probs.node();
    node->backward_fn = [out, np, target]() {
      if (!np->requires_grad) return;
      const float p = std::max(np->data[target], 1e-7f);
      np->EnsureGrad()[target] += out->grad[0] * (-1.0f / p);
    };
  }
  return Tensor(node);
}

Tensor BceFromProbs(const Tensor& probs, const std::vector<float>& target) {
  CHECK_EQ(probs.rank(), 1);
  CHECK_EQ(static_cast<int64_t>(target.size()), probs.size());
  constexpr float kEps = 1e-7f;
  const int64_t c = probs.size();
  auto node = NewNode({}, {probs});
  float total = 0.0f;
  for (int64_t i = 0; i < c; ++i) {
    const float p =
        std::min(std::max(probs.data()[i], kEps), 1.0f - kEps);
    const float t = target[static_cast<size_t>(i)];
    total += -(t * std::log(p) + (1.0f - t) * std::log(1.0f - p));
  }
  node->data[0] = total / static_cast<float>(c);
  if (node->requires_grad) {
    Node* out = node.get();
    auto np = probs.node();
    node->backward_fn = [out, np, target, c]() {
      if (!np->requires_grad) return;
      auto& g = np->EnsureGrad();
      const float scale = out->grad[0] / static_cast<float>(c);
      for (int64_t i = 0; i < c; ++i) {
        const float p =
            std::min(std::max(np->data[i], 1e-7f), 1.0f - 1e-7f);
        const float t = target[static_cast<size_t>(i)];
        g[i] += scale * (-t / p + (1.0f - t) / (1.0f - p));
      }
    };
  }
  return Tensor(node);
}

// ---------------------------------------------------------------------------
// Host-side helpers
// ---------------------------------------------------------------------------

std::vector<float> SoftmaxValues(const std::vector<float>& logits) {
  CHECK(!logits.empty());
  std::vector<float> out = logits;
  ScaleSoftmaxRows(out.data(), 1, static_cast<int64_t>(out.size()), 1.0f);
  return out;
}

std::vector<float> SigmoidValues(const std::vector<float>& logits) {
  std::vector<float> out(logits.size());
  SigmoidInto(logits.data(), out.data(), static_cast<int64_t>(out.size()));
  return out;
}

void NormalizeToDistribution(std::span<float> v) {
  float total = 0.0f;
  for (float x : v) total += x;
  if (total <= 0.0f) {
    const float u = 1.0f / static_cast<float>(v.size());
    for (float& x : v) x = u;
    return;
  }
  for (float& x : v) x /= total;
}

float KlDivergence(std::span<const float> p, std::span<const float> q) {
  CHECK_EQ(p.size(), q.size());
  constexpr float kEps = 1e-9f;
  float kl = 0.0f;
  for (size_t i = 0; i < p.size(); ++i) {
    const float pi = std::max(p[i], kEps);
    const float qi = std::max(q[i], kEps);
    kl += pi * std::log(pi / qi);
  }
  return kl;
}

}  // namespace explainti::tensor
