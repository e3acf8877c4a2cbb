#ifndef EXPLAINTI_NN_MODULE_H_
#define EXPLAINTI_NN_MODULE_H_

#include <vector>

#include "tensor/tensor.h"

namespace explainti::nn {

/// Base class for neural components: a parameter registry.
///
/// Concrete modules register their trainable tensors with AddParameter()
/// and compose children with AddChild(); Parameters() flattens the tree so
/// optimizers can be constructed over a whole model. Modules are neither
/// copyable nor movable (parameters are shared by reference with
/// optimizers).
class Module {
 public:
  Module() = default;
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children, in
  /// registration order.
  std::vector<tensor::Tensor> Parameters() const;

 protected:
  /// Registers `parameter` (marks requires_grad) and returns it.
  tensor::Tensor AddParameter(tensor::Tensor parameter);

  /// Registers a child module. The child must outlive this module; the
  /// usual pattern is a by-value member registered in the constructor.
  void AddChild(Module* child);

 private:
  std::vector<tensor::Tensor> parameters_;
  std::vector<Module*> children_;
};

}  // namespace explainti::nn

#endif  // EXPLAINTI_NN_MODULE_H_
