#include "nn/module.h"

#include "util/logging.h"

namespace explainti::nn {

std::vector<tensor::Tensor> Module::Parameters() const {
  std::vector<tensor::Tensor> all(parameters_);
  for (const Module* child : children_) {
    const auto child_params = child->Parameters();
    all.insert(all.end(), child_params.begin(), child_params.end());
  }
  return all;
}

tensor::Tensor Module::AddParameter(tensor::Tensor parameter) {
  CHECK(parameter.defined());
  parameter.set_requires_grad(true);
  parameters_.push_back(parameter);
  return parameter;
}

void Module::AddChild(Module* child) {
  CHECK(child != nullptr);
  children_.push_back(child);
}

}  // namespace explainti::nn
