#include "nn/sequential.hh"

#include "tensor/ops.hh"
#include "util/logging.hh"

namespace socflow {
namespace nn {

Sequential &
Sequential::add(std::unique_ptr<Layer> layer)
{
    SOCFLOW_ASSERT(layer != nullptr, "null layer");
    children.push_back(std::move(layer));
    return *this;
}

Tensor
Sequential::forward(Tensor x, bool train)
{
    for (auto &child : children)
        x = child->forward(std::move(x), train);
    return x;
}

Tensor
Sequential::backward(Tensor grad_out)
{
    for (auto it = children.rbegin(); it != children.rend(); ++it)
        grad_out = (*it)->backward(std::move(grad_out));
    return grad_out;
}

std::vector<Param *>
Sequential::params()
{
    std::vector<Param *> all;
    for (auto &child : children) {
        auto sub = child->params();
        all.insert(all.end(), sub.begin(), sub.end());
    }
    return all;
}

std::unique_ptr<Layer>
Sequential::clone() const
{
    auto copy = std::make_unique<Sequential>();
    for (const auto &child : children)
        copy->add(child->clone());
    return copy;
}

Layer &
Sequential::child(std::size_t i)
{
    SOCFLOW_ASSERT(i < children.size(), "child index out of range");
    return *children[i];
}

Residual::Residual(std::unique_ptr<Layer> main_path,
                   std::unique_ptr<Layer> shortcut_path)
    : main(std::move(main_path)), shortcut(std::move(shortcut_path))
{
    SOCFLOW_ASSERT(main != nullptr, "residual needs a main path");
}

Tensor
Residual::forward(Tensor x, bool train)
{
    Tensor mainOut = main->forward(x, train);
    Tensor skip = shortcut ? shortcut->forward(std::move(x), train)
                           : std::move(x);
    SOCFLOW_ASSERT(mainOut.shape() == skip.shape(),
                   "residual branch shapes differ");
    Tensor sum(mainOut.shape());
    tensor::add(mainOut, skip, sum);
    Tensor out(sum.shape());
    tensor::reluForward(sum, out);
    if (train)
        cachedSum = std::move(sum);
    return out;
}

Tensor
Residual::backward(Tensor grad_out)
{
    Tensor gradSum(grad_out.shape());
    tensor::reluBackward(cachedSum, grad_out, gradSum);
    Tensor gradMain = main->backward(gradSum);
    if (shortcut) {
        Tensor gradSkip = shortcut->backward(std::move(gradSum));
        tensor::axpy(1.0f, gradSkip, gradMain);
    } else {
        tensor::axpy(1.0f, gradSum, gradMain);
    }
    return gradMain;
}

std::vector<Param *>
Residual::params()
{
    std::vector<Param *> all = main->params();
    if (shortcut) {
        auto sub = shortcut->params();
        all.insert(all.end(), sub.begin(), sub.end());
    }
    return all;
}

std::unique_ptr<Layer>
Residual::clone() const
{
    return std::make_unique<Residual>(
        main->clone(), shortcut ? shortcut->clone() : nullptr);
}

} // namespace nn
} // namespace socflow
