#include "nn/layers.hh"

#include <cmath>

#include "tensor/ops.hh"
#include "util/logging.hh"

namespace socflow {
namespace nn {

using tensor::ConvGeom;
using tensor::Shape;

// ---------------------------------------------------------------- Dense

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : inF(in_features), outF(out_features),
      weight("dense.w",
             Tensor::randn({out_features, in_features}, rng,
                           std::sqrt(2.0f /
                                     static_cast<float>(in_features)))),
      bias("dense.b", Tensor::zeros({out_features}))
{
}

Tensor
Dense::forward(Tensor x, bool train)
{
    SOCFLOW_ASSERT(x.rank() == 2 && x.dim(1) == inF,
                   "dense input shape mismatch");
    Tensor out({x.dim(0), outF});
    tensor::gemm(x, false, weight.value, true, out);
    tensor::biasAddRows(out, bias.value);
    if (train)
        cachedInput = std::move(x);
    return out;
}

Tensor
Dense::backward(Tensor grad_out)
{
    // dW += dOut^T * X ; db += colsum(dOut) ; dX = dOut * W
    tensor::gemm(grad_out, true, cachedInput, false, weight.grad, 1.0f);
    tensor::biasGradRows(grad_out, bias.grad);
    Tensor gradIn({grad_out.dim(0), inF});
    tensor::gemm(grad_out, false, weight.value, false, gradIn);
    return gradIn;
}

std::vector<Param *>
Dense::params()
{
    return {&weight, &bias};
}

std::string
Dense::name() const
{
    return "dense(" + std::to_string(inF) + "->" + std::to_string(outF) +
           ")";
}

std::unique_ptr<Layer>
Dense::clone() const
{
    auto copy = std::make_unique<Dense>(*this);
    copy->cachedInput = Tensor();
    return copy;
}

// --------------------------------------------------------------- Conv2D

Conv2D::Conv2D(ConvGeom geom, Rng &rng, float init_scale)
    : g(geom),
      weight("conv.w",
             Tensor::randn({g.outChannels, g.inChannels, g.kernel,
                            g.kernel},
                           rng,
                           init_scale *
                               std::sqrt(2.0f /
                                         static_cast<float>(
                                             g.inChannels * g.kernel *
                                             g.kernel)))),
      bias("conv.b", Tensor::zeros({g.outChannels}))
{
}

Tensor
Conv2D::forward(Tensor x, bool train)
{
    const std::size_t ho =
        tensor::convOutDim(x.dim(2), g.kernel, g.stride, g.pad);
    const std::size_t wo =
        tensor::convOutDim(x.dim(3), g.kernel, g.stride, g.pad);
    Tensor out({x.dim(0), g.outChannels, ho, wo});
    tensor::conv2dForward(x, weight.value, g, out);
    tensor::biasAddChannels(out, bias.value);
    if (train)
        cachedInput = std::move(x);
    return out;
}

Tensor
Conv2D::backward(Tensor grad_out)
{
    tensor::biasGradChannels(grad_out, bias.grad);
    Tensor gradIn(cachedInput.shape());
    tensor::conv2dBackward(cachedInput, weight.value, g, grad_out,
                           &gradIn, weight.grad);
    return gradIn;
}

std::vector<Param *>
Conv2D::params()
{
    return {&weight, &bias};
}

std::string
Conv2D::name() const
{
    return "conv(" + std::to_string(g.inChannels) + "->" +
           std::to_string(g.outChannels) + ",k" +
           std::to_string(g.kernel) + ",s" + std::to_string(g.stride) +
           ")";
}

std::unique_ptr<Layer>
Conv2D::clone() const
{
    auto copy = std::make_unique<Conv2D>(*this);
    copy->cachedInput = Tensor();
    return copy;
}

// ------------------------------------------------------ DepthwiseConv2D

DepthwiseConv2D::DepthwiseConv2D(std::size_t channels, std::size_t kernel,
                                 std::size_t stride, std::size_t pad,
                                 Rng &rng)
    : g{channels, channels, kernel, stride, pad},
      weight("dwconv.w",
             Tensor::randn({channels, 1, kernel, kernel}, rng,
                           std::sqrt(2.0f / static_cast<float>(
                                                kernel * kernel)))),
      bias("dwconv.b", Tensor::zeros({channels}))
{
}

Tensor
DepthwiseConv2D::forward(Tensor x, bool train)
{
    const std::size_t ho =
        tensor::convOutDim(x.dim(2), g.kernel, g.stride, g.pad);
    const std::size_t wo =
        tensor::convOutDim(x.dim(3), g.kernel, g.stride, g.pad);
    Tensor out({x.dim(0), g.outChannels, ho, wo});
    tensor::depthwiseConv2dForward(x, weight.value, g, out);
    tensor::biasAddChannels(out, bias.value);
    if (train)
        cachedInput = std::move(x);
    return out;
}

Tensor
DepthwiseConv2D::backward(Tensor grad_out)
{
    tensor::biasGradChannels(grad_out, bias.grad);
    Tensor gradIn(cachedInput.shape());
    tensor::depthwiseConv2dBackward(cachedInput, weight.value, g,
                                    grad_out, &gradIn, weight.grad);
    return gradIn;
}

std::vector<Param *>
DepthwiseConv2D::params()
{
    return {&weight, &bias};
}

std::string
DepthwiseConv2D::name() const
{
    return "dwconv(c" + std::to_string(g.inChannels) + ",k" +
           std::to_string(g.kernel) + ",s" + std::to_string(g.stride) +
           ")";
}

std::unique_ptr<Layer>
DepthwiseConv2D::clone() const
{
    auto copy = std::make_unique<DepthwiseConv2D>(*this);
    copy->cachedInput = Tensor();
    return copy;
}

// ----------------------------------------------------------------- ReLU

Tensor
ReLU::forward(Tensor x, bool train)
{
    if (!train) {
        tensor::reluForward(x, x);
        return x;
    }
    Tensor out(x.shape());
    tensor::reluForward(x, out);
    cachedInput = std::move(x);
    return out;
}

Tensor
ReLU::backward(Tensor grad_out)
{
    Tensor gradIn(grad_out.shape());
    tensor::reluBackward(cachedInput, grad_out, gradIn);
    return gradIn;
}

std::unique_ptr<Layer>
ReLU::clone() const
{
    return std::make_unique<ReLU>();
}

// ------------------------------------------------------------ MaxPool2D

MaxPool2D::MaxPool2D(std::size_t kernel, std::size_t stride)
    : kernel(kernel), stride(stride)
{
}

Tensor
MaxPool2D::forward(Tensor x, bool train)
{
    const std::size_t ho = tensor::convOutDim(x.dim(2), kernel, stride, 0);
    const std::size_t wo = tensor::convOutDim(x.dim(3), kernel, stride, 0);
    Tensor out({x.dim(0), x.dim(1), ho, wo});
    tensor::maxPool2dForward(x, kernel, stride, out, argmax);
    if (train)
        cachedInShape = x.shape();
    return out;
}

Tensor
MaxPool2D::backward(Tensor grad_out)
{
    Tensor gradIn(cachedInShape);
    tensor::maxPool2dBackward(grad_out, argmax, gradIn);
    return gradIn;
}

std::unique_ptr<Layer>
MaxPool2D::clone() const
{
    return std::make_unique<MaxPool2D>(kernel, stride);
}

// -------------------------------------------------------- GlobalAvgPool

Tensor
GlobalAvgPool::forward(Tensor x, bool train)
{
    Tensor out({x.dim(0), x.dim(1)});
    tensor::globalAvgPoolForward(x, out);
    if (train)
        cachedInShape = x.shape();
    return out;
}

Tensor
GlobalAvgPool::backward(Tensor grad_out)
{
    Tensor gradIn(cachedInShape);
    tensor::globalAvgPoolBackward(grad_out, cachedInShape[2],
                                  cachedInShape[3], gradIn);
    return gradIn;
}

std::unique_ptr<Layer>
GlobalAvgPool::clone() const
{
    return std::make_unique<GlobalAvgPool>();
}

// -------------------------------------------------------------- Flatten

Tensor
Flatten::forward(Tensor x, bool train)
{
    if (train)
        cachedInShape = x.shape();
    const std::size_t n = x.dim(0);
    x.reshape({n, x.numel() / n});
    return x;
}

Tensor
Flatten::backward(Tensor grad_out)
{
    grad_out.reshape(cachedInShape);
    return grad_out;
}

std::unique_ptr<Layer>
Flatten::clone() const
{
    return std::make_unique<Flatten>();
}

} // namespace nn
} // namespace socflow
