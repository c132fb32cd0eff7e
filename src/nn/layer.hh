/**
 * @file
 * Layer abstraction for the training substrate.
 *
 * Layers cache what they need during forward() and release gradients
 * during backward(). Parameters are exposed as (value, grad) pairs so
 * optimizers and collectives can treat a model as one flat vector.
 */

#ifndef SOCFLOW_NN_LAYER_HH
#define SOCFLOW_NN_LAYER_HH

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hh"

namespace socflow {
namespace nn {

using tensor::Tensor;

/** One trainable parameter tensor with its gradient accumulator. */
struct Param {
    std::string name;
    Tensor value;
    Tensor grad;

    Param(std::string name, Tensor v)
        : name(std::move(name)), value(std::move(v)),
          grad(value.shape())
    {
    }
};

/**
 * Base class for all network layers.
 */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Run the layer on a batch.
     * @param x input activation, taken by value so a caller that
     *          moves it in lets the layer keep it for backward (or
     *          reuse its storage) without a copy.
     * @param train true during training (enables caching).
     */
    virtual Tensor forward(Tensor x, bool train) = 0;

    /**
     * Backpropagate through the layer, accumulating parameter
     * gradients and returning the input gradient; grad_out is taken
     * by value for the same reason.
     */
    virtual Tensor backward(Tensor grad_out) = 0;

    /** Mutable views of the layer's parameters (possibly empty). */
    virtual std::vector<Param *> params() { return {}; }

    /** Human-readable layer name for diagnostics. */
    virtual std::string name() const = 0;

    /** Deep copy with identical parameter values. */
    virtual std::unique_ptr<Layer> clone() const = 0;
};

} // namespace nn
} // namespace socflow

#endif // SOCFLOW_NN_LAYER_HH
