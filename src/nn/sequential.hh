/**
 * @file
 * Layer containers: Sequential and Residual.
 */

#ifndef SOCFLOW_NN_SEQUENTIAL_HH
#define SOCFLOW_NN_SEQUENTIAL_HH

#include <memory>
#include <vector>

#include "nn/layer.hh"

namespace socflow {
namespace nn {

/**
 * Runs child layers in order; itself a Layer so containers nest.
 */
class Sequential : public Layer
{
  public:
    Sequential() = default;

    /** Append a layer; returns *this for chaining. */
    Sequential &add(std::unique_ptr<Layer> layer);

    Tensor forward(Tensor x, bool train) override;
    Tensor backward(Tensor grad_out) override;
    std::vector<Param *> params() override;
    std::string name() const override { return "sequential"; }
    std::unique_ptr<Layer> clone() const override;

    /** Number of direct children. */
    std::size_t size() const { return children.size(); }

    /** Access a direct child. */
    Layer &child(std::size_t i);

  private:
    std::vector<std::unique_ptr<Layer>> children;
};

/**
 * Residual block: out = relu(main(x) + shortcut(x)).
 * The shortcut is identity when null (shapes must then match).
 */
class Residual : public Layer
{
  public:
    Residual(std::unique_ptr<Layer> main_path,
             std::unique_ptr<Layer> shortcut = nullptr);

    Tensor forward(Tensor x, bool train) override;
    Tensor backward(Tensor grad_out) override;
    std::vector<Param *> params() override;
    std::string name() const override { return "residual"; }
    std::unique_ptr<Layer> clone() const override;

  private:
    std::unique_ptr<Layer> main;
    std::unique_ptr<Layer> shortcut;  //!< may be null (identity)
    Tensor cachedSum;                 //!< pre-ReLU sum, for backward
};

} // namespace nn
} // namespace socflow

#endif // SOCFLOW_NN_SEQUENTIAL_HH
