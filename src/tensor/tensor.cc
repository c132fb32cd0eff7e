#include "tensor/tensor.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace socflow {
namespace tensor {

std::size_t
shapeNumel(const Shape &shape)
{
    std::size_t n = 1;
    for (std::size_t d : shape)
        n *= d;
    return shape.empty() ? 0 : n;
}

std::string
shapeStr(const Shape &shape)
{
    std::ostringstream oss;
    oss << '[';
    for (std::size_t i = 0; i < shape.size(); ++i) {
        oss << shape[i];
        if (i + 1 < shape.size())
            oss << ", ";
    }
    oss << ']';
    return oss.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), 0.0f)
{
}

Tensor::Tensor(Shape shape, float value)
    : shape_(std::move(shape)), data_(shapeNumel(shape_), value)
{
}

Tensor
Tensor::zeros(Shape shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::randn(Shape shape, Rng &rng, float stddev)
{
    Tensor t(std::move(shape));
    for (auto &x : t.data_)
        x = static_cast<float>(rng.gaussian(0.0, stddev));
    return t;
}

Tensor
Tensor::fromValues(Shape shape, std::vector<float> values)
{
    SOCFLOW_ASSERT(shapeNumel(shape) == values.size(),
                   "value count does not match shape ", shapeStr(shape));
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = std::move(values);
    return t;
}

float &
Tensor::at(std::size_t r, std::size_t c)
{
    SOCFLOW_ASSERT(rank() == 2, "at(r,c) requires a rank-2 tensor");
    return data_[r * shape_[1] + c];
}

float
Tensor::at(std::size_t r, std::size_t c) const
{
    SOCFLOW_ASSERT(rank() == 2, "at(r,c) requires a rank-2 tensor");
    return data_[r * shape_[1] + c];
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Tensor::reshape(Shape shape)
{
    SOCFLOW_ASSERT(shapeNumel(shape) == data_.size(),
                   "reshape must preserve element count");
    shape_ = std::move(shape);
}

double
Tensor::sum() const
{
    double s = 0.0;
    for (float x : data_)
        s += x;
    return s;
}

double
Tensor::norm() const
{
    double s = 0.0;
    for (float x : data_)
        s += static_cast<double>(x) * x;
    return std::sqrt(s);
}

bool
Tensor::equals(const Tensor &other) const
{
    return shape_ == other.shape_ && data_ == other.data_;
}

double
Tensor::maxAbsDiff(const Tensor &other) const
{
    SOCFLOW_ASSERT(numel() == other.numel(),
                   "maxAbsDiff requires equal element counts");
    double m = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(static_cast<double>(data_[i]) -
                                 other.data_[i]));
    return m;
}

} // namespace tensor
} // namespace socflow
