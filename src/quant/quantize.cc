#include "quant/quantize.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace socflow {
namespace quant {

int
quantMax(int bits)
{
    SOCFLOW_ASSERT(bits >= 2 && bits <= 30, "unsupported bit width");
    return (1 << (bits - 1)) - 1;
}

float
computeScale(const float *x, std::size_t n, int bits)
{
    float mx = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        mx = std::max(mx, std::abs(x[i]));
    if (mx == 0.0f)
        return 0.0f;
    return mx / static_cast<float>(quantMax(bits));
}

namespace {

/**
 * One value already divided by the scale, rounded (stochastically
 * when an Rng is given and enabled, else to nearest-even) and clamped
 * to [-qmax, qmax]. Draws exactly one rng->uniform() per call on the
 * stochastic path and none otherwise.
 */
inline float
gridValue(float v, const QuantConfig &cfg, Rng *rng, float qmax)
{
    float r;
    if (cfg.stochasticRounding && rng) {
        const float fl = std::floor(v);
        const float frac = v - fl;
        r = fl + (rng->uniform() < frac ? 1.0f : 0.0f);
    } else {
        r = std::nearbyint(v);
    }
    return std::clamp(r, -qmax, qmax);
}

} // namespace

void
quantize(const float *x, std::size_t n, float scale,
         const QuantConfig &cfg, Rng *rng, std::int32_t *q)
{
    const float qmax = static_cast<float>(quantMax(cfg.bits));
    if (scale == 0.0f) {
        std::fill(q, q + n, 0);
        return;
    }
    const float inv = 1.0f / scale;
    for (std::size_t i = 0; i < n; ++i)
        q[i] = static_cast<std::int32_t>(
            gridValue(x[i] * inv, cfg, rng, qmax));
}

void
dequantize(const std::int32_t *q, std::size_t n, float scale, float *x)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = static_cast<float>(q[i]) * scale;
}

void
fakeQuantize(Tensor &x, const QuantConfig &cfg, Rng *rng)
{
    const std::size_t n = x.numel();
    if (n == 0)
        return;
    float *p = x.data();
    const float scale = computeScale(p, n, cfg.bits);
    if (scale == 0.0f)
        return;
    // quantize() then dequantize() fused in place: the integer round
    // trip is kept so a -0 grid value still comes back as +0.
    const float qmax = static_cast<float>(quantMax(cfg.bits));
    const float inv = 1.0f / scale;
    for (std::size_t i = 0; i < n; ++i) {
        const auto q = static_cast<std::int32_t>(
            gridValue(p[i] * inv, cfg, rng, qmax));
        p[i] = static_cast<float>(q) * scale;
    }
}

void
int8Gemm(const std::int32_t *a, const std::int32_t *b, std::int32_t *c,
         std::size_t m, std::size_t n, std::size_t k)
{
    std::fill(c, c + m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t p = 0; p < k; ++p) {
            const std::int32_t av = a[i * k + p];
            if (av == 0)
                continue;
            const std::int32_t *brow = b + p * n;
            std::int32_t *crow = c + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
}

Tensor
quantizedGemmReference(const Tensor &a, const Tensor &b,
                       const QuantConfig &cfg)
{
    SOCFLOW_ASSERT(a.rank() == 2 && b.rank() == 2 &&
                       a.dim(1) == b.dim(0),
                   "quantizedGemmReference shape mismatch");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const float sa = computeScale(a.data(), a.numel(), cfg.bits);
    const float sb = computeScale(b.data(), b.numel(), cfg.bits);

    QuantConfig deterministic = cfg;
    deterministic.stochasticRounding = false;
    std::vector<std::int32_t> qa(a.numel()), qb(b.numel()),
        qc(m * n);
    quantize(a.data(), a.numel(), sa, deterministic, nullptr, qa.data());
    quantize(b.data(), b.numel(), sb, deterministic, nullptr, qb.data());
    int8Gemm(qa.data(), qb.data(), qc.data(), m, n, k);

    Tensor out({m, n});
    const float scale = sa * sb;
    for (std::size_t i = 0; i < m * n; ++i)
        out[i] = static_cast<float>(qc[i]) * scale;
    return out;
}

} // namespace quant
} // namespace socflow
