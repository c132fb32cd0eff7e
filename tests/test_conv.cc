/**
 * @file
 * Convolution/pooling kernels: naive-reference cross-checks,
 * numeric gradient verification over a geometry sweep, and bit-exact
 * golden tests of the im2col/GEMM accumulation order.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/conv.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

using namespace socflow;
using namespace socflow::tensor;

namespace {

/** Direct (quadruple-loop) convolution reference. */
void
naiveConv(const Tensor &x, const Tensor &w, const ConvGeom &g,
          Tensor &out)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      ww = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(ww, g.kernel, g.stride, g.pad);
    out.zero();
    for (std::size_t s = 0; s < n; ++s)
    for (std::size_t oc = 0; oc < g.outChannels; ++oc)
    for (std::size_t oy = 0; oy < ho; ++oy)
    for (std::size_t ox = 0; ox < wo; ++ox) {
        double acc = 0.0;
        for (std::size_t ic = 0; ic < c; ++ic)
        for (std::size_t ky = 0; ky < g.kernel; ++ky)
        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
                static_cast<std::ptrdiff_t>(g.pad);
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                ix < 0 || ix >= static_cast<std::ptrdiff_t>(ww))
                continue;
            acc += static_cast<double>(
                       x[((s * c + ic) * h + iy) * ww + ix]) *
                   w[((oc * c + ic) * g.kernel + ky) * g.kernel + kx];
        }
        out[((s * g.outChannels + oc) * ho + oy) * wo + ox] =
            static_cast<float>(acc);
    }
}

} // namespace

TEST(ConvOutDim, Formula)
{
    EXPECT_EQ(convOutDim(12, 3, 1, 1), 12u);
    EXPECT_EQ(convOutDim(12, 3, 2, 1), 6u);
    EXPECT_EQ(convOutDim(12, 2, 2, 0), 6u);
    EXPECT_EQ(convOutDim(3, 2, 2, 0), 1u);
    EXPECT_EQ(convOutDim(5, 5, 1, 0), 1u);
}

TEST(ConvOutDim, TooSmallPanics)
{
    EXPECT_DEATH(convOutDim(1, 3, 1, 0), "kernel");
}

struct ConvCase {
    std::size_t n, c, h, w, outC, k, stride, pad;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvSweep, ForwardMatchesNaive)
{
    const auto p = GetParam();
    Rng rng(p.h * 7 + p.k);
    ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    Tensor w = Tensor::randn({p.outC, p.c, p.k, p.k}, rng);
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t wo = convOutDim(p.w, p.k, p.stride, p.pad);
    Tensor out({p.n, p.outC, ho, wo}), ref({p.n, p.outC, ho, wo});
    conv2dForward(x, w, g, out);
    naiveConv(x, w, g, ref);
    EXPECT_LT(out.maxAbsDiff(ref), 1e-3);
}

TEST_P(ConvSweep, BackwardMatchesNumericGradient)
{
    const auto p = GetParam();
    Rng rng(p.h * 13 + p.k);
    ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng, 0.5f);
    Tensor w = Tensor::randn({p.outC, p.c, p.k, p.k}, rng, 0.5f);
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t wo = convOutDim(p.w, p.k, p.stride, p.pad);

    // Loss = sum(out); then dOut = ones.
    Tensor gradOut({p.n, p.outC, ho, wo}, 1.0f);
    Tensor gradX(x.shape());
    Tensor gradW(w.shape());
    conv2dBackward(x, w, g, gradOut, &gradX, gradW);

    auto lossOf = [&](const Tensor &xx, const Tensor &ww) {
        Tensor out({p.n, p.outC, ho, wo});
        conv2dForward(xx, ww, g, out);
        return out.sum();
    };
    const float eps = 1e-2f;
    // Spot-check a few weight and input coordinates.
    for (std::size_t i = 0; i < w.numel(); i += std::max<std::size_t>(
             1, w.numel() / 5)) {
        Tensor wp = w, wm = w;
        wp[i] += eps;
        wm[i] -= eps;
        const double numeric =
            (lossOf(x, wp) - lossOf(x, wm)) / (2.0 * eps);
        EXPECT_NEAR(gradW[i], numeric, 5e-2) << "w index " << i;
    }
    for (std::size_t i = 0; i < x.numel(); i += std::max<std::size_t>(
             1, x.numel() / 5)) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        const double numeric =
            (lossOf(xp, w) - lossOf(xm, w)) / (2.0 * eps);
        EXPECT_NEAR(gradX[i], numeric, 5e-2) << "x index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 7, 7, 3, 3, 2, 1},
                      ConvCase{2, 2, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 3, 9, 9, 2, 5, 1, 2},
                      ConvCase{1, 1, 4, 6, 2, 3, 2, 1}));

TEST(Im2Col, AdjointOfCol2Im)
{
    // <im2col(x), y> == <x, col2im(y)> -- the defining adjoint
    // relation that makes the conv backward correct.
    Rng rng(3);
    ConvGeom g{2, 1, 3, 2, 1};
    const std::size_t h = 6, w = 6;
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t rows = g.inChannels * g.kernel * g.kernel;

    Tensor x = Tensor::randn({2 * h * w}, rng);
    Tensor y = Tensor::randn({rows * ho * wo}, rng);
    std::vector<float> cols(rows * ho * wo, 0.0f);
    im2col(x.data(), 2, h, w, g, cols.data());
    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i)
        lhs += static_cast<double>(cols[i]) * y[i];

    std::vector<float> back(2 * h * w, 0.0f);
    col2im(y.data(), 2, h, w, g, back.data());
    double rhs = 0.0;
    for (std::size_t i = 0; i < back.size(); ++i)
        rhs += static_cast<double>(back[i]) * x[i];

    EXPECT_NEAR(lhs, rhs, 1e-3);
}

// ------------------------------------------------ bit-exact conv order

namespace {

/** Element (row, col) of sample s's im2col matrix (0 in the padding). */
float
colValue(const Tensor &x, std::size_t s, const ConvGeom &g,
         std::size_t row, std::size_t col)
{
    const std::size_t c = x.dim(1), h = x.dim(2), w = x.dim(3);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t ch = row / (g.kernel * g.kernel);
    const std::size_t ky = row / g.kernel % g.kernel;
    const std::size_t kx = row % g.kernel;
    const std::size_t iy = col / wo * g.stride + ky;
    const std::size_t ix = col % wo * g.stride + kx;
    if (iy < g.pad || iy >= g.pad + h || ix < g.pad || ix >= g.pad + w)
        return 0.0f;
    return x[((s * c + ch) * h + iy - g.pad) * w + ix - g.pad];
}

/** Random tensor with about a third of its entries +0.0f or -0.0f. */
Tensor
sparseSigned(Shape shape, Rng &rng)
{
    Tensor t = Tensor::randn(std::move(shape), rng);
    for (std::size_t i = 0; i < t.numel(); ++i) {
        const double u = rng.uniform();
        if (u < 0.15)
            t[i] = 0.0f;
        else if (u < 0.3)
            t[i] = -0.0f;
    }
    return t;
}

bool
sameBits(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape() &&
           std::memcmp(x.data(), y.data(), sizeof(float) * x.numel()) ==
               0;
}

} // namespace

class ConvGolden : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvGolden, ForwardBitExact)
{
    // out[s][oc][col] adds W[oc][row] * cols[row][col] for row
    // ascending, skipping zero weights.
    const auto p = GetParam();
    Rng rng(p.h * 5 + p.k);
    ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    Tensor w = sparseSigned({p.outC, p.c, p.k, p.k}, rng);
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t wo = convOutDim(p.w, p.k, p.stride, p.pad);
    const std::size_t krows = p.c * p.k * p.k, cols = ho * wo;
    Tensor got({p.n, p.outC, ho, wo}, 7.0f), want(got.shape());
    conv2dForward(x, w, g, got);
    for (std::size_t s = 0; s < p.n; ++s)
        for (std::size_t oc = 0; oc < p.outC; ++oc)
            for (std::size_t col = 0; col < cols; ++col) {
                float acc = 0.0f;
                for (std::size_t row = 0; row < krows; ++row) {
                    const float wv = w[oc * krows + row];
                    if (wv != 0.0f)
                        acc += wv * colValue(x, s, g, row, col);
                }
                want[(s * p.outC + oc) * cols + col] = acc;
            }
    EXPECT_TRUE(sameBits(got, want));
}

TEST_P(ConvGolden, BackwardBitExactAndAccumulatesIntoGradW)
{
    // dW[oc][row] starts from the caller's value and adds
    // dOut[s][oc][col] * cols[row][col] for (s, col) ascending,
    // skipping zero dOut; dX folds W^T dOut back in (row, col) order.
    const auto p = GetParam();
    Rng rng(p.h * 11 + p.k);
    ConvGeom g{p.c, p.outC, p.k, p.stride, p.pad};
    Tensor x = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
    Tensor w = sparseSigned({p.outC, p.c, p.k, p.k}, rng);
    const std::size_t ho = convOutDim(p.h, p.k, p.stride, p.pad);
    const std::size_t wo = convOutDim(p.w, p.k, p.stride, p.pad);
    const std::size_t krows = p.c * p.k * p.k, cols = ho * wo;
    Tensor gradOut = sparseSigned({p.n, p.outC, ho, wo}, rng);
    Tensor gw0 = Tensor::randn(w.shape(), rng);
    gw0[0] = -0.0f;

    Tensor gotW = gw0, gotX(x.shape(), 3.0f);
    conv2dBackward(x, w, g, gradOut, &gotX, gotW);

    Tensor wantW = gw0;
    for (std::size_t oc = 0; oc < p.outC; ++oc)
        for (std::size_t row = 0; row < krows; ++row) {
            float acc = wantW[oc * krows + row];
            for (std::size_t s = 0; s < p.n; ++s)
                for (std::size_t col = 0; col < cols; ++col) {
                    const float gv =
                        gradOut[(s * p.outC + oc) * cols + col];
                    if (gv != 0.0f)
                        acc += gv * colValue(x, s, g, row, col);
                }
            wantW[oc * krows + row] = acc;
        }
    EXPECT_TRUE(sameBits(gotW, wantW));

    Tensor wantX(x.shape());
    for (std::size_t s = 0; s < p.n; ++s)
        for (std::size_t row = 0; row < krows; ++row) {
            const std::size_t ch = row / (p.k * p.k);
            const std::size_t ky = row / p.k % p.k, kx = row % p.k;
            for (std::size_t col = 0; col < cols; ++col) {
                float acc = 0.0f;
                for (std::size_t oc = 0; oc < p.outC; ++oc) {
                    const float wv = w[oc * krows + row];
                    if (wv != 0.0f)
                        acc += wv *
                               gradOut[(s * p.outC + oc) * cols + col];
                }
                const std::size_t iy = col / wo * p.stride + ky;
                const std::size_t ix = col % wo * p.stride + kx;
                if (iy < p.pad || iy >= p.pad + p.h || ix < p.pad ||
                    ix >= p.pad + p.w)
                    continue;
                wantX[((s * p.c + ch) * p.h + iy - p.pad) * p.w + ix -
                      p.pad] += acc;
            }
        }
    EXPECT_TRUE(sameBits(gotX, wantX));
}

// The ConvSweep geometries plus both lenet5 convolutions.
INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGolden,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 1},
                      ConvCase{2, 3, 8, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 7, 7, 3, 3, 2, 1},
                      ConvCase{2, 2, 6, 6, 2, 1, 1, 0},
                      ConvCase{1, 3, 9, 9, 2, 5, 1, 2},
                      ConvCase{1, 1, 4, 6, 2, 3, 2, 1},
                      ConvCase{3, 1, 12, 12, 6, 5, 1, 2},
                      ConvCase{3, 6, 6, 6, 16, 5, 1, 2}));

TEST(ConvBackward, RejectsBadShapes)
{
    ConvGeom g{2, 3, 3, 1, 1};
    Tensor x({1, 2, 4, 4}), w({3, 2, 3, 3}), gw(w.shape());
    Tensor go({1, 3, 4, 4});
    Tensor flat({2, 16});
    EXPECT_DEATH(conv2dBackward(flat, w, g, go, nullptr, gw), "NCHW");
    Tensor x3({1, 3, 4, 4});
    EXPECT_DEATH(conv2dBackward(x3, w, g, go, nullptr, gw), "channel");
    Tensor badGx({1, 2, 4, 5});
    EXPECT_DEATH(conv2dBackward(x, w, g, go, &badGx, gw), "grad_x");
    Tensor badGw({3, 2, 3, 2});
    EXPECT_DEATH(conv2dBackward(x, w, g, go, nullptr, badGw), "grad_w");
    Tensor badGo({1, 3, 4, 3});
    EXPECT_DEATH(conv2dBackward(x, w, g, badGo, nullptr, gw), "grad_out");
}

TEST(DepthwiseConv, MatchesPerChannelFullConv)
{
    // Depthwise conv on C channels equals C independent 1-channel
    // convolutions.
    Rng rng(9);
    const std::size_t c = 3, h = 6, w = 6, k = 3;
    ConvGeom dg{c, c, k, 1, 1};
    Tensor x = Tensor::randn({1, c, h, w}, rng);
    Tensor wt = Tensor::randn({c, 1, k, k}, rng);
    Tensor out({1, c, h, w});
    depthwiseConv2dForward(x, wt, dg, out);

    for (std::size_t ch = 0; ch < c; ++ch) {
        ConvGeom g1{1, 1, k, 1, 1};
        Tensor xc({1, 1, h, w}), wc({1, 1, k, k}), oc({1, 1, h, w});
        std::copy(x.data() + ch * h * w, x.data() + (ch + 1) * h * w,
                  xc.data());
        std::copy(wt.data() + ch * k * k, wt.data() + (ch + 1) * k * k,
                  wc.data());
        conv2dForward(xc, wc, g1, oc);
        for (std::size_t i = 0; i < h * w; ++i)
            EXPECT_NEAR(out[ch * h * w + i], oc[i], 1e-4);
    }
}

TEST(DepthwiseConv, BackwardNumericGradient)
{
    Rng rng(11);
    const std::size_t c = 2, h = 5, w = 5, k = 3;
    ConvGeom g{c, c, k, 2, 1};
    const std::size_t ho = convOutDim(h, k, 2, 1);
    const std::size_t wo = convOutDim(w, k, 2, 1);
    Tensor x = Tensor::randn({1, c, h, w}, rng, 0.5f);
    Tensor wt = Tensor::randn({c, 1, k, k}, rng, 0.5f);
    Tensor gradOut({1, c, ho, wo}, 1.0f);
    Tensor gradX(x.shape()), gradW(wt.shape());
    depthwiseConv2dBackward(x, wt, g, gradOut, &gradX, gradW);

    auto lossOf = [&](const Tensor &xx, const Tensor &ww) {
        Tensor out({1, c, ho, wo});
        depthwiseConv2dForward(xx, ww, g, out);
        return out.sum();
    };
    const float eps = 1e-2f;
    for (std::size_t i = 0; i < wt.numel(); i += 3) {
        Tensor wp = wt, wm = wt;
        wp[i] += eps;
        wm[i] -= eps;
        EXPECT_NEAR(gradW[i],
                    (lossOf(x, wp) - lossOf(x, wm)) / (2.0 * eps),
                    5e-2);
    }
    for (std::size_t i = 0; i < x.numel(); i += 7) {
        Tensor xp = x, xm = x;
        xp[i] += eps;
        xm[i] -= eps;
        EXPECT_NEAR(gradX[i],
                    (lossOf(xp, wt) - lossOf(xm, wt)) / (2.0 * eps),
                    5e-2);
    }
}

TEST(MaxPool, ForwardPicksMaxAndBackwardRoutes)
{
    Tensor x = Tensor::fromValues(
        {1, 1, 2, 2}, {1, 5, 3, 2});
    Tensor out({1, 1, 1, 1});
    std::vector<std::size_t> argmax;
    maxPool2dForward(x, 2, 2, out, argmax);
    EXPECT_FLOAT_EQ(out[0], 5.0f);
    EXPECT_EQ(argmax[0], 1u);

    Tensor gradOut({1, 1, 1, 1}, 2.5f);
    Tensor gradX({1, 1, 2, 2});
    maxPool2dBackward(gradOut, argmax, gradX);
    EXPECT_FLOAT_EQ(gradX[1], 2.5f);
    EXPECT_FLOAT_EQ(gradX[0], 0.0f);
}

TEST(MaxPool, TiesKeepFirstIndex)
{
    Tensor x = Tensor::fromValues({1, 1, 2, 4}, {3, 3, 0, -0.0f,
                                                 3, 1, -0.0f, 0});
    Tensor out({1, 1, 1, 2});
    std::vector<std::size_t> argmax;
    maxPool2dForward(x, 2, 2, out, argmax);
    EXPECT_EQ(argmax[0], 0u);
    EXPECT_EQ(argmax[1], 2u);
}

TEST(MaxPool, OddInputTruncates)
{
    Tensor x({1, 1, 5, 5}, 1.0f);
    Tensor out({1, 1, 2, 2});
    std::vector<std::size_t> argmax;
    maxPool2dForward(x, 2, 2, out, argmax);
    EXPECT_EQ(out.numel(), 4u);
}

TEST(GlobalAvgPool, ForwardAndBackward)
{
    Tensor x = Tensor::fromValues({1, 2, 1, 2}, {1, 3, 10, 20});
    Tensor out({1, 2});
    globalAvgPoolForward(x, out);
    EXPECT_FLOAT_EQ(out[0], 2.0f);
    EXPECT_FLOAT_EQ(out[1], 15.0f);

    Tensor gradOut = Tensor::fromValues({1, 2}, {4.0f, 8.0f});
    Tensor gradX({1, 2, 1, 2});
    globalAvgPoolBackward(gradOut, 1, 2, gradX);
    EXPECT_FLOAT_EQ(gradX[0], 2.0f);
    EXPECT_FLOAT_EQ(gradX[2], 4.0f);
}
