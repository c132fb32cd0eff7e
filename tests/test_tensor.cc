/**
 * @file
 * Tests for the tensor container and dense kernels, including GEMM
 * cross-checked against a naive reference over a parameter sweep,
 * bit-exact golden tests of the GEMM accumulation order, and a
 * numeric gradient check of the softmax cross-entropy head.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

using namespace socflow;
using namespace socflow::tensor;

// --------------------------------------------------------------- Tensor

TEST(Tensor, ZerosShapeAndValue)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.numel(), 6u);
    EXPECT_EQ(t.rank(), 2u);
    EXPECT_EQ(t.dim(0), 2u);
    for (std::size_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FromValuesAndAt)
{
    Tensor t = Tensor::fromValues({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(t.at(0, 1), 2.0f);
    EXPECT_EQ(t.at(1, 0), 3.0f);
    t.at(1, 1) = 9.0f;
    EXPECT_EQ(t[3], 9.0f);
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(3);
    Tensor t = Tensor::randn({100, 100}, rng, 2.0f);
    double mean = t.sum() / t.numel();
    EXPECT_NEAR(mean, 0.0, 0.05);
    EXPECT_NEAR(t.norm() / std::sqrt(t.numel()), 2.0, 0.05);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t = Tensor::fromValues({2, 3}, {1, 2, 3, 4, 5, 6});
    t.reshape({3, 2});
    EXPECT_EQ(t.at(2, 1), 6.0f);
}

TEST(Tensor, ReshapeWrongCountPanics)
{
    Tensor t({2, 3});
    EXPECT_DEATH(t.reshape({4, 2}), "preserve");
}

TEST(Tensor, EqualsAndMaxAbsDiff)
{
    Tensor a = Tensor::fromValues({3}, {1, 2, 3});
    Tensor b = Tensor::fromValues({3}, {1, 2.5, 3});
    EXPECT_FALSE(a.equals(b));
    EXPECT_NEAR(a.maxAbsDiff(b), 0.5, 1e-7);
    EXPECT_TRUE(a.equals(a));
}

TEST(Tensor, ShapeHelpers)
{
    EXPECT_EQ(shapeNumel({2, 3, 4}), 24u);
    EXPECT_EQ(shapeNumel({}), 0u);
    EXPECT_EQ(shapeStr({1, 2}), "[1, 2]");
}

// ----------------------------------------------------------------- gemm

namespace {

void
naiveGemm(const Tensor &a, bool ta, const Tensor &b, bool tb, Tensor &c)
{
    const std::size_t m = c.dim(0), n = c.dim(1);
    const std::size_t k = ta ? a.dim(0) : a.dim(1);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t p = 0; p < k; ++p) {
                const float av = ta ? a.at(p, i) : a.at(i, p);
                const float bv = tb ? b.at(j, p) : b.at(p, j);
                acc += static_cast<double>(av) * bv;
            }
            c.at(i, j) = static_cast<float>(acc);
        }
    }
}

} // namespace

struct GemmCase {
    std::size_t m, k, n;
    bool ta, tb;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase>
{
};

TEST_P(GemmSweep, MatchesNaive)
{
    const auto p = GetParam();
    Rng rng(p.m * 131 + p.k * 17 + p.n);
    Tensor a = Tensor::randn(p.ta ? Shape{p.k, p.m} : Shape{p.m, p.k},
                             rng);
    Tensor b = Tensor::randn(p.tb ? Shape{p.n, p.k} : Shape{p.k, p.n},
                             rng);
    Tensor c({p.m, p.n}), ref({p.m, p.n});
    gemm(a, p.ta, b, p.tb, c);
    naiveGemm(a, p.ta, b, p.tb, ref);
    EXPECT_LT(c.maxAbsDiff(ref), 1e-3)
        << "m=" << p.m << " k=" << p.k << " n=" << p.n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{64, 64, 64, false, false},
                      GemmCase{65, 70, 129, false, false},
                      GemmCase{128, 1, 128, false, false},
                      GemmCase{1, 128, 1, true, true}));

TEST(Gemm, BetaAccumulates)
{
    Tensor a = Tensor::fromValues({1, 1}, {2});
    Tensor b = Tensor::fromValues({1, 1}, {3});
    Tensor c = Tensor::fromValues({1, 1}, {10});
    gemm(a, false, b, false, c, 1.0f);
    EXPECT_FLOAT_EQ(c[0], 16.0f);
    gemm(a, false, b, false, c, 0.5f);
    EXPECT_FLOAT_EQ(c[0], 14.0f);
}

TEST(Gemm, MismatchPanics)
{
    Tensor a({2, 3}), b({4, 5}), c({2, 5});
    EXPECT_DEATH(gemm(a, false, b, false, c), "inner");
}

// ------------------------------------------------- gemm, bit-exact order

namespace {

/**
 * The accumulation order gemm promises, in plain float arithmetic:
 * C is zeroed (beta 0) or scaled (beta != 1), then each element adds
 * A[i][p] * B[p][j] for p ascending, skipping A entries equal to 0.
 */
void
orderedGemm(const Tensor &a, bool ta, const Tensor &b, bool tb,
            Tensor &c, float beta)
{
    const std::size_t m = c.dim(0), n = c.dim(1);
    const std::size_t k = ta ? a.dim(0) : a.dim(1);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = beta == 0.0f   ? 0.0f
                        : beta == 1.0f ? c.at(i, j)
                                       : c.at(i, j) * beta;
            for (std::size_t p = 0; p < k; ++p) {
                const float av = ta ? a.at(p, i) : a.at(i, p);
                if (av == 0.0f)
                    continue;
                acc += av * (tb ? b.at(j, p) : b.at(p, j));
            }
            c.at(i, j) = acc;
        }
    }
}

/** Random A with about a third of its entries +0.0f or -0.0f. */
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

struct GoldenCase {
    std::size_t m, k, n;
};

class GemmGolden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(GemmGolden, BitExactAcrossTransposesAndBetas)
{
    const auto p = GetParam();
    for (int t = 0; t < 4; ++t) {
        const bool ta = (t & 1) != 0, tb = (t & 2) != 0;
        for (float beta : {0.0f, 1.0f, 0.5f}) {
            Rng rng(p.m * 7919 + p.k * 31 + p.n + t);
            Tensor a = sparseSigned(
                ta ? Shape{p.k, p.m} : Shape{p.m, p.k}, rng);
            Tensor b = Tensor::randn(
                tb ? Shape{p.n, p.k} : Shape{p.k, p.n}, rng);
            Tensor c0 = Tensor::randn({p.m, p.n}, rng);
            // -0 in C survives beta 1 only if all-zero A rows add
            // nothing at all.
            for (std::size_t i = 0; i < c0.numel(); i += 5)
                c0[i] = -0.0f;
            for (std::size_t i = 0; i < p.k; ++i) {
                if (ta)
                    a.at(i, 0) = 0.0f;
                else
                    a.at(0, i) = -0.0f;
            }
            Tensor got = c0, want = c0;
            gemm(a, ta, b, tb, got, beta);
            orderedGemm(a, ta, b, tb, want, beta);
            EXPECT_TRUE(sameBits(got, want))
                << "m=" << p.m << " k=" << p.k << " n=" << p.n
                << " ta=" << ta << " tb=" << tb << " beta=" << beta;
        }
    }
}

TEST_P(GemmGolden, BitExactAtAnyThreadCount)
{
    const auto p = GetParam();
    Rng rng(p.m + p.k + p.n);
    Tensor a = sparseSigned({p.m, p.k}, rng);
    Tensor b = Tensor::randn({p.k, p.n}, rng);
    Tensor want({p.m, p.n});
    orderedGemm(a, false, b, false, want, 0.0f);
    for (std::size_t threads : {1, 3}) {
        setGlobalThreads(threads);
        Tensor got({p.m, p.n});
        gemm(a, false, b, false, got);
        EXPECT_TRUE(sameBits(got, want)) << "threads=" << threads;
    }
    setGlobalThreads(0);
}

// Shapes straddle the 64-wide row/depth blocks and every column tile
// tail; the last one is large enough to fan out across the pool.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmGolden,
    ::testing::Values(GoldenCase{1, 1, 1}, GoldenCase{3, 5, 7},
                      GoldenCase{6, 25, 144}, GoldenCase{16, 150, 36},
                      GoldenCase{63, 64, 65}, GoldenCase{65, 129, 31},
                      GoldenCase{64, 1, 64}, GoldenCase{130, 90, 100}));

TEST(Gemm, RawPointerMatchesTensorWrapper)
{
    Rng rng(9);
    Tensor a = sparseSigned({5, 7}, rng);
    Tensor b = Tensor::randn({9, 7}, rng);
    Tensor viaTensor({5, 9}), viaRaw({5, 9});
    gemm(a, false, b, true, viaTensor);
    gemm(a.data(), false, b.data(), true, viaRaw.data(), 5, 9, 7);
    EXPECT_TRUE(sameBits(viaTensor, viaRaw));
}

// ----------------------------------------------------------- elementwise

TEST(Elementwise, Axpy)
{
    Tensor x = Tensor::fromValues({3}, {1, 2, 3});
    Tensor y = Tensor::fromValues({3}, {10, 10, 10});
    axpy(2.0f, x, y);
    EXPECT_FLOAT_EQ(y[2], 16.0f);
}

TEST(Elementwise, ReLUForwardBackward)
{
    Tensor x = Tensor::fromValues({4}, {-1, 0, 2, -3});
    Tensor out({4});
    reluForward(x, out);
    EXPECT_EQ(out[0], 0.0f);
    EXPECT_EQ(out[2], 2.0f);
    Tensor g = Tensor::fromValues({4}, {1, 1, 1, 1});
    Tensor gi({4});
    reluBackward(x, g, gi);
    EXPECT_EQ(gi[0], 0.0f);
    EXPECT_EQ(gi[2], 1.0f);
}

TEST(Elementwise, BiasRows)
{
    Tensor x = Tensor::fromValues({2, 2}, {0, 0, 0, 0});
    Tensor b = Tensor::fromValues({2}, {1, 2});
    biasAddRows(x, b);
    EXPECT_FLOAT_EQ(x.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(x.at(1, 0), 1.0f);

    Tensor g = Tensor::fromValues({2, 2}, {1, 2, 3, 4});
    Tensor gb({2});
    biasGradRows(g, gb);
    EXPECT_FLOAT_EQ(gb[0], 4.0f);
    EXPECT_FLOAT_EQ(gb[1], 6.0f);
}

TEST(Elementwise, BiasChannels)
{
    Tensor x({1, 2, 2, 2});
    Tensor b = Tensor::fromValues({2}, {1, -1});
    biasAddChannels(x, b);
    EXPECT_FLOAT_EQ(x[0], 1.0f);   // channel 0
    EXPECT_FLOAT_EQ(x[4], -1.0f);  // channel 1

    Tensor g({1, 2, 2, 2}, 1.0f);
    Tensor gb({2});
    biasGradChannels(g, gb);
    EXPECT_FLOAT_EQ(gb[0], 4.0f);
    EXPECT_FLOAT_EQ(gb[1], 4.0f);
}

// ---------------------------------------------------------- softmax/xent

TEST(Softmax, RowsSumToOne)
{
    Rng rng(5);
    Tensor logits = Tensor::randn({8, 10}, rng, 3.0f);
    Tensor probs(logits.shape());
    softmaxRows(logits, probs);
    for (std::size_t r = 0; r < 8; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < 10; ++c)
            s += probs.at(r, c);
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Softmax, NumericallyStableForLargeLogits)
{
    Tensor logits = Tensor::fromValues({1, 2}, {1000.0f, 1001.0f});
    Tensor probs(logits.shape());
    softmaxRows(logits, probs);
    EXPECT_TRUE(std::isfinite(probs[0]));
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-6);
}

TEST(CrossEntropy, GradientMatchesNumeric)
{
    Rng rng(7);
    Tensor logits = Tensor::randn({4, 5}, rng);
    std::vector<int> labels = {0, 2, 4, 1};
    Tensor probs(logits.shape()), grad(logits.shape());
    const double loss = softmaxCrossEntropy(logits, labels, probs, grad);
    EXPECT_GT(loss, 0.0);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < logits.numel(); i += 3) {
        Tensor lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        Tensor d1(logits.shape()), d2(logits.shape());
        const double lossP =
            softmaxCrossEntropy(lp, labels, probs, d1);
        const double lossM =
            softmaxCrossEntropy(lm, labels, probs, d2);
        const double numeric = (lossP - lossM) / (2.0 * eps);
        EXPECT_NEAR(grad[i], numeric, 2e-3) << "index " << i;
    }
}

TEST(CrossEntropy, PerfectPredictionLowLoss)
{
    Tensor logits = Tensor::fromValues({1, 3}, {20.0f, -10.0f, -10.0f});
    Tensor probs(logits.shape()), grad(logits.shape());
    const double loss =
        softmaxCrossEntropy(logits, {0}, probs, grad);
    EXPECT_LT(loss, 1e-6);
}

TEST(Argmax, PicksLargest)
{
    Tensor s = Tensor::fromValues({2, 3}, {1, 5, 2, 9, 0, 3});
    const auto idx = argmaxRows(s);
    EXPECT_EQ(idx[0], 1);
    EXPECT_EQ(idx[1], 0);
}

TEST(Cosine, IdenticalIsOne)
{
    Tensor a = Tensor::fromValues({3}, {1, 2, 3});
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0, 1e-6);
}

TEST(Cosine, OrthogonalIsZero)
{
    Tensor a = Tensor::fromValues({2}, {1, 0});
    Tensor b = Tensor::fromValues({2}, {0, 1});
    EXPECT_NEAR(cosineSimilarity(a, b), 0.0, 1e-9);
}

TEST(Cosine, OppositeIsMinusOne)
{
    Tensor a = Tensor::fromValues({2}, {1, 1});
    Tensor b = Tensor::fromValues({2}, {-1, -1});
    EXPECT_NEAR(cosineSimilarity(a, b), -1.0, 1e-6);
}

TEST(Cosine, ZeroVectorGivesZero)
{
    Tensor a = Tensor::fromValues({2}, {0, 0});
    Tensor b = Tensor::fromValues({2}, {1, 1});
    EXPECT_EQ(cosineSimilarity(a, b), 0.0);
}
