/**
 * @file
 * google-benchmark microbenchmarks of the numerical kernels behind
 * the training substrate: GEMM, im2col convolution, quantization,
 * CRC-32, and full model steps.
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "nn/zoo.hh"
#include "quant/quantize.hh"
#include "tensor/conv.hh"
#include "tensor/ops.hh"
#include "util/hash.hh"
#include "util/rng.hh"

using namespace socflow;
using tensor::Tensor;

static void
BM_Gemm(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    Tensor c({n, n});
    for (auto _ : state) {
        tensor::gemm(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// The transposed products of a lenet5 group step at batch 32:
// arg 0 is the first dense layer's weight gradient dOut^T * X
// (trans_a), arg 1 its forward X * W^T (trans_b).
static void
BM_GemmTransposed(benchmark::State &state)
{
    const bool transA = state.range(0) == 0;
    const std::size_t batch = 32, in = 144, out = 120;
    Rng rng(8);
    Tensor a = transA ? Tensor::randn({batch, out}, rng)
                      : Tensor::randn({batch, in}, rng);
    Tensor b = transA ? Tensor::randn({batch, in}, rng)
                      : Tensor::randn({out, in}, rng);
    Tensor c = transA ? Tensor({out, in}) : Tensor({batch, out});
    for (auto _ : state) {
        tensor::gemm(a, transA, b, !transA, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * batch * in * out);
    state.SetLabel(transA ? "dense dW (trans_a)" : "dense fwd (trans_b)");
}
BENCHMARK(BM_GemmTransposed)->Arg(0)->Arg(1);

static void
BM_Conv2dForward(benchmark::State &state)
{
    const std::size_t c = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    tensor::ConvGeom g{c, c, 3, 1, 1};
    Tensor x = Tensor::randn({8, c, 12, 12}, rng);
    Tensor w = Tensor::randn({c, c, 3, 3}, rng);
    Tensor out({8, c, 12, 12});
    for (auto _ : state) {
        tensor::conv2dForward(x, w, g, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

// Both lenet5 convolutions' backward passes (weight and input
// gradient) at batch 16 on 12x12 inputs; arg selects the layer.
static void
BM_Conv2dBackward(benchmark::State &state)
{
    const bool first = state.range(0) == 0;
    const std::size_t batch = 16, c = first ? 1 : 6, hw = first ? 12 : 6;
    const std::size_t outC = first ? 6 : 16;
    Rng rng(9);
    tensor::ConvGeom g{c, outC, 5, 1, 2};
    Tensor x = Tensor::randn({batch, c, hw, hw}, rng);
    Tensor w = Tensor::randn({outC, c, 5, 5}, rng);
    Tensor gradOut = Tensor::randn({batch, outC, hw, hw}, rng);
    Tensor gradX(x.shape()), gradW(w.shape());
    for (auto _ : state) {
        tensor::conv2dBackward(x, w, g, gradOut, &gradX, gradW);
        benchmark::DoNotOptimize(gradW.data());
    }
    state.SetItemsProcessed(state.iterations() * batch * 2 * 2 * outC *
                            c * 25 * hw * hw);
    state.SetLabel(first ? "conv1 (1->6)" : "conv2 (6->16)");
}
BENCHMARK(BM_Conv2dBackward)->Arg(0)->Arg(1);

static void
BM_DepthwiseConv(benchmark::State &state)
{
    const std::size_t c = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    tensor::ConvGeom g{c, c, 3, 1, 1};
    Tensor x = Tensor::randn({8, c, 12, 12}, rng);
    Tensor w = Tensor::randn({c, 1, 3, 3}, rng);
    Tensor out({8, c, 12, 12});
    for (auto _ : state) {
        tensor::depthwiseConv2dForward(x, w, g, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_DepthwiseConv)->Arg(16)->Arg(64);

static void
BM_FakeQuantize(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    Tensor t = Tensor::randn({n}, rng);
    quant::QuantConfig cfg;
    cfg.stochasticRounding = true;
    Rng qrng(5);
    for (auto _ : state) {
        Tensor copy = t;
        quant::fakeQuantize(copy, cfg, &qrng);
        benchmark::DoNotOptimize(copy.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FakeQuantize)->Arg(1 << 12)->Arg(1 << 16);

static void
BM_Crc32(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(10);
    std::vector<unsigned char> buf(n);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.uniformInt(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_Crc32)->Arg(1 << 10)->Arg(1 << 17);

static void
BM_Int8Gemm(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    std::vector<std::int32_t> a(n * n), b(n * n), c(n * n);
    for (auto &v : a)
        v = static_cast<std::int32_t>(rng.uniformInt(255)) - 127;
    for (auto &v : b)
        v = static_cast<std::int32_t>(rng.uniformInt(255)) - 127;
    for (auto _ : state) {
        quant::int8Gemm(a.data(), b.data(), c.data(), n, n, n);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Int8Gemm)->Arg(64)->Arg(128);

static void
BM_ModelTrainStep(benchmark::State &state)
{
    static const char *families[] = {"lenet5", "vgg11", "resnet18",
                                     "mobilenet_v1", "resnet50"};
    const char *family = families[state.range(0)];
    Rng rng(7);
    nn::Model model =
        nn::buildModel(family, nn::NetSpec{3, 12, 12, 10}, rng);
    Tensor x = Tensor::randn({16, 3, 12, 12}, rng);
    std::vector<int> y(16);
    for (int i = 0; i < 16; ++i)
        y[i] = i % 10;
    for (auto _ : state) {
        model.zeroGrad();
        auto r = model.trainStep(x, y);
        benchmark::DoNotOptimize(r.loss);
    }
    state.SetLabel(family);
}
BENCHMARK(BM_ModelTrainStep)->DenseRange(0, 4);

int
main(int argc, char **argv)
{
    bench::initBenchObservability(argc, argv);
    bench::rejectUnknownFlags(argc, argv, "--benchmark_");
    // The smoke tier translates --smoke into a near-zero measurement
    // budget so every benchmark still registers, builds its fixtures,
    // and runs at least one iteration under ctest.
    std::vector<char *> args(argv, argv + argc);
    static char smokeMinTime[] = "--benchmark_min_time=0.001";
    if (bench::smokeMode())
        args.push_back(smokeMinTime);
    args.push_back(nullptr);
    int benchArgc = static_cast<int>(args.size()) - 1;
    benchmark::Initialize(&benchArgc, args.data());
    if (benchmark::ReportUnrecognizedArguments(benchArgc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
