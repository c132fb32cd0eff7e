/**
 * @file
 * google-benchmark microbenchmarks of the numerical kernels behind
 * the training substrate: GEMM, im2col convolution, quantization,
 * and full model steps.
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.hh"

#include "nn/zoo.hh"
#include "quant/quantize.hh"
#include "tensor/conv.hh"
#include "tensor/ops.hh"
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
