#include "tensor/conv.hh"

#include <algorithm>

#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace {

// Per-item work (in multiply-accumulates) below which the thread
// fan-out costs more than it saves.
constexpr std::size_t kParConvWorkMin = std::size_t{1} << 20;

} // namespace

namespace socflow {
namespace tensor {

std::size_t
convOutDim(std::size_t in, std::size_t kernel, std::size_t stride,
           std::size_t pad)
{
    SOCFLOW_ASSERT(in + 2 * pad >= kernel, "kernel larger than input");
    return (in + 2 * pad - kernel) / stride + 1;
}

namespace {

/**
 * Copy one sample [C, H, W] into `buf`, resized to [C, H+2p, W+2p]
 * with a zero border, so the unfold and fold loops below need no
 * bounds checks. Callers that walk a batch pass the same `buf` for
 * every sample.
 */
float *
padSample(const float *x, std::size_t channels, std::size_t h,
          std::size_t w, std::size_t pad, std::vector<float> &buf)
{
    const std::size_t hp = h + 2 * pad, wp = w + 2 * pad;
    buf.assign(channels * hp * wp, 0.0f);
    for (std::size_t c = 0; c < channels; ++c)
        for (std::size_t y = 0; y < h; ++y)
            std::copy(x + (c * h + y) * w, x + (c * h + y + 1) * w,
                      buf.data() + (c * hp + y + pad) * wp + pad);
    return buf.data();
}

/** im2col() with the caller's padding scratch. */
void
unfold(const float *x, std::size_t channels, std::size_t h,
       std::size_t w, const ConvGeom &g, float *out,
       std::vector<float> &padBuf)
{
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t hp = h + 2 * g.pad, wp = w + 2 * g.pad;
    const std::size_t stride = g.stride;
    const float *xp =
        g.pad > 0 ? padSample(x, channels, h, w, g.pad, padBuf) : x;
    float *o = out;
    for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                const float *src = xp + (c * hp + ky) * wp + kx;
                for (std::size_t oy = 0; oy < ho; ++oy, o += wo) {
                    const float *s = src + oy * stride * wp;
                    for (std::size_t ox = 0; ox < wo; ++ox)
                        o[ox] = s[ox * stride];
                }
            }
        }
    }
}

/**
 * im2col into the transposed layout [Ho*Wo, C*k*k]: the right-hand
 * operand of the weight-gradient product dOut * cols^T, so that GEMM
 * needs no transpose.
 */
void
unfoldTransposed(const float *x, std::size_t channels, std::size_t h,
                 std::size_t w, const ConvGeom &g, float *out,
                 std::vector<float> &padBuf)
{
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t hp = h + 2 * g.pad, wp = w + 2 * g.pad;
    const std::size_t stride = g.stride;
    const float *xp =
        g.pad > 0 ? padSample(x, channels, h, w, g.pad, padBuf) : x;
    float *o = out;
    for (std::size_t oy = 0; oy < ho; ++oy) {
        for (std::size_t ox = 0; ox < wo; ++ox) {
            const float *src = xp + oy * stride * wp + ox * stride;
            for (std::size_t c = 0; c < channels; ++c) {
                for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                    const float *s = src + (c * hp + ky) * wp;
                    for (std::size_t kx = 0; kx < g.kernel; ++kx)
                        *o++ = s[kx];
                }
            }
        }
    }
}

/** col2im() with the caller's padding scratch. */
void
fold(const float *cols_data, std::size_t channels, std::size_t h,
     std::size_t w, const ConvGeom &g, float *x,
     std::vector<float> &padBuf)
{
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t hp = h + 2 * g.pad, wp = w + 2 * g.pad;
    const std::size_t stride = g.stride;
    // Fold into a padded copy of x: each element still receives its
    // terms in (row, oy, ox) order after its own prior value, and
    // the border sums are dropped.
    float *xp =
        g.pad > 0 ? padSample(x, channels, h, w, g.pad, padBuf) : x;
    const float *crow = cols_data;
    for (std::size_t c = 0; c < channels; ++c) {
        for (std::size_t ky = 0; ky < g.kernel; ++ky) {
            for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                float *dst = xp + (c * hp + ky) * wp + kx;
                for (std::size_t oy = 0; oy < ho; ++oy, crow += wo) {
                    float *d = dst + oy * stride * wp;
                    for (std::size_t ox = 0; ox < wo; ++ox)
                        d[ox * stride] += crow[ox];
                }
            }
        }
    }
    if (g.pad == 0)
        return;
    for (std::size_t c = 0; c < channels; ++c)
        for (std::size_t y = 0; y < h; ++y) {
            const float *src = xp + (c * hp + y + g.pad) * wp + g.pad;
            std::copy(src, src + w, x + (c * h + y) * w);
        }
}

} // namespace

void
im2col(const float *x, std::size_t channels, std::size_t h,
       std::size_t w, const ConvGeom &g, float *out)
{
    std::vector<float> padBuf;
    unfold(x, channels, h, w, g, out, padBuf);
}

void
col2im(const float *cols_data, std::size_t channels, std::size_t h,
       std::size_t w, const ConvGeom &g, float *x)
{
    std::vector<float> padBuf;
    fold(cols_data, channels, h, w, g, x, padBuf);
}

void
conv2dForward(const Tensor &x, const Tensor &weight, const ConvGeom &g,
              Tensor &out)
{
    SOCFLOW_ASSERT(x.rank() == 4, "conv input must be NCHW");
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    SOCFLOW_ASSERT(c == g.inChannels, "conv input channel mismatch");
    SOCFLOW_ASSERT(weight.numel() ==
                       g.outChannels * g.inChannels * g.kernel * g.kernel,
                   "conv weight size mismatch");
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    SOCFLOW_ASSERT(out.shape() ==
                       Shape({n, g.outChannels, ho, wo}),
                   "conv output shape mismatch");

    const std::size_t krows = g.inChannels * g.kernel * g.kernel;
    const std::size_t cols = ho * wo;
    const std::size_t inSize = c * h * w;
    const std::size_t outSize = g.outChannels * cols;

    // Weight viewed as [outC, krows] times im2col [krows, cols] gives
    // one sample's output planes [outC, cols], written in place.
    const auto sample = [&](std::size_t s, std::vector<float> &colsBuf,
                            std::vector<float> &padBuf) {
        unfold(x.data() + s * inSize, c, h, w, g, colsBuf.data(), padBuf);
        gemm(weight.data(), false, colsBuf.data(), false,
             out.data() + s * outSize, g.outChannels, cols, krows);
    };
    // Samples are independent and write disjoint output slices, so
    // the batch fans out bit-exactly; each task carries its own
    // im2col scratch. Nested use (a pool worker already running the
    // per-group trainer step) stays serial via the inline guard.
    const std::size_t perSample = g.outChannels * krows * cols;
    ThreadPool &pool = globalThreadPool();
    if (n > 1 && perSample >= kParConvWorkMin && pool.size() > 1 &&
        !ThreadPool::inWorkerThread()) {
        pool.parallelFor(n, [&](std::size_t s) {
            std::vector<float> colsBuf(krows * cols), padBuf;
            sample(s, colsBuf, padBuf);
        });
        return;
    }
    std::vector<float> colsBuf(krows * cols), padBuf;
    for (std::size_t s = 0; s < n; ++s)
        sample(s, colsBuf, padBuf);
}

void
conv2dBackward(const Tensor &x, const Tensor &weight, const ConvGeom &g,
               const Tensor &grad_out, Tensor *grad_x, Tensor &grad_w)
{
    SOCFLOW_ASSERT(x.rank() == 4, "conv input must be NCHW");
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    SOCFLOW_ASSERT(c == g.inChannels, "conv input channel mismatch");
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    const std::size_t krows = g.inChannels * g.kernel * g.kernel;
    const std::size_t cols = ho * wo;
    SOCFLOW_ASSERT(weight.numel() == g.outChannels * krows,
                   "conv weight size mismatch");
    SOCFLOW_ASSERT(grad_out.shape() ==
                       Shape({n, g.outChannels, ho, wo}),
                   "conv grad_out shape mismatch");
    SOCFLOW_ASSERT(grad_w.numel() == weight.numel(),
                   "conv grad_w size mismatch");
    SOCFLOW_ASSERT(!grad_x || grad_x->shape() == x.shape(),
                   "conv grad_x shape mismatch");

    const std::size_t inSize = c * h * w;
    const std::size_t outSize = g.outChannels * cols;
    std::vector<float> colsT(cols * krows), padBuf;
    std::vector<float> gcols(grad_x ? krows * cols : 0);
    if (grad_x)
        grad_x->zero();

    // The sample loop must stay serial: grad_w accumulates across
    // samples in ascending-s order, and splitting that sum would
    // change the float addition order. Parallelism comes from inside
    // the two gemm calls instead, whose row fan-out preserves each
    // output element's accumulation order exactly.
    for (std::size_t s = 0; s < n; ++s) {
        const float *go = grad_out.data() + s * outSize;
        // dW[outC, krows] += dOut[outC, cols] * cols^T [cols, krows],
        // unfolded straight into the transposed layout.
        unfoldTransposed(x.data() + s * inSize, c, h, w, g, colsT.data(),
                         padBuf);
        gemm(go, false, colsT.data(), false, grad_w.data(), g.outChannels,
             krows, cols, 1.0f);
        if (grad_x) {
            // dCols = W^T * dOut ; then fold back.
            gemm(weight.data(), true, go, false, gcols.data(), krows,
                 cols, g.outChannels);
            fold(gcols.data(), c, h, w, g, grad_x->data() + s * inSize,
                 padBuf);
        }
    }
}

void
depthwiseConv2dForward(const Tensor &x, const Tensor &weight,
                       const ConvGeom &g, Tensor &out)
{
    SOCFLOW_ASSERT(g.inChannels == g.outChannels,
                   "depthwise conv requires inC == outC");
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);
    SOCFLOW_ASSERT(out.shape() == Shape({n, c, ho, wo}),
                   "depthwise output shape mismatch");
    SOCFLOW_ASSERT(weight.numel() == c * g.kernel * g.kernel,
                   "depthwise weight size mismatch");

    out.zero();
    // One task per (sample, channel) plane: planes neither share
    // inputs nor outputs, so the fan-out is bit-exact.
    const std::size_t planes = n * c;
    const std::size_t perPlane = ho * wo * g.kernel * g.kernel;
    const auto planeTask = [&](std::size_t t) {
        const std::size_t s = t / c;
        const std::size_t ch = t % c;
        {
            const float *plane = x.data() + (s * c + ch) * h * w;
            const float *filt =
                weight.data() + ch * g.kernel * g.kernel;
            float *oplane = out.data() + (s * c + ch) * ho * wo;
            for (std::size_t oy = 0; oy < ho; ++oy) {
                for (std::size_t ox = 0; ox < wo; ++ox) {
                    float acc = 0.0f;
                    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(
                                oy * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
                        if (iy < 0 ||
                            iy >= static_cast<std::ptrdiff_t>(h))
                            continue;
                        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    ox * g.stride + kx) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            if (ix < 0 ||
                                ix >= static_cast<std::ptrdiff_t>(w))
                                continue;
                            acc += plane[iy * w + ix] *
                                   filt[ky * g.kernel + kx];
                        }
                    }
                    oplane[oy * wo + ox] = acc;
                }
            }
        }
    };
    ThreadPool &pool = globalThreadPool();
    if (planes > 1 && planes * perPlane >= kParConvWorkMin &&
        pool.size() > 1 && !ThreadPool::inWorkerThread()) {
        pool.parallelFor(planes, planeTask);
    } else {
        for (std::size_t t = 0; t < planes; ++t)
            planeTask(t);
    }
}

void
depthwiseConv2dBackward(const Tensor &x, const Tensor &weight,
                        const ConvGeom &g, const Tensor &grad_out,
                        Tensor *grad_x, Tensor &grad_w)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, g.kernel, g.stride, g.pad);
    const std::size_t wo = convOutDim(w, g.kernel, g.stride, g.pad);

    if (grad_x)
        grad_x->zero();
    // Parallel over channels: each channel owns its filter-gradient
    // slice outright and walks its samples in ascending order, so
    // the per-element accumulation order matches the serial loop at
    // any thread count (loop interchange from the old s-outer form
    // is exact too -- distinct channels never share an accumulator).
    const std::size_t perChannel =
        n * ho * wo * g.kernel * g.kernel;
    const auto channelTask = [&](std::size_t ch) {
        for (std::size_t s = 0; s < n; ++s) {
            const float *plane = x.data() + (s * c + ch) * h * w;
            const float *filt =
                weight.data() + ch * g.kernel * g.kernel;
            float *gfilt = grad_w.data() + ch * g.kernel * g.kernel;
            const float *goPlane =
                grad_out.data() + (s * c + ch) * ho * wo;
            float *gxPlane =
                grad_x ? grad_x->data() + (s * c + ch) * h * w : nullptr;
            for (std::size_t oy = 0; oy < ho; ++oy) {
                for (std::size_t ox = 0; ox < wo; ++ox) {
                    const float go = goPlane[oy * wo + ox];
                    if (go == 0.0f)
                        continue;
                    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
                        const std::ptrdiff_t iy =
                            static_cast<std::ptrdiff_t>(
                                oy * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
                        if (iy < 0 ||
                            iy >= static_cast<std::ptrdiff_t>(h))
                            continue;
                        for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                            const std::ptrdiff_t ix =
                                static_cast<std::ptrdiff_t>(
                                    ox * g.stride + kx) -
                                static_cast<std::ptrdiff_t>(g.pad);
                            if (ix < 0 ||
                                ix >= static_cast<std::ptrdiff_t>(w))
                                continue;
                            gfilt[ky * g.kernel + kx] +=
                                go * plane[iy * w + ix];
                            if (gxPlane) {
                                gxPlane[iy * w + ix] +=
                                    go * filt[ky * g.kernel + kx];
                            }
                        }
                    }
                }
            }
        }
    };
    ThreadPool &pool = globalThreadPool();
    if (c > 1 && c * perChannel >= kParConvWorkMin &&
        pool.size() > 1 && !ThreadPool::inWorkerThread()) {
        pool.parallelFor(c, channelTask);
    } else {
        for (std::size_t ch = 0; ch < c; ++ch)
            channelTask(ch);
    }
}

void
maxPool2dForward(const Tensor &x, std::size_t kernel, std::size_t stride,
                 Tensor &out, std::vector<std::size_t> &argmax)
{
    const std::size_t n = x.dim(0), c = x.dim(1), h = x.dim(2),
                      w = x.dim(3);
    const std::size_t ho = convOutDim(h, kernel, stride, 0);
    const std::size_t wo = convOutDim(w, kernel, stride, 0);
    SOCFLOW_ASSERT(out.shape() == Shape({n, c, ho, wo}),
                   "maxpool output shape mismatch");
    argmax.assign(out.numel(), 0);

    // Windows never cross the border: with no padding the last one
    // ends at row/column (Ho-1)*stride + kernel-1 <= H-1.
    const float *px = x.data();
    float *po = out.data();
    std::size_t oi = 0;
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const std::size_t base = (s * c + ch) * h * w;
            for (std::size_t oy = 0; oy < ho; ++oy) {
                for (std::size_t ox = 0; ox < wo; ++ox, ++oi) {
                    const std::size_t corner =
                        base + oy * stride * w + ox * stride;
                    float best = -3.4e38f;
                    std::size_t bestIdx = base;
                    for (std::size_t ky = 0; ky < kernel; ++ky) {
                        for (std::size_t kx = 0; kx < kernel; ++kx) {
                            const std::size_t idx = corner + ky * w + kx;
                            // Selects, not branches: the winner is
                            // data-dependent and mispredicts.
                            const bool take = px[idx] > best;
                            best = take ? px[idx] : best;
                            bestIdx = take ? idx : bestIdx;
                        }
                    }
                    po[oi] = best;
                    argmax[oi] = bestIdx;
                }
            }
        }
    }
}

void
maxPool2dBackward(const Tensor &grad_out,
                  const std::vector<std::size_t> &argmax, Tensor &grad_x)
{
    SOCFLOW_ASSERT(argmax.size() == grad_out.numel(),
                   "maxpool argmax size mismatch");
    grad_x.zero();
    const float *pg = grad_out.data();
    float *px = grad_x.data();
    for (std::size_t i = 0; i < argmax.size(); ++i)
        px[argmax[i]] += pg[i];
}

void
globalAvgPoolForward(const Tensor &x, Tensor &out)
{
    const std::size_t n = x.dim(0), c = x.dim(1),
                      hw = x.dim(2) * x.dim(3);
    SOCFLOW_ASSERT(out.shape() == Shape({n, c}),
                   "avgpool output shape mismatch");
    const float *px = x.data();
    float *po = out.data();
    const float inv = 1.0f / static_cast<float>(hw);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float *plane = px + (s * c + ch) * hw;
            double acc = 0.0;
            for (std::size_t i = 0; i < hw; ++i)
                acc += plane[i];
            po[s * c + ch] = static_cast<float>(acc) * inv;
        }
    }
}

void
globalAvgPoolBackward(const Tensor &grad_out, std::size_t h,
                      std::size_t w, Tensor &grad_x)
{
    const std::size_t n = grad_out.dim(0), c = grad_out.dim(1);
    const std::size_t hw = h * w;
    SOCFLOW_ASSERT(grad_x.shape() == Shape({n, c, h, w}),
                   "avgpool grad shape mismatch");
    const float *pg = grad_out.data();
    float *px = grad_x.data();
    const float inv = 1.0f / static_cast<float>(hw);
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t ch = 0; ch < c; ++ch) {
            const float g = pg[s * c + ch] * inv;
            float *plane = px + (s * c + ch) * hw;
            for (std::size_t i = 0; i < hw; ++i)
                plane[i] = g;
        }
    }
}

} // namespace tensor
} // namespace socflow
