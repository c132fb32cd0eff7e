#include "tensor/ops.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace socflow {
namespace tensor {

namespace {

/** Row and depth block of the GEMM kernel. */
constexpr std::size_t kBlock = 64;

/**
 * One register tile of a C row: crow[j, j+W) += vals[t] *
 * brows[t][j, j+W) for t ascending. The tile stays in registers for
 * the whole list, and each element still adds its products in list
 * order, exactly as a load/add/store per product would.
 */
template <std::size_t W>
inline void
accumulateTile(const float *const *brows, const float *vals,
               std::size_t cnt, std::size_t j, float *crow)
{
    float acc[W];
    for (std::size_t jj = 0; jj < W; ++jj)
        acc[jj] = crow[j + jj];
    for (std::size_t t = 0; t < cnt; ++t) {
        const float av = vals[t];
        const float *brow = brows[t] + j;
        for (std::size_t jj = 0; jj < W; ++jj)
            acc[jj] += av * brow[jj];
    }
    for (std::size_t jj = 0; jj < W; ++jj)
        crow[j + jj] = acc[jj];
}

/**
 * C[m,n] += A * B, with B [k, n] contiguous row-major and A(i, p) read
 * from a[i * aRow + p * aCol], so a transposed A needs no copy.
 *
 * Each (row, depth block) first lists its nonzero A entries in
 * ascending p, then sweeps the C row tile by tile over that list; a
 * C element therefore adds its nonzero-A products in ascending p,
 * the order of the plain i-p-j triple loop. Row blocks of C are
 * disjoint, so fanning them across the pool is bit-exact with the
 * serial schedule at any thread count.
 */
void
gemmKernel(const float *a, std::size_t aRow, std::size_t aCol,
           const float *b, float *c, std::size_t m, std::size_t n,
           std::size_t k)
{
    const auto rowBlock = [&](std::size_t bi) {
        const float *brows[kBlock];
        float vals[kBlock];
        const std::size_t i0 = bi * kBlock;
        const std::size_t i1 = std::min(m, i0 + kBlock);
        for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
            const std::size_t p1 = std::min(k, p0 + kBlock);
            for (std::size_t i = i0; i < i1; ++i) {
                // Branch-free: every entry is written, only nonzero
                // ones (NaN included) advance the count.
                std::size_t cnt = 0;
                for (std::size_t p = p0; p < p1; ++p) {
                    const float av = a[i * aRow + p * aCol];
                    brows[cnt] = b + p * n;
                    vals[cnt] = av;
                    cnt += av != 0.0f ? 1 : 0;
                }
                if (cnt == 0)
                    continue;
                float *crow = c + i * n;
                std::size_t j = 0;
                for (; j + 16 <= n; j += 16)
                    accumulateTile<16>(brows, vals, cnt, j, crow);
                if (j + 8 <= n) {
                    accumulateTile<8>(brows, vals, cnt, j, crow);
                    j += 8;
                }
                if (j + 4 <= n) {
                    accumulateTile<4>(brows, vals, cnt, j, crow);
                    j += 4;
                }
                for (; j < n; ++j)
                    accumulateTile<1>(brows, vals, cnt, j, crow);
            }
        }
    };
    const std::size_t iBlocks = (m + kBlock - 1) / kBlock;
    // Fan out only when the product is large enough to amortize the
    // dispatch; tiny GEMMs dominate the call count but not the time.
    constexpr std::size_t kParFlopMin = std::size_t{1} << 20;
    ThreadPool &pool = globalThreadPool();
    if (iBlocks > 1 && m * n * k >= kParFlopMin && pool.size() > 1 &&
        !ThreadPool::inWorkerThread()) {
        pool.parallelFor(iBlocks, rowBlock);
    } else {
        for (std::size_t bi = 0; bi < iBlocks; ++bi)
            rowBlock(bi);
    }
}

} // namespace

void
gemm(const float *a, bool trans_a, const float *b, bool trans_b,
     float *c, std::size_t m, std::size_t n, std::size_t k, float beta)
{
    if (beta == 0.0f) {
        std::fill(c, c + m * n, 0.0f);
    } else if (beta != 1.0f) {
        for (std::size_t i = 0; i < m * n; ++i)
            c[i] *= beta;
    }
    // A transposed A is read in place; a transposed B is copied once
    // into [k, n] so the kernel's inner loops stay contiguous.
    std::vector<float> tb;
    if (trans_b) {
        tb.resize(k * n);
        for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
            const std::size_t j1 = std::min(n, j0 + kBlock);
            for (std::size_t p0 = 0; p0 < k; p0 += kBlock) {
                const std::size_t p1 = std::min(k, p0 + kBlock);
                for (std::size_t j = j0; j < j1; ++j)
                    for (std::size_t p = p0; p < p1; ++p)
                        tb[p * n + j] = b[j * k + p];
            }
        }
        b = tb.data();
    }
    gemmKernel(a, trans_a ? 1 : k, trans_a ? m : 1, b, c, m, n, k);
}

void
gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
     Tensor &c, float beta)
{
    SOCFLOW_ASSERT(a.rank() == 2 && b.rank() == 2 && c.rank() == 2,
                   "gemm operands must be rank-2");
    const std::size_t m = trans_a ? a.dim(1) : a.dim(0);
    const std::size_t ka = trans_a ? a.dim(0) : a.dim(1);
    const std::size_t kb = trans_b ? b.dim(1) : b.dim(0);
    const std::size_t n = trans_b ? b.dim(0) : b.dim(1);
    SOCFLOW_ASSERT(ka == kb, "gemm inner dimensions mismatch: ", ka,
                   " vs ", kb);
    SOCFLOW_ASSERT(c.dim(0) == m && c.dim(1) == n,
                   "gemm output shape mismatch");
    gemm(a.data(), trans_a, b.data(), trans_b, c.data(), m, n, ka, beta);
}

void
axpy(float alpha, const Tensor &x, Tensor &y)
{
    SOCFLOW_ASSERT(x.numel() == y.numel(), "axpy size mismatch");
    const float *px = x.data();
    float *py = y.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
        py[i] += alpha * px[i];
}

void
scale(Tensor &x, float alpha)
{
    float *p = x.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
        p[i] *= alpha;
}

void
add(const Tensor &a, const Tensor &b, Tensor &out)
{
    SOCFLOW_ASSERT(a.numel() == b.numel() && a.numel() == out.numel(),
                   "add size mismatch");
    const float *pa = a.data();
    const float *pb = b.data();
    float *po = out.data();
    for (std::size_t i = 0; i < a.numel(); ++i)
        po[i] = pa[i] + pb[i];
}

void
reluForward(const Tensor &x, Tensor &out)
{
    SOCFLOW_ASSERT(x.numel() == out.numel(), "relu size mismatch");
    const float *px = x.data();
    float *po = out.data();
    for (std::size_t i = 0; i < x.numel(); ++i)
        po[i] = px[i] > 0.0f ? px[i] : 0.0f;
}

void
reluBackward(const Tensor &x, const Tensor &grad_out, Tensor &grad_in)
{
    SOCFLOW_ASSERT(x.numel() == grad_out.numel() &&
                       x.numel() == grad_in.numel(),
                   "relu backward size mismatch");
    const float *px = x.data();
    const float *pg = grad_out.data();
    float *po = grad_in.data();
    const std::size_t count = x.numel();
    for (std::size_t i = 0; i < count; ++i) {
        // Load unconditionally so the select needs no branch.
        const float g = pg[i];
        po[i] = px[i] > 0.0f ? g : 0.0f;
    }
}

void
biasAddRows(Tensor &x, const Tensor &bias)
{
    SOCFLOW_ASSERT(x.rank() == 2 && bias.numel() == x.dim(1),
                   "biasAddRows shape mismatch");
    const std::size_t rows = x.dim(0), cols = x.dim(1);
    float *p = x.data();
    const float *pb = bias.data();
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            p[r * cols + c] += pb[c];
}

void
biasGradRows(const Tensor &grad_out, Tensor &grad_bias)
{
    SOCFLOW_ASSERT(grad_out.rank() == 2 &&
                       grad_bias.numel() == grad_out.dim(1),
                   "biasGradRows shape mismatch");
    const std::size_t rows = grad_out.dim(0), cols = grad_out.dim(1);
    const float *pg = grad_out.data();
    float *pb = grad_bias.data();
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            pb[c] += pg[r * cols + c];
}

void
biasAddChannels(Tensor &x, const Tensor &bias)
{
    SOCFLOW_ASSERT(x.rank() == 4 && bias.numel() == x.dim(1),
                   "biasAddChannels expects NCHW and one bias/channel");
    const std::size_t n = x.dim(0), ch = x.dim(1);
    const std::size_t hw = x.dim(2) * x.dim(3);
    float *p = x.data();
    const float *pb = bias.data();
    for (std::size_t nIdx = 0; nIdx < n; ++nIdx) {
        for (std::size_t cIdx = 0; cIdx < ch; ++cIdx) {
            float *plane = p + (nIdx * ch + cIdx) * hw;
            const float bv = pb[cIdx];
            for (std::size_t i = 0; i < hw; ++i)
                plane[i] += bv;
        }
    }
}

void
biasGradChannels(const Tensor &grad_out, Tensor &grad_bias)
{
    SOCFLOW_ASSERT(grad_out.rank() == 4 &&
                       grad_bias.numel() == grad_out.dim(1),
                   "biasGradChannels shape mismatch");
    const std::size_t n = grad_out.dim(0), ch = grad_out.dim(1);
    const std::size_t hw = grad_out.dim(2) * grad_out.dim(3);
    const float *pg = grad_out.data();
    float *pb = grad_bias.data();
    for (std::size_t nIdx = 0; nIdx < n; ++nIdx) {
        for (std::size_t cIdx = 0; cIdx < ch; ++cIdx) {
            const float *plane = pg + (nIdx * ch + cIdx) * hw;
            double s = 0.0;
            for (std::size_t i = 0; i < hw; ++i)
                s += plane[i];
            pb[cIdx] += static_cast<float>(s);
        }
    }
}

void
softmaxRows(const Tensor &logits, Tensor &probs)
{
    SOCFLOW_ASSERT(logits.rank() == 2 &&
                       logits.shape() == probs.shape(),
                   "softmaxRows shape mismatch");
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    const float *pl = logits.data();
    float *pp = probs.data();
    for (std::size_t r = 0; r < batch; ++r) {
        const float *row = pl + r * classes;
        float *orow = pp + r * classes;
        float mx = row[0];
        for (std::size_t c = 1; c < classes; ++c)
            mx = std::max(mx, row[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c) {
            orow[c] = std::exp(row[c] - mx);
            denom += orow[c];
        }
        const float inv = static_cast<float>(1.0 / denom);
        for (std::size_t c = 0; c < classes; ++c)
            orow[c] *= inv;
    }
}

double
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels,
                    Tensor &probs, Tensor &grad_logits)
{
    SOCFLOW_ASSERT(logits.rank() == 2, "logits must be rank-2");
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    SOCFLOW_ASSERT(labels.size() == batch, "label count mismatch");
    SOCFLOW_ASSERT(probs.shape() == logits.shape() &&
                       grad_logits.shape() == logits.shape(),
                   "output shape mismatch");

    softmaxRows(logits, probs);

    const float *pp = probs.data();
    float *pg = grad_logits.data();
    const float invBatch = 1.0f / static_cast<float>(batch);
    double loss = 0.0;
    for (std::size_t r = 0; r < batch; ++r) {
        const int y = labels[r];
        SOCFLOW_ASSERT(y >= 0 && static_cast<std::size_t>(y) < classes,
                       "label out of range");
        const float *prow = pp + r * classes;
        float *grow = pg + r * classes;
        loss -= std::log(std::max(prow[y], 1e-12f));
        for (std::size_t c = 0; c < classes; ++c)
            grow[c] = prow[c] * invBatch;
        grow[y] -= invBatch;
    }
    return loss / static_cast<double>(batch);
}

std::vector<int>
argmaxRows(const Tensor &scores)
{
    SOCFLOW_ASSERT(scores.rank() == 2, "argmaxRows expects rank-2");
    const std::size_t batch = scores.dim(0);
    const std::size_t classes = scores.dim(1);
    std::vector<int> out(batch, 0);
    const float *p = scores.data();
    for (std::size_t r = 0; r < batch; ++r) {
        const float *row = p + r * classes;
        std::size_t best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (row[c] > row[best])
                best = c;
        out[r] = static_cast<int>(best);
    }
    return out;
}

double
cosineSimilarity(const Tensor &a, const Tensor &b)
{
    SOCFLOW_ASSERT(a.numel() == b.numel(),
                   "cosineSimilarity size mismatch");
    double dot = 0.0, na = 0.0, nb = 0.0;
    const float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < a.numel(); ++i) {
        dot += static_cast<double>(pa[i]) * pb[i];
        na += static_cast<double>(pa[i]) * pa[i];
        nb += static_cast<double>(pb[i]) * pb[i];
    }
    if (na <= 0.0 || nb <= 0.0)
        return 0.0;
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

} // namespace tensor
} // namespace socflow
