/**
 * @file
 * Dense linear-algebra and elementwise kernels.
 *
 * Plain loops plus one cache-blocked GEMM kernel. Determinism
 * matters more than peak FLOPs for a reproduction: every GEMM output
 * element adds its k products in ascending order (skipping zero A
 * entries), at any thread count, so results are bit-identical across
 * runs and pools. Large GEMMs fan their row blocks across the global
 * thread pool. The wall-clock of the simulated hardware comes from the
 * compute model, not from these kernels.
 */

#ifndef SOCFLOW_TENSOR_OPS_HH
#define SOCFLOW_TENSOR_OPS_HH

#include <cstddef>

#include "tensor/tensor.hh"

namespace socflow {
namespace tensor {

/**
 * General matrix multiply on contiguous row-major buffers:
 * C = A(opA) * B(opB) + beta * C, with A [m, k] after opA, B [k, n]
 * after opB and C [m, n]. A transposed A is stored [k, m], a
 * transposed B [n, k]. C must not overlap A or B.
 *
 * C is first zeroed (beta == 0) or scaled (beta != 1); then each
 * C[i][j] adds A[i][p] * B[p][j] for p ascending, skipping every p
 * with A[i][p] == 0 (either sign).
 */
void gemm(const float *a, bool trans_a, const float *b, bool trans_b,
          float *c, std::size_t m, std::size_t n, std::size_t k,
          float beta = 0.0f);

/**
 * Shape-checked gemm over rank-2 tensors (same semantics).
 * @param trans_a treat A as transposed.
 * @param trans_b treat B as transposed.
 */
void gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
          Tensor &c, float beta = 0.0f);

/** y += alpha * x (flat, matching numel). */
void axpy(float alpha, const Tensor &x, Tensor &y);

/** x *= alpha (flat). */
void scale(Tensor &x, float alpha);

/** out = a + b elementwise (matching numel). */
void add(const Tensor &a, const Tensor &b, Tensor &out);

/** ReLU forward: out = max(x, 0). */
void reluForward(const Tensor &x, Tensor &out);

/**
 * ReLU backward: grad_in = grad_out where x > 0 else 0.
 * `x` is the forward input.
 */
void reluBackward(const Tensor &x, const Tensor &grad_out,
                  Tensor &grad_in);

/**
 * Add a bias vector to a [batch, features] matrix, one bias per
 * feature column.
 */
void biasAddRows(Tensor &x, const Tensor &bias);

/**
 * Accumulate the bias gradient of a [batch, features] gradient into
 * `grad_bias` (length features).
 */
void biasGradRows(const Tensor &grad_out, Tensor &grad_bias);

/**
 * Add a per-channel bias to an NCHW tensor.
 */
void biasAddChannels(Tensor &x, const Tensor &bias);

/** Accumulate per-channel bias gradient from an NCHW gradient. */
void biasGradChannels(const Tensor &grad_out, Tensor &grad_bias);

/**
 * Row-wise softmax of a [batch, classes] matrix into `probs`.
 */
void softmaxRows(const Tensor &logits, Tensor &probs);

/**
 * Mean cross-entropy loss of logits against integer labels; also
 * emits softmax probabilities (for accuracy and for the
 * mixed-precision confidence metric) and the logits gradient
 * (probs - onehot) / batch.
 * @return the mean loss.
 */
double softmaxCrossEntropy(const Tensor &logits,
                           const std::vector<int> &labels,
                           Tensor &probs, Tensor &grad_logits);

/** Row-wise argmax of a [batch, classes] matrix. */
std::vector<int> argmaxRows(const Tensor &scores);

/** Cosine similarity of two flat tensors (0 when either is zero). */
double cosineSimilarity(const Tensor &a, const Tensor &b);

} // namespace tensor
} // namespace socflow

#endif // SOCFLOW_TENSOR_OPS_HH
