/**
 * @file
 * Convolution and pooling kernels (NCHW).
 *
 * Standard convolutions are lowered to GEMM through im2col; depthwise
 * convolutions (MobileNet) use a direct loop. Pooling keeps argmax
 * indices for the backward pass.
 */

#ifndef SOCFLOW_TENSOR_CONV_HH
#define SOCFLOW_TENSOR_CONV_HH

#include <cstddef>
#include <vector>

#include "tensor/tensor.hh"

namespace socflow {
namespace tensor {

/** Static geometry of a 2-D convolution. */
struct ConvGeom {
    std::size_t inChannels = 0;
    std::size_t outChannels = 0;
    std::size_t kernel = 3;
    std::size_t stride = 1;
    std::size_t pad = 1;
};

/** Output spatial extent of a convolution/pooling dimension. */
std::size_t convOutDim(std::size_t in, std::size_t kernel,
                       std::size_t stride, std::size_t pad);

/**
 * im2col: unfold one sample [C, H, W] into a matrix
 * [C*k*k, Ho*Wo] with zero padding.
 */
void im2col(const float *x, std::size_t channels, std::size_t h,
            std::size_t w, const ConvGeom &g, float *out);

/**
 * col2im: fold a [C*k*k, Ho*Wo] matrix back into a sample gradient
 * [C, H, W] (accumulating).
 */
void col2im(const float *cols, std::size_t channels, std::size_t h,
            std::size_t w, const ConvGeom &g, float *x);

/**
 * Convolution forward.
 * @param x input [N, inC, H, W].
 * @param weight [outC, inC, k, k].
 * @param out output [N, outC, Ho, Wo] (overwritten).
 */
void conv2dForward(const Tensor &x, const Tensor &weight,
                   const ConvGeom &g, Tensor &out);

/**
 * Convolution backward.
 * @param grad_x input gradient, shaped like x (overwritten); may be
 *               null to skip.
 * @param grad_w weight gradient (accumulated into).
 */
void conv2dBackward(const Tensor &x, const Tensor &weight,
                    const ConvGeom &g, const Tensor &grad_out,
                    Tensor *grad_x, Tensor &grad_w);

/**
 * Depthwise convolution forward: one filter per channel.
 * @param weight [C, 1, k, k].
 */
void depthwiseConv2dForward(const Tensor &x, const Tensor &weight,
                            const ConvGeom &g, Tensor &out);

/** Depthwise convolution backward (same conventions as above). */
void depthwiseConv2dBackward(const Tensor &x, const Tensor &weight,
                             const ConvGeom &g, const Tensor &grad_out,
                             Tensor *grad_x, Tensor &grad_w);

/**
 * Max-pool forward with argmax bookkeeping.
 * @param argmax resized to out.numel(); flat input indices.
 */
void maxPool2dForward(const Tensor &x, std::size_t kernel,
                      std::size_t stride, Tensor &out,
                      std::vector<std::size_t> &argmax);

/** Max-pool backward: scatter grad_out through the argmax indices. */
void maxPool2dBackward(const Tensor &grad_out,
                       const std::vector<std::size_t> &argmax,
                       Tensor &grad_x);

/** Global average pool: [N, C, H, W] -> [N, C]. */
void globalAvgPoolForward(const Tensor &x, Tensor &out);

/** Global average pool backward. */
void globalAvgPoolBackward(const Tensor &grad_out, std::size_t h,
                           std::size_t w, Tensor &grad_x);

} // namespace tensor
} // namespace socflow

#endif // SOCFLOW_TENSOR_CONV_HH
