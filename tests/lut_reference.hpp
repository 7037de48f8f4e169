// Naive, order-faithful LUT-GEMM reference over row-major codes: the bitwise
// oracle the blocked kernels (src/kernels/lut_kernels.hpp) and every SIMD
// dispatch level are memcmp-tested against. The references evaluate the
// kernels' defining expressions in their defining orders:
//   - forward: an int64 sum of LUT[w, x] over k, the Eq. (8) zero-point
//     correction, then the same float epilogue expression;
//   - backward: gx[p, k] sums output channels in ascending o, gw[o, k] sums
//     positions in ascending p, skipping zero upstream gradients.
// The layer-level references (reference_conv / reference_linear) rebuild a
// quantized ApproxConv2d / ApproxLinear step from unfused im2col, row-major
// quantization and the naive GEMMs, with the layers' epilogues.
#pragma once

#include "amret.hpp"

#include <cstdint>
#include <cstring>
#include <vector>

namespace amret::lutref {

/// Operand matrices and quantization constants of one LUT GEMM.
/// Layout: wq is (o, k), xq is (p, k), both row-major; the LUT index is
/// (w << bits) | x.
struct RowMajorGemm {
    unsigned bits = 8;
    const std::int32_t* lut = nullptr;  ///< product LUT, 2^(2*bits) entries
    const std::uint16_t* wq = nullptr;  ///< quantized weights (O, K)
    const std::uint16_t* xq = nullptr;  ///< quantized activations (P, K)
    std::int64_t o = 0, p = 0, k = 0;
    float scale_w = 1.0f, scale_x = 1.0f;
    std::int32_t zero_w = 0, zero_x = 0;
    /// Optional per-output-channel weight parameters (length O); when set
    /// they override scale_w / zero_w row-wise.
    const float* scale_w_per_o = nullptr;
    const std::int32_t* zero_w_per_o = nullptr;

    [[nodiscard]] float row_scale_w(std::int64_t oo) const {
        return scale_w_per_o ? scale_w_per_o[oo] : scale_w;
    }
    [[nodiscard]] std::int32_t row_zero_w(std::int64_t oo) const {
        return zero_w_per_o ? zero_w_per_o[oo] : zero_w;
    }
};

/// y[p, o] = s_w*s_x*(sum_k LUT[w,x] - Z_x*sumW[o] - Z_w*sumX[p] + K*Z_w*Z_x)
///           + bias[o]; \p bias may be null, \p y is (P, O).
inline void naive_forward(const RowMajorGemm& a, const float* bias, float* y) {
    std::vector<std::int64_t> sum_w(static_cast<std::size_t>(a.o), 0);
    for (std::int64_t oo = 0; oo < a.o; ++oo)
        for (std::int64_t kk = 0; kk < a.k; ++kk)
            sum_w[static_cast<std::size_t>(oo)] += a.wq[oo * a.k + kk];
    for (std::int64_t pp = 0; pp < a.p; ++pp) {
        std::int64_t sum_x = 0;
        for (std::int64_t kk = 0; kk < a.k; ++kk) sum_x += a.xq[pp * a.k + kk];
        for (std::int64_t oo = 0; oo < a.o; ++oo) {
            std::int64_t acc = 0;
            for (std::int64_t kk = 0; kk < a.k; ++kk)
                acc += a.lut[(static_cast<std::uint32_t>(a.wq[oo * a.k + kk])
                              << a.bits) |
                             a.xq[pp * a.k + kk]];
            const std::int32_t zw = a.row_zero_w(oo);
            const std::int64_t corrected =
                acc -
                static_cast<std::int64_t>(a.zero_x) *
                    sum_w[static_cast<std::size_t>(oo)] -
                static_cast<std::int64_t>(zw) * sum_x +
                a.k * static_cast<std::int64_t>(zw) * a.zero_x;
            const float ss = a.row_scale_w(oo) * a.scale_x;
            y[pp * a.o + oo] =
                ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
        }
    }
}

/// Accumulates (buffers must be zero-initialized)
///   gw_raw[o, k] += sum_p gyp[p, o] * (gradW[w,x] - Z_x)
///   gx_raw[p, k] += sum_o gyp[p, o] * s_w[o] * (gradX[w,x] - Z_w)
/// in ascending o for gx and ascending p for gw.
inline void naive_backward(const RowMajorGemm& a, const float* gyp,
                           const float* grad_w_lut, const float* grad_x_lut,
                           float* gw_raw, float* gx_raw) {
    const float zx = static_cast<float>(a.zero_x);
    for (std::int64_t pp = 0; pp < a.p; ++pp)
        for (std::int64_t oo = 0; oo < a.o; ++oo) {
            const float g = gyp[pp * a.o + oo];
            if (g == 0.0f) continue;
            const float zw = static_cast<float>(a.row_zero_w(oo));
            const float gx_scale = a.row_scale_w(oo);
            for (std::int64_t kk = 0; kk < a.k; ++kk) {
                const std::uint32_t idx =
                    (static_cast<std::uint32_t>(a.wq[oo * a.k + kk]) << a.bits) |
                    a.xq[pp * a.k + kk];
                gx_raw[pp * a.k + kk] += g * gx_scale * (grad_x_lut[idx] - zw);
            }
        }
    for (std::int64_t oo = 0; oo < a.o; ++oo)
        for (std::int64_t pp = 0; pp < a.p; ++pp) {
            const float g = gyp[pp * a.o + oo];
            if (g == 0.0f) continue;
            for (std::int64_t kk = 0; kk < a.k; ++kk) {
                const std::uint32_t idx =
                    (static_cast<std::uint32_t>(a.wq[oo * a.k + kk]) << a.bits) |
                    a.xq[pp * a.k + kk];
                gw_raw[oo * a.k + kk] += g * (grad_w_lut[idx] - zx);
            }
        }
}

/// The blocked kernels' view of the same GEMM: both operands packed into
/// (tp | to) x tk panels in \p ws, constants mirrored. With \p nibbles, a
/// <= 4-bit activation operand also gets its nibble-packed mirror, so the
/// SIMD pshufb path runs where eligible.
inline kernels::BlockedGemmArgs pack_blocked(const RowMajorGemm& a,
                                             std::int64_t tp, std::int64_t to,
                                             std::int64_t tk,
                                             kernels::Workspace& ws,
                                             bool nibbles = false) {
    kernels::BlockedGemmArgs b;
    b.bits = a.bits;
    b.lut = a.lut;
    b.w = kernels::pack_weight_panels(a.wq, a.bits,
                                      kernels::make_panel_plan(a.o, a.k, to, tk),
                                      ws);
    b.x = kernels::pack_activation_panels(
        a.xq, kernels::make_panel_plan(a.p, a.k, tp, tk), ws);
    if (nibbles && a.bits <= 4) kernels::attach_packed4(b.x, a.bits, ws);
    b.o = a.o;
    b.p = a.p;
    b.k = a.k;
    b.scale_w = a.scale_w;
    b.scale_x = a.scale_x;
    b.zero_w = a.zero_w;
    b.zero_x = a.zero_x;
    b.scale_w_per_o = a.scale_w_per_o;
    b.zero_w_per_o = a.zero_w_per_o;
    return b;
}

/// Unfused uint8 -> uint16 im2col of an NCHW feature map with zero-point
/// padding (out-of-image taps read \p zero_point): cols is (positions,
/// patch), rows c-major then kernel row/col. The reference the fused panel
/// packer (kernels::pack_im2col_panels_u8) is checked against.
inline void im2col_u8(const std::uint8_t* x, const tensor::ConvGeom& geom,
                      std::uint16_t zero_point, std::uint16_t* cols) {
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t patch = geom.patch();
    for (std::int64_t n = 0; n < geom.batch; ++n)
        for (std::int64_t oy = 0; oy < oh; ++oy)
            for (std::int64_t ox = 0; ox < ow; ++ox) {
                std::uint16_t* row = cols + ((n * oh + oy) * ow + ox) * patch;
                std::int64_t idx = 0;
                for (std::int64_t c = 0; c < geom.in_ch; ++c)
                    for (std::int64_t ky = 0; ky < geom.kernel; ++ky) {
                        const std::int64_t iy = oy * geom.stride + ky - geom.pad;
                        for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++idx) {
                            const std::int64_t ix = ox * geom.stride + kx - geom.pad;
                            row[idx] =
                                iy >= 0 && iy < geom.in_h && ix >= 0 && ix < geom.in_w
                                    ? x[((n * geom.in_ch + c) * geom.in_h + iy) *
                                            geom.in_w +
                                        ix]
                                    : zero_point;
                        }
                    }
            }
}

/// Outputs and gradients of one quantized layer step.
struct LayerStep {
    tensor::Tensor y, gx, gw, gb;
};

namespace detail {

/// Row-major weight codes under the layers' quantization: per-tensor
/// (returned params) or per-output-channel (\p scales / \p zeros filled).
inline kernels::QuantView quantize_weights(const tensor::Tensor& w, std::int64_t o,
                                           unsigned bits, bool per_channel,
                                           std::vector<float>& scales,
                                           std::vector<std::int32_t>& zeros,
                                           kernels::Workspace& ws) {
    const std::int64_t k = w.numel() / o;
    if (!per_channel)
        return kernels::quantize_into(w.data(), w.numel(),
                                      quant::choose_params(w.min(), w.max(), bits),
                                      ws);
    scales.resize(static_cast<std::size_t>(o));
    zeros.resize(static_cast<std::size_t>(o));
    return kernels::quantize_weights_per_channel(w.data(), o, k, bits, scales.data(),
                                                 zeros.data(), ws);
}

/// The layers' backward epilogue: clamp-masked s_x-scaled weight gradient
/// accumulated into a zero gradient, clamp-masked activation gradient.
inline void apply_masks(const kernels::QuantView& wq, const kernels::QuantView& xq,
                        const float* gw_raw, float* gx_raw, tensor::Tensor& gw) {
    for (std::int64_t i = 0; i < gw.numel(); ++i)
        if (wq.in_range[i]) gw[i] += xq.params.scale * gw_raw[i];
    for (std::int64_t i = 0; i < xq.size; ++i)
        if (!xq.in_range[i]) gx_raw[i] = 0.0f;
}

} // namespace detail

/// One quantized ApproxConv2d step (forward of \p x, backward of \p gy)
/// rebuilt over row-major codes: float im2col, row-major quantization under
/// the layer's rules (activations under \p xparams, the freshly observed
/// range), naive GEMMs, and the layer's epilogues, scatter and col2im.
inline LayerStep reference_conv(const approx::ApproxConv2d& conv,
                                const approx::MultiplierConfig& mult,
                                const quant::QuantParams& xparams,
                                const tensor::Tensor& x, const tensor::Tensor& gy) {
    const tensor::ConvGeom geom{x.dim(0), conv.in_channels(), x.dim(2), x.dim(3),
                                conv.kernel(), conv.stride(), conv.padding()};
    const std::int64_t o = conv.out_channels(), p = geom.positions(),
                       k = geom.patch();
    const unsigned bits = mult.bits();
    kernels::Workspace ws;
    std::vector<float> scales;
    std::vector<std::int32_t> zeros;
    const kernels::QuantView wq = detail::quantize_weights(
        conv.weight.value, o, bits, conv.per_channel_weights(), scales, zeros, ws);
    const tensor::Tensor cols = kernels::im2col(x, geom);
    const kernels::QuantView xq = kernels::quantize_into(cols.data(), p * k, xparams, ws);

    RowMajorGemm g;
    g.bits = bits;
    g.lut = mult.lut->table().data();
    g.wq = wq.codes;
    g.xq = xq.codes;
    g.o = o;
    g.p = p;
    g.k = k;
    g.scale_w = wq.params.scale;
    g.zero_w = static_cast<std::int32_t>(wq.params.zero_point);
    g.scale_x = xparams.scale;
    g.zero_x = static_cast<std::int32_t>(xparams.zero_point);
    if (conv.per_channel_weights()) {
        g.scale_w_per_o = scales.data();
        g.zero_w_per_o = zeros.data();
    }

    LayerStep out;
    std::vector<float> po(static_cast<std::size_t>(p * o));
    naive_forward(g, conv.bias.value.data(), po.data());
    out.y = tensor::Tensor(tensor::Shape{geom.batch, o, geom.out_h(), geom.out_w()});
    kernels::scatter_positions(po.data(), geom.batch, o, geom.out_h(), geom.out_w(),
                               out.y.data());

    std::vector<float> gyp(static_cast<std::size_t>(p * o));
    kernels::gather_positions(gy.data(), geom.batch, o, geom.out_h(), geom.out_w(),
                              gyp.data());
    out.gb = tensor::Tensor(tensor::Shape{o});
    kernels::accumulate_bias_grad(gyp.data(), p, o, out.gb.data());
    std::vector<float> gw_raw(static_cast<std::size_t>(o * k), 0.0f);
    std::vector<float> gx_raw(static_cast<std::size_t>(p * k), 0.0f);
    naive_backward(g, gyp.data(), mult.grad->dw_table().data(),
                   mult.grad->dx_table().data(), gw_raw.data(), gx_raw.data());
    out.gw = tensor::Tensor(conv.weight.value.shape());
    detail::apply_masks(wq, xq, gw_raw.data(), gx_raw.data(), out.gw);
    out.gx = tensor::Tensor(x.shape());
    kernels::col2im(gx_raw.data(), geom, out.gx.data());
    return out;
}

/// One quantized ApproxLinear step rebuilt over row-major codes.
inline LayerStep reference_linear(const approx::ApproxLinear& lin,
                                  const approx::MultiplierConfig& mult,
                                  const quant::QuantParams& xparams,
                                  const tensor::Tensor& x, const tensor::Tensor& gy) {
    const std::int64_t o = lin.weight.value.dim(0), p = x.dim(0), k = x.dim(1);
    const unsigned bits = mult.bits();
    kernels::Workspace ws;
    std::vector<float> scales;
    std::vector<std::int32_t> zeros;
    const kernels::QuantView wq = detail::quantize_weights(
        lin.weight.value, o, bits, /*per_channel=*/false, scales, zeros, ws);
    const kernels::QuantView xq = kernels::quantize_into(x.data(), p * k, xparams, ws);

    RowMajorGemm g;
    g.bits = bits;
    g.lut = mult.lut->table().data();
    g.wq = wq.codes;
    g.xq = xq.codes;
    g.o = o;
    g.p = p;
    g.k = k;
    g.scale_w = wq.params.scale;
    g.zero_w = static_cast<std::int32_t>(wq.params.zero_point);
    g.scale_x = xparams.scale;
    g.zero_x = static_cast<std::int32_t>(xparams.zero_point);

    LayerStep out;
    out.y = tensor::Tensor(tensor::Shape{p, o});
    naive_forward(g, lin.bias.value.data(), out.y.data());
    out.gb = tensor::Tensor(tensor::Shape{o});
    kernels::accumulate_bias_grad(gy.data(), p, o, out.gb.data());
    std::vector<float> gw_raw(static_cast<std::size_t>(o * k), 0.0f);
    out.gx = tensor::Tensor(tensor::Shape{p, k});
    naive_backward(g, gy.data(), mult.grad->dw_table().data(),
                   mult.grad->dx_table().data(), gw_raw.data(), out.gx.data());
    out.gw = tensor::Tensor(lin.weight.value.shape());
    detail::apply_masks(wq, xq, gw_raw.data(), out.gx.data(), out.gw);
    return out;
}

/// memcmp equality of two float tensors (shape and every bit).
inline bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

} // namespace amret::lutref
