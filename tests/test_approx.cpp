// Tests for the approximate layers and LUT GEMM kernels. The central
// invariant: with the EXACT multiplier LUT and STE gradients, the quantized
// integer path must equal a float convolution over fake-quantized tensors,
// in both forward and backward — this pins Eq. (8) and Eq. (9) end to end.
#include "approx/approx_conv.hpp"
#include "kernels/im2col.hpp"
#include "kernels/lut_kernels.hpp"
#include "lut_reference.hpp"
#include "appmult/registry.hpp"
#include "models/models.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using namespace amret;
using approx::ApproxConv2d;
using approx::ApproxLinear;
using approx::ComputeMode;
using approx::MultiplierConfig;
using tensor::Shape;
using tensor::Tensor;

double dot(const Tensor& a, const Tensor& b) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        acc += static_cast<double>(a[i]) * b[i];
    return acc;
}

MultiplierConfig approx_config(const std::string& name, core::GradientMode mode,
                               unsigned hws) {
    auto& reg = appmult::Registry::instance();
    MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut(name));
    config.grad =
        std::make_shared<core::GradLut>(core::build_grad(*config.lut, mode, hws));
    return config;
}

// ------------------------------------------------------------- lut_gemm --

/// Runs the production kernels on row-major operands: packs them into
/// panels under the runtime default tiles.
kernels::BlockedGemmArgs blocked(const lutref::RowMajorGemm& a,
                                 kernels::Workspace& ws) {
    const kernels::Tuning& t = kernels::Tuning::current();
    return lutref::pack_blocked(a, t.tp, t.to, t.tk, ws, /*nibbles=*/true);
}

TEST(LutGemm, ForwardMatchesDequantizedDotProduct) {
    const unsigned bits = 4;
    const auto lut = appmult::AppMultLut::exact(bits);
    const std::int64_t O = 3, P = 2, K = 5;
    std::vector<std::uint16_t> wq = {1, 2, 3, 4, 5, 0, 15, 7, 9, 3, 8, 8, 8, 8, 8};
    std::vector<std::uint16_t> xq = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};

    lutref::RowMajorGemm args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = O;
    args.p = P;
    args.k = K;
    args.scale_w = 0.25f;
    args.scale_x = 0.5f;
    args.zero_w = 7;
    args.zero_x = 4;

    std::vector<float> y(static_cast<std::size_t>(P * O));
    kernels::Workspace ws;
    kernels::lut_forward_blocked(blocked(args, ws), nullptr, y.data(), ws);

    for (std::int64_t p = 0; p < P; ++p) {
        for (std::int64_t o = 0; o < O; ++o) {
            double ref = 0.0;
            for (std::int64_t k = 0; k < K; ++k) {
                const double w = 0.25 * (static_cast<double>(wq[o * K + k]) - 7.0);
                const double x = 0.5 * (static_cast<double>(xq[p * K + k]) - 4.0);
                ref += w * x;
            }
            EXPECT_NEAR(y[static_cast<std::size_t>(p * O + o)], ref, 1e-4)
                << "p=" << p << " o=" << o;
        }
    }
}

TEST(LutGemm, ForwardAddsBias) {
    const unsigned bits = 4;
    const auto lut = appmult::AppMultLut::exact(bits);
    std::vector<std::uint16_t> wq = {0};
    std::vector<std::uint16_t> xq = {0};
    lutref::RowMajorGemm args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = args.p = args.k = 1;
    const float bias = 2.75f;
    float y = 0.0f;
    kernels::Workspace ws;
    kernels::lut_forward_blocked(blocked(args, ws), &bias, &y, ws);
    EXPECT_FLOAT_EQ(y, 2.75f);
}

TEST(LutGemm, BackwardSteMatchesDequantizedOperands) {
    const unsigned bits = 4;
    const auto grad = core::build_ste_grad(bits);
    const auto lut = appmult::AppMultLut::exact(bits);
    const std::int64_t O = 2, P = 3, K = 4;
    std::vector<std::uint16_t> wq = {1, 2, 3, 4, 9, 8, 7, 6};
    std::vector<std::uint16_t> xq = {5, 5, 5, 5, 0, 1, 2, 3, 15, 14, 13, 12};
    std::vector<float> gyp = {1.0f, -2.0f, 0.5f, 0.0f, 3.0f, 1.0f};

    lutref::RowMajorGemm args;
    args.bits = bits;
    args.lut = lut.table().data();
    args.wq = wq.data();
    args.xq = xq.data();
    args.o = O;
    args.p = P;
    args.k = K;
    args.zero_w = 7;
    args.zero_x = 4;

    std::vector<float> gw(static_cast<std::size_t>(O * K), 0.0f);
    std::vector<float> gx(static_cast<std::size_t>(P * K), 0.0f);
    kernels::Workspace ws;
    kernels::lut_backward_blocked(blocked(args, ws), gyp.data(),
                                  grad.pair_table().data(), gw.data(), gx.data());

    // STE raw sums: gw[o,k] = sum_p gyp * (Xq - Zx); gx[p,k] = sum_o gyp * (Wq - Zw).
    for (std::int64_t o = 0; o < O; ++o)
        for (std::int64_t k = 0; k < K; ++k) {
            double ref = 0.0;
            for (std::int64_t p = 0; p < P; ++p)
                ref += gyp[static_cast<std::size_t>(p * O + o)] *
                       (static_cast<double>(xq[p * K + k]) - 4.0);
            EXPECT_NEAR(gw[static_cast<std::size_t>(o * K + k)], ref, 1e-4);
        }
    for (std::int64_t p = 0; p < P; ++p)
        for (std::int64_t k = 0; k < K; ++k) {
            double ref = 0.0;
            for (std::int64_t o = 0; o < O; ++o)
                ref += gyp[static_cast<std::size_t>(p * O + o)] *
                       (static_cast<double>(wq[o * K + k]) - 7.0);
            EXPECT_NEAR(gx[static_cast<std::size_t>(p * K + k)], ref, 1e-4);
        }
}

// ----------------------------------------------- exact-path equivalence --

struct ConvRefResult {
    Tensor y;
    Tensor gw;
    Tensor gx;
    Tensor gb;
};

/// Float conv forward/backward over explicitly fake-quantized tensors —
/// the mathematical reference for the integer path with the exact LUT.
ConvRefResult fake_quant_conv_reference(const Tensor& x, const Tensor& w,
                                        const Tensor& b, const Tensor& gy,
                                        unsigned bits, std::int64_t kernel,
                                        std::int64_t stride, std::int64_t pad) {
    const auto wp = quant::choose_params(w.min(), w.max(), bits);
    const auto xp = quant::choose_params(x.min(), x.max(), bits);
    const Tensor fqw = quant::fake_quantize(w, wp);
    const Tensor fqx = quant::fake_quantize(x, xp);

    tensor::ConvGeom geom{x.dim(0), x.dim(1), x.dim(2), x.dim(3), kernel, stride, pad};
    const Tensor cols = kernels::im2col(fqx, geom);
    const std::int64_t out_ch = w.dim(0);
    const Tensor w2d = fqw.reshaped(Shape{out_ch, geom.patch()});
    Tensor po = tensor::matmul_nt(cols, w2d);
    for (std::int64_t p = 0; p < po.dim(0); ++p)
        for (std::int64_t o = 0; o < out_ch; ++o) po[p * out_ch + o] += b[o];

    ConvRefResult ref;
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    ref.y = Tensor(Shape{geom.batch, out_ch, oh, ow});
    Tensor gyp(Shape{geom.positions(), out_ch});
    for (std::int64_t n = 0; n < geom.batch; ++n)
        for (std::int64_t s = 0; s < oh * ow; ++s)
            for (std::int64_t o = 0; o < out_ch; ++o) {
                ref.y[(n * out_ch + o) * oh * ow + s] = po[(n * oh * ow + s) * out_ch + o];
                gyp[(n * oh * ow + s) * out_ch + o] = gy[(n * out_ch + o) * oh * ow + s];
            }

    ref.gw = tensor::matmul_tn(gyp, cols).reshaped(w.shape());
    ref.gx = kernels::col2im(tensor::matmul(gyp, w2d), geom);
    ref.gb = Tensor(Shape{out_ch});
    for (std::int64_t p = 0; p < gyp.dim(0); ++p)
        for (std::int64_t o = 0; o < out_ch; ++o) ref.gb[o] += gyp[p * out_ch + o];
    return ref;
}

class ExactPathEquivalence : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExactPathEquivalence, QuantizedConvEqualsFakeQuantReference) {
    const unsigned bits = GetParam();
    util::Rng rng(21);
    nn::Context ctx;
    ApproxConv2d conv(3, 4, 3, 1, 1, rng);
    conv.set_multiplier(MultiplierConfig::exact_ste(bits));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_training(true);

    const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor y = conv.forward(x, ctx);
    Tensor gy = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy, ctx);

    const auto ref = fake_quant_conv_reference(x, conv.weight.value, conv.bias.value,
                                               gy, bits, 3, 1, 1);
    ASSERT_EQ(y.shape(), ref.y.shape());
    for (std::int64_t i = 0; i < y.numel(); ++i)
        ASSERT_NEAR(y[i], ref.y[i], 2e-3f) << "forward i=" << i;
    for (std::int64_t i = 0; i < gx.numel(); ++i)
        ASSERT_NEAR(gx[i], ref.gx[i], 2e-3f) << "gx i=" << i;
    for (std::int64_t i = 0; i < conv.weight.grad.numel(); ++i)
        ASSERT_NEAR(conv.weight.grad[i], ref.gw[i], 5e-3f) << "gw i=" << i;
    for (std::int64_t i = 0; i < conv.bias.grad.numel(); ++i)
        ASSERT_NEAR(conv.bias.grad[i], ref.gb[i], 1e-3f) << "gb i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Widths, ExactPathEquivalence, ::testing::Values(6u, 7u, 8u));

TEST(ApproxConv, FloatModeGradCheck) {
    util::Rng rng(22);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 1, 1, rng);
    conv.set_mode(ComputeMode::kFloat);
    Tensor x = Tensor::randn(Shape{1, 2, 4, 4}, rng);

    Tensor y = conv.forward(x, ctx);
    const Tensor proj = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    conv.forward(x, ctx);
    const Tensor gx = conv.backward(proj, ctx);

    const float eps = 1e-2f;
    for (std::int64_t idx : {0, 5, 13, 31}) {
        Tensor xp = x, xm = x;
        xp[idx] += eps;
        xm[idx] -= eps;
        const double numeric =
            (dot(conv.forward(xp, ctx), proj) - dot(conv.forward(xm, ctx), proj)) / (2.0 * eps);
        EXPECT_NEAR(gx[idx], numeric, 2e-2);
    }
}

TEST(ApproxConv, StrideTwoQuantEquivalence) {
    util::Rng rng(23);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 2, 1, rng);
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    const Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
    const Tensor y = conv.forward(x, ctx);
    Tensor gy = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy, ctx);
    const auto ref = fake_quant_conv_reference(x, conv.weight.value, conv.bias.value,
                                               gy, 8, 3, 2, 1);
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref.y[i], 2e-3f);
    for (std::int64_t i = 0; i < gx.numel(); ++i) ASSERT_NEAR(gx[i], ref.gx[i], 2e-3f);
}

TEST(ApproxConv, ApproximateLutChangesForward) {
    util::Rng rng(24);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);

    conv.set_multiplier(MultiplierConfig::exact_ste(7));
    conv.set_mode(ComputeMode::kQuantized);
    const Tensor y_exact = conv.forward(x, ctx);

    conv.set_multiplier(approx_config("mul7u_rm6", core::GradientMode::kSte, 0));
    const Tensor y_approx = conv.forward(x, ctx);

    double max_diff = 0.0;
    for (std::int64_t i = 0; i < y_exact.numel(); ++i)
        max_diff = std::max(max_diff,
                            std::abs(static_cast<double>(y_exact[i]) - y_approx[i]));
    EXPECT_GT(max_diff, 1e-4);
}

TEST(ApproxConv, GradientLutChangesBackwardNotForward) {
    util::Rng rng(25);
    nn::Context ctx;
    ApproxConv2d conv(2, 2, 3, 1, 1, rng);
    const Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);

    conv.set_multiplier(approx_config("mul7u_rm6", core::GradientMode::kSte, 0));
    conv.set_mode(ComputeMode::kQuantized);
    const Tensor y1 = conv.forward(x, ctx);
    Tensor gy(y1.shape());
    gy.fill(1.0f);
    conv.zero_grad();
    conv.backward(gy, ctx);
    const Tensor gw_ste = conv.weight.grad;

    approx::set_gradient_luts(
        conv, std::make_shared<core::GradLut>(core::build_difference_grad(
                  appmult::Registry::instance().lut("mul7u_rm6"), 2)));
    const Tensor y2 = conv.forward(x, ctx);
    conv.zero_grad();
    conv.backward(gy, ctx);
    const Tensor gw_diff = conv.weight.grad;

    for (std::int64_t i = 0; i < y1.numel(); ++i) ASSERT_FLOAT_EQ(y1[i], y2[i]);
    double diff = 0.0;
    for (std::int64_t i = 0; i < gw_ste.numel(); ++i)
        diff += std::abs(static_cast<double>(gw_ste[i]) - gw_diff[i]);
    EXPECT_GT(diff, 1e-5);
}

TEST(ApproxConv, EvalModeFreezesObserver) {
    util::Rng rng(26);
    nn::Context ctx;
    ApproxConv2d conv(1, 1, 3, 1, 1, rng);
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_training(true);
    const Tensor x_small = Tensor::randn(Shape{1, 1, 4, 4}, rng, 0.1f);
    conv.forward(x_small, ctx);

    std::vector<float> state_before;
    conv.save_extra_state(state_before);
    conv.set_training(false);
    const Tensor x_big = Tensor::randn(Shape{1, 1, 4, 4}, rng, 10.0f);
    conv.forward(x_big, ctx);
    std::vector<float> state_after;
    conv.save_extra_state(state_after);
    EXPECT_EQ(state_before, state_after);
}

TEST(ApproxLinear, QuantizedEqualsFakeQuantReference) {
    util::Rng rng(27);
    nn::Context ctx;
    ApproxLinear lin(6, 4, rng);
    lin.set_multiplier(MultiplierConfig::exact_ste(8));
    lin.set_mode(ComputeMode::kQuantized);
    const Tensor x = Tensor::randn(Shape{3, 6}, rng);
    const Tensor y = lin.forward(x, ctx);

    const auto wp = quant::choose_params(lin.weight.value.min(),
                                         lin.weight.value.max(), 8);
    const auto xp = quant::choose_params(x.min(), x.max(), 8);
    const Tensor fqw = quant::fake_quantize(lin.weight.value, wp);
    const Tensor fqx = quant::fake_quantize(x, xp);
    Tensor ref = tensor::matmul_nt(fqx, fqw);
    for (std::int64_t i = 0; i < 3; ++i)
        for (std::int64_t j = 0; j < 4; ++j) ref[i * 4 + j] += lin.bias.value[j];
    for (std::int64_t i = 0; i < y.numel(); ++i) ASSERT_NEAR(y[i], ref[i], 2e-3f);
}

TEST(ApproxLinear, FloatModeMatchesManual) {
    util::Rng rng(28);
    nn::Context ctx;
    ApproxLinear lin(3, 2, rng);
    lin.set_mode(ComputeMode::kFloat);
    const Tensor x = Tensor::randn(Shape{2, 3}, rng);
    const Tensor y = lin.forward(x, ctx);
    Tensor ref = tensor::matmul_nt(x, lin.weight.value);
    for (std::int64_t i = 0; i < 2; ++i)
        for (std::int64_t j = 0; j < 2; ++j) ref[i * 2 + j] += lin.bias.value[j];
    for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-5f);
}

TEST(ConfigureHelpers, ReachEveryApproxLayerInAModel) {
    models::ModelConfig mc;
    mc.in_size = 8;
    mc.width_mult = 0.125f;
    auto model = models::make_resnet(18, mc);

    int count_before = 0;
    model->visit([&](nn::Module& m) {
        if (auto* conv = dynamic_cast<ApproxConv2d*>(&m)) {
            EXPECT_FALSE(conv->multiplier().valid());
            ++count_before;
        }
    });
    EXPECT_GT(count_before, 10);

    approx::configure_approx_layers(*model, MultiplierConfig::exact_ste(7),
                                    ComputeMode::kQuantized);
    model->visit([&](nn::Module& m) {
        if (auto* conv = dynamic_cast<ApproxConv2d*>(&m)) {
            EXPECT_TRUE(conv->multiplier().valid());
            EXPECT_EQ(conv->mode(), ComputeMode::kQuantized);
        }
    });
}

TEST(MultiplierConfig, ValidityChecks) {
    MultiplierConfig empty;
    EXPECT_FALSE(empty.valid());
    const MultiplierConfig ok = MultiplierConfig::exact_ste(8);
    EXPECT_TRUE(ok.valid());
    EXPECT_EQ(ok.bits(), 8u);
    MultiplierConfig mismatched = ok;
    mismatched.grad = std::make_shared<core::GradLut>(core::build_ste_grad(7));
    EXPECT_FALSE(mismatched.valid());
}

} // namespace

namespace {

TEST(PerChannel, ExactPathEqualsPerChannelFakeQuantReference) {
    // Per-channel weight quantization with the exact LUT must equal a float
    // conv over per-channel fake-quantized weights.
    util::Rng rng(31);
    nn::Context ctx;
    ApproxConv2d conv(3, 5, 3, 1, 1, rng);
    // Spread the filter magnitudes so per-channel actually differs from
    // per-tensor.
    for (std::int64_t o = 0; o < 5; ++o) {
        const float gain = 0.2f + 0.6f * static_cast<float>(o);
        for (std::int64_t k = 0; k < 27; ++k) conv.weight.value[o * 27 + k] *= gain;
    }
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_per_channel_weights(true);

    const Tensor x = Tensor::randn(Shape{2, 3, 5, 5}, rng);
    const Tensor y = conv.forward(x, ctx);

    // Reference: fake-quantize each filter independently, then float conv.
    Tensor fqw = conv.weight.value;
    for (std::int64_t o = 0; o < 5; ++o) {
        float lo = fqw[o * 27], hi = fqw[o * 27];
        for (std::int64_t k = 1; k < 27; ++k) {
            lo = std::min(lo, fqw[o * 27 + k]);
            hi = std::max(hi, fqw[o * 27 + k]);
        }
        const auto params = quant::choose_params(lo, hi, 8);
        for (std::int64_t k = 0; k < 27; ++k)
            fqw[o * 27 + k] = params.dequantize(params.quantize(fqw[o * 27 + k]));
    }
    const auto xp = quant::choose_params(x.min(), x.max(), 8);
    const Tensor fqx = quant::fake_quantize(x, xp);
    tensor::ConvGeom geom{2, 3, 5, 5, 3, 1, 1};
    const Tensor cols = kernels::im2col(fqx, geom);
    Tensor po = tensor::matmul_nt(cols, fqw.reshaped(Shape{5, 27}));
    for (std::int64_t p = 0; p < po.dim(0); ++p)
        for (std::int64_t o = 0; o < 5; ++o) po[p * 5 + o] += conv.bias.value[o];

    for (std::int64_t n = 0; n < 2; ++n)
        for (std::int64_t o = 0; o < 5; ++o)
            for (std::int64_t s = 0; s < 25; ++s)
                ASSERT_NEAR(y[(n * 5 + o) * 25 + s], po[(n * 25 + s) * 5 + o], 3e-3f);
}

TEST(PerChannel, ImprovesQuantizationOfSpreadFilters) {
    // When filter magnitudes differ wildly, per-channel quantization must
    // represent the small filters far better than per-tensor.
    util::Rng rng(32);
    nn::Context ctx;
    ApproxConv2d per_tensor(2, 4, 3, 1, 1, rng);
    for (std::int64_t k = 0; k < 18; ++k) {
        per_tensor.weight.value[0 * 18 + k] *= 0.02f; // tiny filter
        per_tensor.weight.value[3 * 18 + k] *= 5.0f;  // huge filter
    }
    ApproxConv2d per_channel(2, 4, 3, 1, 1, rng);
    per_channel.weight.value = per_tensor.weight.value;
    per_channel.bias.value = per_tensor.bias.value;

    per_tensor.set_multiplier(MultiplierConfig::exact_ste(8));
    per_tensor.set_mode(ComputeMode::kQuantized);
    per_channel.set_multiplier(MultiplierConfig::exact_ste(8));
    per_channel.set_mode(ComputeMode::kQuantized);
    per_channel.set_per_channel_weights(true);

    // Float reference output.
    ApproxConv2d ref(2, 4, 3, 1, 1, rng);
    ref.weight.value = per_tensor.weight.value;
    ref.bias.value = per_tensor.bias.value;
    ref.set_mode(ComputeMode::kFloat);

    const Tensor x = Tensor::randn(Shape{1, 2, 6, 6}, rng);
    const Tensor y_ref = ref.forward(x, ctx);
    const Tensor y_pt = per_tensor.forward(x, ctx);
    const Tensor y_pc = per_channel.forward(x, ctx);

    // Compare error on the tiny filter's output channel (channel 0).
    double err_pt = 0.0, err_pc = 0.0;
    for (std::int64_t s = 0; s < 36; ++s) {
        err_pt += std::abs(static_cast<double>(y_pt[s]) - y_ref[s]);
        err_pc += std::abs(static_cast<double>(y_pc[s]) - y_ref[s]);
    }
    EXPECT_LT(err_pc, 0.5 * err_pt);
}

TEST(PerChannel, BackwardStaysConsistentWithFakeQuantReference) {
    util::Rng rng(33);
    nn::Context ctx;
    ApproxConv2d conv(2, 3, 3, 1, 1, rng);
    for (std::int64_t k = 0; k < 18; ++k) conv.weight.value[k] *= 0.1f;
    conv.set_multiplier(MultiplierConfig::exact_ste(8));
    conv.set_mode(ComputeMode::kQuantized);
    conv.set_per_channel_weights(true);

    const Tensor x = Tensor::randn(Shape{1, 2, 5, 5}, rng);
    const Tensor y = conv.forward(x, ctx);
    Tensor gy = Tensor::randn(y.shape(), rng);
    conv.zero_grad();
    const Tensor gx = conv.backward(gy, ctx);

    // The input gradient with the exact multiplier + STE equals the float
    // backward through the per-channel fake-quantized weights.
    Tensor fqw = conv.weight.value;
    for (std::int64_t o = 0; o < 3; ++o) {
        float lo = fqw[o * 18], hi = fqw[o * 18];
        for (std::int64_t k = 1; k < 18; ++k) {
            lo = std::min(lo, fqw[o * 18 + k]);
            hi = std::max(hi, fqw[o * 18 + k]);
        }
        const auto params = quant::choose_params(lo, hi, 8);
        for (std::int64_t k = 0; k < 18; ++k)
            fqw[o * 18 + k] = params.dequantize(params.quantize(fqw[o * 18 + k]));
    }
    tensor::ConvGeom geom{1, 2, 5, 5, 3, 1, 1};
    Tensor gyp(Shape{25, 3});
    for (std::int64_t o = 0; o < 3; ++o)
        for (std::int64_t s = 0; s < 25; ++s) gyp[s * 3 + o] = gy[o * 25 + s];
    const Tensor ref_gx =
        kernels::col2im(tensor::matmul(gyp, fqw.reshaped(Shape{3, 18})), geom);
    for (std::int64_t i = 0; i < gx.numel(); ++i)
        ASSERT_NEAR(gx[i], ref_gx[i], 2e-3f) << i;
}

} // namespace
