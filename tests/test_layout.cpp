// Tests for the blocked (panelized) kernel layouts: pack/unpack round trips
// over every ragged-edge configuration, bitwise identity of the blocked
// LUT-GEMM kernels and of the quantized layers and integer engine against
// the row-major references of lut_reference.hpp (memcmp, not approximate),
// fused im2col panel production against the unfused im2col + pack
// reference, the plan-keyed workspace high-water tracking, and the runtime
// Tuning resolution. Registered at AMRET_THREADS=1 and 8 in CMakeLists.txt:
// the blocked kernels share the runtime determinism contract, so every
// memcmp here is thread-count independent.
#include "amret.hpp"
#include "lut_reference.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

namespace {

using namespace amret;
using kernels::ActPanels;
using kernels::BlockedGemmArgs;
using kernels::PanelPlan;
using kernels::Tuning;
using kernels::WeightPanels;
using kernels::Workspace;
using tensor::ConvGeom;
using tensor::Shape;

// ------------------------------------------------------------ panel plans --

TEST(PanelPlan, RaggedEdgesCoverTheLogicalMatrix) {
    const PanelPlan plan = kernels::make_panel_plan(17, 9, 4, 4);
    EXPECT_EQ(plan.row_blocks(), 5);
    EXPECT_EQ(plan.depth_blocks(), 3);
    EXPECT_EQ(plan.block_rows(4), 1);  // 17 = 4*4 + 1
    EXPECT_EQ(plan.block_depth(2), 1); // 9 = 2*4 + 1
    std::int64_t rows = 0, depth = 0;
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb)
        rows += plan.block_rows(rb);
    for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb)
        depth += plan.block_depth(kb);
    EXPECT_EQ(rows, 17);
    EXPECT_EQ(depth, 9);
    EXPECT_EQ(plan.elems(), 5 * 3 * 16);
}

TEST(PanelPlan, TilesClampToTheMatrixAndKeyIsContentBased) {
    const PanelPlan small = kernels::make_panel_plan(3, 2, 16, 1024);
    EXPECT_EQ(small.tr, 3);
    EXPECT_EQ(small.tk, 2);
    EXPECT_EQ(small.row_blocks(), 1);
    EXPECT_EQ(small.depth_blocks(), 1);
    const PanelPlan a = kernels::make_panel_plan(8, 8, 4, 4);
    const PanelPlan b = kernels::make_panel_plan(8, 8, 4, 4);
    const PanelPlan c = kernels::make_panel_plan(8, 8, 2, 4);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
}

// ------------------------------------------------------- pack round trips --

TEST(PanelPack, RoundTripIsIdentityForAllPaddingConfigs) {
    util::Rng rng(7);
    struct Cfg {
        std::int64_t rows, depth, tr, tk;
    };
    // Exact fits, row rag only, depth rag only, both, single row/column,
    // tiles larger than the matrix, degenerate 1x1 tiles.
    const Cfg cfgs[] = {{8, 8, 4, 4},   {5, 7, 2, 3},  {16, 300, 16, 64},
                        {17, 9, 4, 4},  {1, 40, 4, 8}, {40, 1, 8, 1024},
                        {3, 2, 16, 64}, {9, 11, 1, 1}};
    for (const unsigned bits : {4u, 8u}) {
        for (const Cfg& cfg : cfgs) {
            const PanelPlan plan =
                kernels::make_panel_plan(cfg.rows, cfg.depth, cfg.tr, cfg.tk);
            const std::size_t n =
                static_cast<std::size_t>(cfg.rows * cfg.depth);
            std::vector<std::uint16_t> codes(n);
            for (auto& v : codes)
                v = static_cast<std::uint16_t>(rng.uniform_u64(1u << bits));

            Workspace ws;
            const WeightPanels w =
                kernels::pack_weight_panels(codes.data(), bits, plan, ws);
            std::vector<std::uint16_t> back(n, 0xffffu);
            kernels::unpack_weight_panels(w, bits, back.data());
            EXPECT_EQ(std::memcmp(codes.data(), back.data(),
                                  n * sizeof(std::uint16_t)),
                      0)
                << "weights bits=" << bits << " rows=" << cfg.rows
                << " depth=" << cfg.depth << " tr=" << cfg.tr
                << " tk=" << cfg.tk;

            const ActPanels x =
                kernels::pack_activation_panels(codes.data(), plan, ws);
            std::fill(back.begin(), back.end(), std::uint16_t{0xffffu});
            kernels::unpack_activation_panels(x, back.data());
            EXPECT_EQ(std::memcmp(codes.data(), back.data(),
                                  n * sizeof(std::uint16_t)),
                      0)
                << "acts rows=" << cfg.rows << " depth=" << cfg.depth
                << " tr=" << cfg.tr << " tk=" << cfg.tk;

            // The hoisted Eq. (8) headers must equal the row-major row sums.
            for (std::int64_t r = 0; r < cfg.rows; ++r) {
                std::int64_t want = 0;
                for (std::int64_t kk = 0; kk < cfg.depth; ++kk)
                    want += codes[static_cast<std::size_t>(r * cfg.depth + kk)];
                EXPECT_EQ(w.sum_w[r], want);
                EXPECT_EQ(x.sum_x[r], want);
            }
        }
    }
}

TEST(PanelPack, WeightCodesAreStoredPreShifted) {
    const PanelPlan plan = kernels::make_panel_plan(2, 2, 2, 2);
    const std::uint16_t codes[4] = {1, 2, 3, 4};
    Workspace ws;
    const WeightPanels w = kernels::pack_weight_panels(codes, 8, plan, ws);
    // Panel slot (kk=0, rr=0) holds codes[0] << 8: `lut + slot` is the LUT
    // row base for weight code 1.
    EXPECT_EQ(w.codes[0], static_cast<std::uint32_t>(1) << 8);
    EXPECT_EQ(w.codes[1], static_cast<std::uint32_t>(3) << 8); // rr=1
    EXPECT_EQ(w.codes[2], static_cast<std::uint32_t>(2) << 8); // kk=1
}

// -------------------------------------- blocked kernels vs the reference --

/// Random GEMM operands shared by the row-major reference and the blocked
/// kernels (packed per tile config via lutref::pack_blocked).
struct BlockedRandom {
    appmult::AppMultLut lut;
    core::GradLut grad;
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> gyp;
    std::vector<float> scale_per_o;
    std::vector<std::int32_t> zero_per_o;
    lutref::RowMajorGemm gemm;

    BlockedRandom(unsigned bits, std::int64_t o, std::int64_t p, std::int64_t k,
                  bool per_channel, util::Rng& rng)
        : lut(appmult::AppMultLut::exact(bits)),
          grad(core::build_ste_grad(bits)) {
        wq.resize(static_cast<std::size_t>(o * k));
        xq.resize(static_cast<std::size_t>(p * k));
        gyp.resize(static_cast<std::size_t>(p * o));
        for (auto& v : wq)
            v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
        for (auto& v : xq)
            v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
        // Mix zeros into gyp so the skip path (and its compaction) is hit.
        for (auto& v : gyp)
            v = (rng.uniform_u64(4) == 0) ? 0.0f
                                          : static_cast<float>(rng.normal());
        gemm.bits = bits;
        gemm.lut = lut.table().data();
        gemm.wq = wq.data();
        gemm.xq = xq.data();
        gemm.o = o;
        gemm.p = p;
        gemm.k = k;
        gemm.scale_w = 0.017f;
        gemm.scale_x = 0.031f;
        gemm.zero_w = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        gemm.zero_x = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        if (per_channel) {
            scale_per_o.resize(static_cast<std::size_t>(o));
            zero_per_o.resize(static_cast<std::size_t>(o));
            for (std::int64_t i = 0; i < o; ++i) {
                scale_per_o[static_cast<std::size_t>(i)] =
                    0.005f + 0.01f * static_cast<float>(rng.normal());
                zero_per_o[static_cast<std::size_t>(i)] =
                    static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
            }
            gemm.scale_w_per_o = scale_per_o.data();
            gemm.zero_w_per_o = zero_per_o.data();
        }
    }
};

struct GemmShape {
    std::int64_t o, p, k;
};

// Odd shapes the panel rag must survive: K=1, O=1, P=1, P not a tile
// multiple, and a bulk shape.
constexpr GemmShape kShapes[] = {
    {1, 5, 1}, {7, 1, 40}, {17, 33, 120}, {3, 129, 9}, {32, 40, 300}};

constexpr struct {
    std::int64_t tp, to, tk;
} kPanelTiles[] = {{16, 64, 1024}, {2, 3, 5}, {1, 1, 1}, {8, 4, 7}};

TEST(BlockedKernels, ForwardMatchesScalarOracleBitwise) {
    util::Rng rng(91);
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.o % 2) == 1;
            const BlockedRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            std::vector<float> bias(static_cast<std::size_t>(sh.o));
            for (auto& v : bias) v = static_cast<float>(rng.normal());

            Workspace ws;
            std::vector<float> ref(static_cast<std::size_t>(sh.p * sh.o));
            lutref::naive_forward(g.gemm, bias.data(), ref.data());

            std::vector<float> y(ref.size());
            for (const auto& t : kPanelTiles) {
                ws.reset();
                const BlockedGemmArgs b =
                    lutref::pack_blocked(g.gemm, t.tp, t.to, t.tk, ws);
                std::fill(y.begin(), y.end(), -1.0f);
                kernels::lut_forward_blocked(b, bias.data(), y.data(), ws);
                ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                                      y.size() * sizeof(float)),
                          0)
                    << "bits=" << bits << " o=" << sh.o << " p=" << sh.p
                    << " k=" << sh.k << " tiles=(" << t.tp << "," << t.to
                    << "," << t.tk << ")";
            }
        }
    }
}

TEST(BlockedKernels, BackwardMatchesScalarOracleBitwise) {
    util::Rng rng(92);
    for (const GemmShape& sh : kShapes) {
        const bool per_channel = (sh.p % 2) == 1;
        const BlockedRandom g(8, sh.o, sh.p, sh.k, per_channel, rng);
        const std::size_t nw = static_cast<std::size_t>(sh.o * sh.k);
        const std::size_t nx = static_cast<std::size_t>(sh.p * sh.k);

        std::vector<float> gw_ref(nw, 0.0f), gx_ref(nx, 0.0f);
        lutref::naive_backward(g.gemm, g.gyp.data(), g.grad.dw_table().data(),
                               g.grad.dx_table().data(), gw_ref.data(),
                               gx_ref.data());

        Workspace ws;
        std::vector<float> gw(nw), gx(nx);
        for (const auto& t : kPanelTiles) {
            ws.reset();
            const BlockedGemmArgs b =
                lutref::pack_blocked(g.gemm, t.tp, t.to, t.tk, ws);
            std::fill(gw.begin(), gw.end(), 0.0f);
            std::fill(gx.begin(), gx.end(), 0.0f);
            kernels::lut_backward_blocked(b, g.gyp.data(),
                                          g.grad.pair_table().data(), gw.data(),
                                          gx.data());
            ASSERT_EQ(std::memcmp(gw.data(), gw_ref.data(),
                                  nw * sizeof(float)),
                      0)
                << "gw o=" << sh.o << " p=" << sh.p << " k=" << sh.k
                << " tiles=(" << t.tp << "," << t.to << "," << t.tk << ")";
            ASSERT_EQ(std::memcmp(gx.data(), gx_ref.data(),
                                  nx * sizeof(float)),
                      0)
                << "gx o=" << sh.o << " p=" << sh.p << " k=" << sh.k
                << " tiles=(" << t.tp << "," << t.to << "," << t.tk << ")";
        }
    }
}

// -------------------------------------------------- fused im2col packing --

TEST(FusedIm2col, U8PanelsMatchUnfusedIm2colPlusPack) {
    util::Rng rng(17);
    const ConvGeom geoms[] = {
        {2, 3, 8, 8, 3, 1, 1},  // same-pad 3x3
        {1, 4, 7, 5, 3, 2, 0},  // strided valid
        {3, 1, 6, 6, 2, 2, 1},  // even kernel, odd rag
    };
    for (const ConvGeom& geom : geoms) {
        const std::size_t img =
            static_cast<std::size_t>(geom.batch * geom.in_ch * geom.in_h *
                                     geom.in_w);
        std::vector<std::uint8_t> x(img);
        for (auto& v : x) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
        const std::uint16_t zp =
            static_cast<std::uint16_t>(rng.uniform_u64(256));
        const PanelPlan plan = kernels::make_panel_plan(
            geom.positions(), geom.patch(), 16, 64);

        // Reference: full NCHW im2col buffer, then the plain packer.
        Workspace ws;
        std::vector<std::uint16_t> cols(
            static_cast<std::size_t>(geom.positions() * geom.patch()));
        lutref::im2col_u8(x.data(), geom, zp, cols.data());
        const ActPanels want =
            kernels::pack_activation_panels(cols.data(), plan, ws);

        // The fused packer reads the NHWC interleave of the same image.
        std::vector<std::uint8_t> nhwc(img);
        for (std::int64_t n = 0; n < geom.batch; ++n)
            for (std::int64_t c = 0; c < geom.in_ch; ++c)
                for (std::int64_t yy = 0; yy < geom.in_h; ++yy)
                    for (std::int64_t xx = 0; xx < geom.in_w; ++xx)
                        nhwc[static_cast<std::size_t>(
                            ((n * geom.in_h + yy) * geom.in_w + xx) *
                                geom.in_ch +
                            c)] =
                            x[static_cast<std::size_t>(
                                ((n * geom.in_ch + c) * geom.in_h + yy) *
                                    geom.in_w +
                                xx)];
        const ActPanels got =
            kernels::pack_im2col_panels_u8(nhwc.data(), geom, zp, plan, ws);
        ASSERT_EQ(std::memcmp(got.codes, want.codes,
                              static_cast<std::size_t>(plan.elems()) *
                                  sizeof(std::uint16_t)),
                  0);
        ASSERT_EQ(std::memcmp(got.sum_x, want.sum_x,
                              static_cast<std::size_t>(plan.rows) *
                                  sizeof(std::int64_t)),
                  0);
    }
}

TEST(FusedIm2col, QuantizePanelsMatchUnfusedFloatPath) {
    util::Rng rng(18);
    const ConvGeom geom{2, 3, 9, 7, 3, 1, 1};
    const std::size_t img = static_cast<std::size_t>(
        geom.batch * geom.in_ch * geom.in_h * geom.in_w);
    std::vector<float> x(img);
    for (auto& v : x) v = static_cast<float>(rng.normal());
    const quant::QuantParams params = quant::choose_params(-2.5f, 2.5f, 8);
    const std::int64_t positions = geom.positions(), patch = geom.patch();
    const PanelPlan plan = kernels::make_panel_plan(positions, patch, 8, 16);

    // Reference: unfused float im2col, then the fused row-major quantizer.
    Workspace ws;
    std::vector<float> cols(static_cast<std::size_t>(positions * patch));
    kernels::im2col(x.data(), geom, cols.data());
    std::vector<std::uint8_t> mask_want(cols.size(), 2);
    const ActPanels want = kernels::quantize_into_panels(
        cols.data(), params, plan, mask_want.data(), ws);

    std::vector<std::uint8_t> mask_got(cols.size(), 3);
    const ActPanels got = kernels::quantize_im2col_panels(
        x.data(), geom, params, plan, mask_got.data(), ws);

    EXPECT_EQ(std::memcmp(got.codes, want.codes,
                          static_cast<std::size_t>(plan.elems()) *
                              sizeof(std::uint16_t)),
              0);
    EXPECT_EQ(std::memcmp(got.sum_x, want.sum_x,
                          static_cast<std::size_t>(plan.rows) *
                              sizeof(std::int64_t)),
              0);
    EXPECT_EQ(std::memcmp(mask_got.data(), mask_want.data(), mask_want.size()),
              0);
    // And the codes really are the quantized column matrix.
    std::vector<std::uint16_t> back(cols.size());
    kernels::unpack_activation_panels(got, back.data());
    for (std::size_t i = 0; i < cols.size(); ++i)
        ASSERT_EQ(back[i],
                  static_cast<std::uint16_t>(params.quantize(cols[i])));
}

// ----------------------------------- layers vs the row-major reference ---

/// Forward + backward of a fresh quantized layer in training mode (its
/// activation observer sees \p x once, as the reference's does).
template <class Layer>
lutref::LayerStep run_layer(Layer& layer, const tensor::Tensor& x,
                            const tensor::Tensor& gy) {
    nn::Context ctx;
    layer.set_mode(approx::ComputeMode::kQuantized);
    layer.set_training(true);
    lutref::LayerStep run;
    run.y = layer.forward(x, ctx);
    layer.zero_grad();
    run.gx = layer.backward(gy, ctx);
    run.gw = layer.weight.grad;
    run.gb = layer.bias.grad;
    return run;
}

quant::QuantParams observed_params(const tensor::Tensor& x, unsigned bits) {
    quant::EmaObserver observer;
    observer.observe(x);
    return observer.params(bits);
}

void expect_same_step(const lutref::LayerStep& got, const lutref::LayerStep& want,
                      const std::string& what) {
    EXPECT_TRUE(lutref::bitwise_equal(got.y, want.y)) << "forward " << what;
    EXPECT_TRUE(lutref::bitwise_equal(got.gx, want.gx)) << "gx " << what;
    EXPECT_TRUE(lutref::bitwise_equal(got.gw, want.gw)) << "gw " << what;
    EXPECT_TRUE(lutref::bitwise_equal(got.gb, want.gb)) << "gb " << what;
}

// The panel layout the layers run on must reproduce the row-major reference
// step bit for bit, under any panel tiles.
TEST(LayerLayout, QuantizedConvIsBitwiseIdenticalAcrossLayouts) {
    util::Rng rng(77);
    // 7x9 input under stride 2: odd output extent, position count not a
    // multiple of any default tile.
    const tensor::Tensor x = tensor::Tensor::randn(Shape{2, 3, 7, 9}, rng);
    const tensor::Tensor gy = tensor::Tensor::randn(Shape{2, 5, 4, 5}, rng);
    const approx::MultiplierConfig mult = approx::MultiplierConfig::exact_ste(8);
    const Tuning tilings[] = {Tuning{}, Tuning{2, 3, 5}, Tuning{1, 1, 1}};
    for (const bool per_channel : {false, true}) {
        for (const Tuning& tiles : tilings) {
            Tuning::set_for_test(tiles);
            util::Rng wrng(21);
            approx::ApproxConv2d conv(3, 5, 3, 2, 1, wrng);
            conv.set_multiplier(mult);
            conv.set_per_channel_weights(per_channel);
            const lutref::LayerStep got = run_layer(conv, x, gy);
            Tuning::clear_test_override();
            const lutref::LayerStep want = lutref::reference_conv(
                conv, mult, observed_params(x, 8), x, gy);
            expect_same_step(got, want,
                             "per_channel=" + std::to_string(per_channel) +
                                 " tiles=" + std::to_string(tiles.tp) + "x" +
                                 std::to_string(tiles.to) + "x" +
                                 std::to_string(tiles.tk));
        }
    }
}

TEST(LayerLayout, QuantizedLinearIsBitwiseIdenticalAcrossLayouts) {
    util::Rng rng(78);
    const tensor::Tensor x = tensor::Tensor::randn(Shape{9, 37}, rng);
    const tensor::Tensor gy = tensor::Tensor::randn(Shape{9, 11}, rng);
    const approx::MultiplierConfig mult = approx::MultiplierConfig::exact_ste(8);
    for (const Tuning& tiles : {Tuning{}, Tuning{4, 3, 16}}) {
        Tuning::set_for_test(tiles);
        util::Rng wrng(33);
        approx::ApproxLinear lin(37, 11, wrng);
        lin.set_multiplier(mult);
        const lutref::LayerStep got = run_layer(lin, x, gy);
        Tuning::clear_test_override();
        const lutref::LayerStep want =
            lutref::reference_linear(lin, mult, observed_params(x, 8), x, gy);
        expect_same_step(got, want, "tiles=" + std::to_string(tiles.tp));
    }
}

// ------------------------------------------------ plan-keyed workspace ----

TEST(WorkspacePlans, TrimKeepsTheHotPlanWorkingSet) {
    Workspace ws;
    // Hot model: ~1 MiB epoch under plan key 1.
    ws.begin(1);
    ws.alloc<float>(1 << 18);
    const std::size_t hot = ws.used();
    // Cold model: small epoch under plan key 2.
    ws.begin(2);
    ws.alloc<float>(1 << 10);
    // Idle trim with a low-water mark far below the hot working set: the
    // per-plan high water must win, keeping enough capacity for the hot
    // model's next batch.
    ws.trim(std::size_t{1} << 12);
    EXPECT_GE(ws.plan_high_water(), hot);
    EXPECT_GE(ws.capacity(), hot);
    // The hot model's next epoch fits without regrowing.
    const std::size_t cap = ws.capacity();
    ws.begin(1);
    ws.alloc<float>(1 << 18);
    EXPECT_EQ(ws.capacity(), cap);
    EXPECT_EQ(ws.slab_count(), 1u);
}

TEST(WorkspacePlans, UntrackedTrimKeepsLegacySemantics) {
    Workspace ws;
    for (int round = 0; round < 8; ++round) ws.alloc<float>(1 << 16);
    ws.reset();
    // No begin() calls: plan_high_water() is 0 and trim is exact, as before.
    EXPECT_EQ(ws.plan_high_water(), 0u);
    ws.trim(std::size_t{1} << 16);
    EXPECT_EQ(ws.capacity(), std::size_t{1} << 16);
}

TEST(WorkspacePlans, MidEpochRegrowBumpsTheObsCounter) {
#if defined(AMRET_OBS_DISABLED)
    GTEST_SKIP() << "obs instrumentation compiled out";
#endif
    obs::Counter& regrows = obs::counter("kernels.workspace.regrow");
    Workspace ws;
    ws.alloc<float>(16); // first slab
    const std::int64_t before = regrows.value();
    ws.alloc<float>(1 << 20); // cannot fit: chains a slab mid-epoch
    EXPECT_GE(regrows.value(), before + 1);
    // Steady state after reset: no further regrowth events.
    ws.reset();
    const std::int64_t steady = regrows.value();
    ws.alloc<float>(16);
    ws.alloc<float>(1 << 20);
    EXPECT_EQ(regrows.value(), steady);
}

// ---------------------------------------------------------------- tuning ---

TEST(TuningResolve, EnvOverrideWinsAndRejectsGarbage) {
    ::setenv("AMRET_TILES", "16x8x32", 1);
    Tuning t = Tuning::resolve();
    EXPECT_EQ(t.tp, 16);
    EXPECT_EQ(t.to, 8);
    EXPECT_EQ(t.tk, 32);
    ::setenv("AMRET_TILES", "12,34,56", 1); // comma separators also accepted
    t = Tuning::resolve();
    EXPECT_EQ(t.tp, 12);
    EXPECT_EQ(t.to, 34);
    EXPECT_EQ(t.tk, 56);
    // Malformed and out-of-range picks fall back to the defaults.
    ::setenv("AMRET_TUNING_FILE", "/nonexistent/kernel_tuning.json", 1);
    for (const char* bad : {"garbage", "0x4x4", "4x4", "4x4x0", "4x4x9999999"}) {
        ::setenv("AMRET_TILES", bad, 1);
        t = Tuning::resolve();
        EXPECT_EQ(t.tp, kernels::tune::kTileP) << bad;
        EXPECT_EQ(t.to, kernels::tune::kTileO) << bad;
        EXPECT_EQ(t.tk, kernels::tune::kTileK) << bad;
    }
    ::unsetenv("AMRET_TILES");
    ::unsetenv("AMRET_TUNING_FILE");
}

TEST(TuningResolve, AutoTunerFileFeedsTheDefaults) {
    const char* path = "kernel_tuning_test.json";
    {
        std::ofstream out(path);
        out << "{\n  \"tp\": 4, \"to\": 32, \"tk\": 128,\n"
               "  \"source\": \"bench_micro --tile-sweep\"\n}\n";
    }
    ::unsetenv("AMRET_TILES");
    ::setenv("AMRET_TUNING_FILE", path, 1);
    const Tuning t = Tuning::resolve();
    EXPECT_EQ(t.tp, 4);
    EXPECT_EQ(t.to, 32);
    EXPECT_EQ(t.tk, 128);
    ::unsetenv("AMRET_TUNING_FILE");
    std::remove(path);
}

TEST(TuningOverride, TestOverrideFeedsTileConfigDefaults) {
    // The layers and the engine read their panel tiles from
    // Tuning::current(); the test hook replaces it process-wide.
    Tuning t;
    t.tp = 3;
    t.to = 5;
    t.tk = 7;
    Tuning::set_for_test(t);
    EXPECT_EQ(Tuning::current().tp, 3);
    EXPECT_EQ(Tuning::current().to, 5);
    EXPECT_EQ(Tuning::current().tk, 7);
    Tuning::clear_test_override();
    EXPECT_GE(Tuning::current().tp, 1);
}

// ------------------------------------------------------- engine layouts --

struct EngineFixture {
    std::unique_ptr<nn::Sequential> model;
    data::DatasetPair data;
};

// Small untrained LeNet + synthetic data: the engine's bitwise contract does
// not depend on accuracy, only on the compiled integer parameters.
EngineFixture make_engine_fixture() {
    EngineFixture out;
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.seed = 99;
    out.data = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    out.model = train::make_model("lenet", mc);

    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
    config.grad =
        std::make_shared<core::GradLut>(core::build_ste_grad(8));
    approx::configure_approx_layers(*out.model, config,
                                    approx::ComputeMode::kQuantized);
    out.model->set_training(false);
    return out;
}

// Panel tiles change how the engine's weight panels and fused im2col
// panels are cut; the integer logits must not notice.
TEST(EngineLayout, IntEngineIsBitwiseIdenticalAcrossLayouts) {
    EngineFixture fx = make_engine_fixture();
    data::DataLoader loader(fx.data.test, 16, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    ASSERT_TRUE(loader.next(batch));

    const Tuning tilings[] = {Tuning{}, Tuning{2, 3, 5}, Tuning{1, 1, 1},
                              Tuning{32, 8, 16}};
    std::vector<tensor::Tensor> logits;
    for (const Tuning& tiles : tilings) {
        Tuning::set_for_test(tiles);
        approx::IntInferenceEngine engine(*fx.model, fx.data.train, 48);
        Tuning::clear_test_override();
        ASSERT_NE(engine.certificate(), nullptr);
        EXPECT_TRUE(engine.certificate()->safe);
        logits.push_back(engine.forward(batch.images));
    }
    for (std::size_t i = 1; i < logits.size(); ++i)
        EXPECT_TRUE(lutref::bitwise_equal(logits[i], logits[0]))
            << "engine logits depend on panel tiles " << tilings[i].tp << "x"
            << tilings[i].to << "x" << tilings[i].tk;
}

bool has_check(const analysis::Certificate& cert, const char* name) {
    for (const auto& d : cert.diags)
        if (d.check == name) return true;
    return false;
}

TEST(EngineLayout, AnalyzerCrossChecksThePanelPacking) {
    EngineFixture fx = make_engine_fixture();
    approx::IntInferenceEngine engine(*fx.model, fx.data.train, 48,
                                      approx::SafetyPolicy::kOff);

    analysis::GraphDesc desc = engine.describe();
    std::size_t conv_i = desc.ops.size();
    for (std::size_t i = 0; i < desc.ops.size(); ++i)
        if (desc.ops[i].kind == analysis::OpDesc::Kind::kConv) {
            conv_i = i;
            break;
        }
    ASSERT_LT(conv_i, desc.ops.size());
    analysis::ConvOpDesc& conv = desc.ops[conv_i].conv;
    ASSERT_FALSE(conv.wq_panels.empty());
    ASSERT_GT(conv.panel_tr, 0);
    ASSERT_GT(conv.panel_tk, 0);
    EXPECT_TRUE(analysis::analyze_graph(desc).safe);

    // Panels are derived data: stripping them must not change the content
    // digest (engines that differ only in blocking share a certificate).
    analysis::GraphDesc stripped = desc;
    for (auto& op : stripped.ops) {
        op.conv.wq_panels.clear();
        op.conv.panel_tr = op.conv.panel_tk = 0;
    }
    EXPECT_EQ(analysis::digest(desc), analysis::digest(stripped));

    // A corrupted packed code is caught by the independent re-derivation.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.wq_panels[0] ^= // invariant-ok: deliberate corruption
            1u << bad.ops[conv_i].conv.bits;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "panel-pack-mismatch"));
    }
    // A header that disagrees with the packed codes is caught too.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.sum_w[0] += 1;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "panel-sum-mismatch"));
    }
    // Panel codes without valid tile dims are a malformed description.
    {
        analysis::GraphDesc bad = desc;
        bad.ops[conv_i].conv.panel_tr = 0;
        const analysis::Certificate cert = analysis::analyze_graph(bad);
        EXPECT_FALSE(cert.safe);
        EXPECT_TRUE(has_check(cert, "desc-inconsistent"));
    }
}

} // namespace
