// Tests for the runtime-dispatched SIMD LUT-GEMM kernels (kernels/simd):
// dispatch resolution (parse/cap/override semantics of AMRET_SIMD), the
// nibble-packed activation sidecar (format and eligibility), and the bitwise
// contract — every vector kernel's forward, grad-X and grad-W output must
// memcmp-equal the row-major reference (lut_reference.hpp) on every shape,
// including ragged edges, for 4- and 8-bit codes, per-tensor and
// per-channel quantization, at both thread-count extremes (registered at
// AMRET_THREADS=1 and 8 in CMakeLists.txt). The CI simd-dispatch matrix
// additionally re-runs tier-1 under AMRET_SIMD=scalar|ssse3|avx2 so the
// env-var path is exercised end to end, not just through resolve_request().
#include "amret.hpp"

#include "kernels/simd/simd.hpp"
#include "lut_reference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

namespace {

using namespace amret;
using kernels::ActPanels;
using kernels::BlockedGemmArgs;
using kernels::PanelPlan;
using kernels::Workspace;
using kernels::simd::Isa;

/// Every dispatch level this build+machine can actually run (always
/// includes kScalar). Tests sweep these rather than hard-coding levels so
/// the suite passes on machines without AVX-512 (or without AVX at all).
std::vector<Isa> runnable_isas() {
    std::vector<Isa> v{Isa::kScalar};
    for (const Isa isa : {Isa::kSsse3, Isa::kAvx2, Isa::kAvx512})
        if (kernels::simd::supported(isa)) v.push_back(isa);
    return v;
}

/// RAII ISA override so an ASSERT inside a sweep cannot leak a pinned level
/// into later tests.
struct ScopedIsa {
    explicit ScopedIsa(Isa isa) { kernels::simd::set_isa_for_test(isa); }
    ~ScopedIsa() { kernels::simd::clear_isa_override(); }
};

// ------------------------------------------------------------- dispatch --

TEST(SimdDispatch, ParseIsaAcceptsExactlyTheFourLevels) {
    Isa out = Isa::kAvx512;
    EXPECT_TRUE(kernels::simd::parse_isa("scalar", &out));
    EXPECT_EQ(out, Isa::kScalar);
    EXPECT_TRUE(kernels::simd::parse_isa("ssse3", &out));
    EXPECT_EQ(out, Isa::kSsse3);
    EXPECT_TRUE(kernels::simd::parse_isa("avx2", &out));
    EXPECT_EQ(out, Isa::kAvx2);
    EXPECT_TRUE(kernels::simd::parse_isa("avx512", &out));
    EXPECT_EQ(out, Isa::kAvx512);
    for (const char* bad : {"", "AVX2", "sse", "avx", "avx512vl", "neon"}) {
        Isa untouched = Isa::kSsse3;
        EXPECT_FALSE(kernels::simd::parse_isa(bad, &untouched)) << bad;
        EXPECT_EQ(untouched, Isa::kSsse3) << bad;
    }
}

TEST(SimdDispatch, ScalarIsAlwaysRunnable) {
    EXPECT_TRUE(kernels::simd::compiled(Isa::kScalar));
    EXPECT_TRUE(kernels::simd::cpu_supports(Isa::kScalar));
    EXPECT_TRUE(kernels::simd::supported(Isa::kScalar));
    EXPECT_GE(static_cast<int>(kernels::simd::max_supported()),
              static_cast<int>(Isa::kScalar));
    EXPECT_STREQ(kernels::simd::isa_name(Isa::kScalar), "scalar");
}

TEST(SimdDispatch, ResolveRequestIsACapNotAPromise) {
    const Isa best = kernels::simd::max_supported();
    // No request (or an unparseable one) resolves to the machine maximum.
    EXPECT_EQ(kernels::simd::resolve_request(nullptr), best);
    EXPECT_EQ(kernels::simd::resolve_request(""), best);
    EXPECT_EQ(kernels::simd::resolve_request("definitely-not-an-isa"), best);
    // scalar always resolves exactly.
    EXPECT_EQ(kernels::simd::resolve_request("scalar"), Isa::kScalar);
    // Every request resolves to a supported level at or below it, and a
    // supported request resolves to itself — the CI matrix sets AMRET_SIMD
    // unconditionally and relies on exactly this fallback.
    for (const char* name : {"ssse3", "avx2", "avx512"}) {
        Isa req = Isa::kScalar;
        ASSERT_TRUE(kernels::simd::parse_isa(name, &req));
        const Isa got = kernels::simd::resolve_request(name);
        EXPECT_TRUE(kernels::simd::supported(got)) << name;
        EXPECT_LE(static_cast<int>(got), static_cast<int>(req)) << name;
        if (kernels::simd::supported(req)) {
            EXPECT_EQ(got, req) << name;
        }
    }
}

TEST(SimdDispatch, TestOverrideRoundTrips) {
    for (const Isa isa : runnable_isas()) {
        kernels::simd::set_isa_for_test(isa);
        EXPECT_EQ(kernels::simd::select(), isa);
    }
    kernels::simd::clear_isa_override();
    EXPECT_TRUE(kernels::simd::supported(kernels::simd::select()));
}

// ------------------------------------------------- nibble-packed sidecar --

TEST(Packed4, SidecarMatchesTheDocumentedByteFormat) {
    util::Rng rng(41);
    // Ragged depth and row rag over a 16-row panel: pads must pack as 0.
    const std::int64_t rows = 21, depth = 10;
    const PanelPlan plan = kernels::make_panel_plan(rows, depth, 16, 4);
    ASSERT_EQ(plan.tr % 16, 0);
    std::vector<std::uint16_t> codes(static_cast<std::size_t>(rows * depth));
    for (auto& v : codes) v = static_cast<std::uint16_t>(rng.uniform_u64(16));

    Workspace ws;
    ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
    EXPECT_EQ(x.packed4, nullptr) << "plain packer must not auto-attach";
    kernels::attach_packed4(x, 4, ws);
    ASSERT_NE(x.packed4, nullptr);

    // Decode every byte of every panel row back through the documented
    // format and compare against the u16 panel codes (pads included).
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb) {
        for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb) {
            const std::int64_t base = plan.panel_offset(rb, kb); // invariant-ok: packed4 format is defined against panel slots
            const std::uint16_t* panel = x.codes + base;
            const std::uint8_t* packed = x.packed4 + base / 2;
            for (std::int64_t kk = 0; kk < plan.tk; ++kk) {
                for (std::int64_t g0 = 0; g0 < plan.tr; g0 += 16) {
                    for (std::int64_t j = 0; j < 8; ++j) {
                        const std::uint8_t byte =
                            packed[(kk * plan.tr + g0) / 2 + j];
                        ASSERT_EQ(byte & 0x0f, panel[kk * plan.tr + g0 + j]);
                        ASSERT_EQ(byte >> 4, panel[kk * plan.tr + g0 + 8 + j]);
                    }
                }
            }
        }
    }
}

TEST(Packed4, AttachIsSkippedWhenIneligible) {
    util::Rng rng(42);
    std::vector<std::uint16_t> codes(32 * 8);
    for (auto& v : codes) v = static_cast<std::uint16_t>(rng.uniform_u64(16));
    Workspace ws;
    // bits > 4: two codes cannot share a byte.
    {
        const PanelPlan plan = kernels::make_panel_plan(32, 8, 16, 4);
        ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
        kernels::attach_packed4(x, 8, ws);
        EXPECT_EQ(x.packed4, nullptr);
    }
    // tr not a multiple of the 16-lane group width.
    {
        const PanelPlan plan = kernels::make_panel_plan(32, 8, 8, 4);
        ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
        kernels::attach_packed4(x, 4, ws);
        EXPECT_EQ(x.packed4, nullptr);
    }
    // Small matrices clamp tr below 16 (rows=5 -> tr=5).
    {
        const PanelPlan plan = kernels::make_panel_plan(5, 8, 16, 4);
        ActPanels x = kernels::pack_activation_panels(codes.data(), plan, ws);
        kernels::attach_packed4(x, 4, ws);
        EXPECT_EQ(x.packed4, nullptr);
    }
}

// ------------------------------------ vector kernels vs the reference --

/// Random GEMM operands shared by the row-major reference and every
/// dispatch level; packed with the nibble sidecar (lutref::pack_blocked) so
/// 4-bit runs exercise the pshufb path, not just the gather path.
struct SimdRandom {
    appmult::AppMultLut lut;
    core::GradLut grad;
    std::vector<std::uint16_t> wq, xq;
    std::vector<float> gyp;
    std::vector<float> scale_per_o;
    std::vector<std::int32_t> zero_per_o;
    lutref::RowMajorGemm gemm;

    SimdRandom(unsigned bits, std::int64_t o, std::int64_t p, std::int64_t k,
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
        // Mixed-in zeros exercise the sweep's zero-gradient skip.
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
        gemm.scale_w = 0.013f;
        gemm.scale_x = 0.029f;
        gemm.zero_w = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        gemm.zero_x = static_cast<std::int32_t>(rng.uniform_u64(1u << bits));
        if (per_channel) {
            scale_per_o.resize(static_cast<std::size_t>(o));
            zero_per_o.resize(static_cast<std::size_t>(o));
            for (std::int64_t i = 0; i < o; ++i) {
                scale_per_o[static_cast<std::size_t>(i)] =
                    0.004f + 0.02f * static_cast<float>(rng.normal());
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

// Ragged everywhere: single rows/columns, a prime-heavy shape (7x33x19),
// P just over a 16/32-lane boundary, and a bulk shape wide enough to fill
// every vector tail. P >= 16 shapes with tp=16 run the nibble path at 4
// bits; the others prove the eligibility fallbacks stay bitwise too.
constexpr GemmShape kShapes[] = {
    {1, 5, 1}, {7, 33, 19}, {17, 33, 120}, {3, 129, 9}, {32, 40, 300}};

constexpr struct {
    std::int64_t tp, to, tk;
} kTiles[] = {{16, 64, 1024}, {16, 16, 64}, {8, 4, 7}, {2, 3, 5}};

TEST(SimdKernels, ForwardMatchesScalarOracleBitwise) {
    util::Rng rng(101);
    const std::vector<Isa> isas = runnable_isas();
    for (const unsigned bits : {4u, 8u}) {
        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.o % 2) == 1;
            const SimdRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            std::vector<float> bias(static_cast<std::size_t>(sh.o));
            for (auto& v : bias) v = static_cast<float>(rng.normal());

            Workspace ws;
            std::vector<float> ref(static_cast<std::size_t>(sh.p * sh.o));
            lutref::naive_forward(g.gemm, bias.data(), ref.data());

            std::vector<float> y(ref.size());
            for (const auto& t : kTiles) {
                ws.reset();
                const BlockedGemmArgs b = lutref::pack_blocked(
                    g.gemm, t.tp, t.to, t.tk, ws, /*nibbles=*/true);
                for (const Isa isa : isas) {
                    ScopedIsa pin(isa);
                    std::fill(y.begin(), y.end(), -1.0f);
                    kernels::lut_forward_blocked(b, bias.data(), y.data(), ws);
                    ASSERT_EQ(std::memcmp(y.data(), ref.data(),
                                          y.size() * sizeof(float)),
                              0)
                        << kernels::simd::isa_name(isa) << " bits=" << bits
                        << " o=" << sh.o << " p=" << sh.p << " k=" << sh.k
                        << " tiles=(" << t.tp << "," << t.to << "," << t.tk
                        << ")";
                }
            }
        }
    }
}

/// The difference gradient of a perturbed multiplier: negative and
/// fractional entries, with dX != dW at most indices, so a swapped or
/// shifted (dX, dW) pair lane cannot match the oracle.
core::GradLut hostile_difference_grad(unsigned bits) {
    const appmult::AppMultLut noisy(bits, [](std::uint64_t w, std::uint64_t x) {
        return w * x + (((w * 31 + x * 17) * 2654435761u) >> 16) % 23;
    });
    return core::build_difference_grad(noisy, 2);
}

TEST(SimdKernels, BackwardMatchesScalarOracleBitwise) {
    util::Rng rng(102);
    const std::vector<Isa> isas = runnable_isas();
    for (const unsigned bits : {4u, 8u}) {
        const core::GradLut diff = hostile_difference_grad(bits);
        bool negative = false, fractional = false, asymmetric = false;
        for (std::size_t i = 0; i < diff.dx_table().size(); ++i) {
            const float dx = diff.dx_table()[i], dw = diff.dw_table()[i];
            negative = negative || dx < 0.0f || dw < 0.0f;
            fractional = fractional || dx != std::floor(dx);
            asymmetric = asymmetric || dx != dw;
        }
        ASSERT_TRUE(negative && fractional && asymmetric)
            << "bits=" << bits << " negative=" << negative
            << " fractional=" << fractional << " asymmetric=" << asymmetric;

        for (const GemmShape& sh : kShapes) {
            const bool per_channel = (sh.p % 2) == 1;
            SimdRandom g(bits, sh.o, sh.p, sh.k, per_channel, rng);
            // Every fourth gradient row entirely zero (the sweep skips every
            // channel of the row) and -0.0f entries, which the oracle skips
            // like +0.0f.
            for (std::int64_t pp = 1; pp < sh.p; pp += 4)
                std::fill_n(g.gyp.begin() + pp * sh.o, sh.o, 0.0f);
            for (auto& v : g.gyp)
                if (rng.uniform_u64(8) == 0) v = -0.0f;
            const std::size_t nw = static_cast<std::size_t>(sh.o * sh.k);
            const std::size_t nx = static_cast<std::size_t>(sh.p * sh.k);

            for (const core::GradLut* table : {&std::as_const(g.grad), &diff}) {
                const char* table_name = table == &diff ? "diff" : "ste";
                std::vector<float> gw_ref(nw, 0.0f), gx_ref(nx, 0.0f);
                lutref::naive_backward(g.gemm, g.gyp.data(),
                                       table->dw_table().data(),
                                       table->dx_table().data(), gw_ref.data(),
                                       gx_ref.data());

                Workspace ws;
                std::vector<float> gw(nw), gx(nx);
                for (const auto& t : kTiles) {
                    ws.reset();
                    const BlockedGemmArgs b = lutref::pack_blocked(
                        g.gemm, t.tp, t.to, t.tk, ws, /*nibbles=*/true);
                    for (const Isa isa : isas) {
                        ScopedIsa pin(isa);
                        std::fill(gw.begin(), gw.end(), 0.0f);
                        std::fill(gx.begin(), gx.end(), 0.0f);
                        kernels::lut_backward_blocked(b, g.gyp.data(),
                                                      table->pair_table().data(),
                                                      gw.data(), gx.data());
                        ASSERT_EQ(std::memcmp(gw.data(), gw_ref.data(),
                                              nw * sizeof(float)),
                                  0)
                            << "gw " << kernels::simd::isa_name(isa) << " "
                            << table_name << " bits=" << bits << " o=" << sh.o
                            << " p=" << sh.p << " k=" << sh.k << " tiles=("
                            << t.tp << "," << t.to << "," << t.tk << ")";
                        ASSERT_EQ(std::memcmp(gx.data(), gx_ref.data(),
                                              nx * sizeof(float)),
                                  0)
                            << "gx " << kernels::simd::isa_name(isa) << " "
                            << table_name << " bits=" << bits << " o=" << sh.o
                            << " p=" << sh.p << " k=" << sh.k << " tiles=("
                            << t.tp << "," << t.to << "," << t.tk << ")";
                    }
                }
            }
        }
    }
}

// --------------------------------------------- layer / engine level -------

TEST(SimdLayer, QuantizedConvIsBitwiseIdenticalAcrossLayoutsAndIsas) {
    util::Rng rng(103);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{2, 3, 7, 9},
                                                   rng);
    const tensor::Tensor gy = tensor::Tensor::randn(tensor::Shape{2, 5, 4, 5},
                                                    rng);
    const approx::MultiplierConfig mult = approx::MultiplierConfig::exact_ste(8);
    // Reference: the row-major step over the layer's own weights, with the
    // activation range a fresh observer records for x.
    quant::EmaObserver observer;
    observer.observe(x);
    const quant::QuantParams xparams = observer.params(8);

    const kernels::Tuning tilings[] = {kernels::Tuning{},
                                       kernels::Tuning{16, 16, 64}};
    for (const Isa isa : runnable_isas()) {
        ScopedIsa pin(isa);
        for (const kernels::Tuning& tiles : tilings) {
            kernels::Tuning::set_for_test(tiles);
            util::Rng wrng(23); // identical weights every run
            nn::Context ctx;
            approx::ApproxConv2d conv(3, 5, 3, 2, 1, wrng);
            conv.set_multiplier(mult);
            conv.set_mode(approx::ComputeMode::kQuantized);
            conv.set_training(true);
            const tensor::Tensor y = conv.forward(x, ctx);
            conv.zero_grad();
            const tensor::Tensor gx = conv.backward(gy, ctx);
            kernels::Tuning::clear_test_override();

            const lutref::LayerStep ref =
                lutref::reference_conv(conv, mult, xparams, x, gy);
            const std::string at = std::string(kernels::simd::isa_name(isa)) +
                                   " tp=" + std::to_string(tiles.tp);
            ASSERT_TRUE(lutref::bitwise_equal(y, ref.y)) << "y " << at;
            ASSERT_TRUE(lutref::bitwise_equal(gx, ref.gx)) << "gx " << at;
            ASSERT_TRUE(lutref::bitwise_equal(conv.weight.grad, ref.gw))
                << "gw " << at;
            ASSERT_TRUE(lutref::bitwise_equal(conv.bias.grad, ref.gb))
                << "gb " << at;
        }
    }
}

TEST(SimdEngine, IntEngineIsBitwiseIdenticalAcrossIsas) {
    // Small untrained LeNet + synthetic data (the engine contract depends on
    // the compiled integer parameters, not accuracy): the engine inlines the
    // blocked tile template with its own requantize epilogue, so this proves
    // the dispatch seam reaches that consumer too.
    data::SyntheticConfig dc;
    dc.num_classes = 4;
    dc.height = dc.width = 8;
    dc.train_samples = 64;
    dc.test_samples = 32;
    dc.seed = 107;
    const data::DatasetPair ds = data::make_synthetic(dc);

    models::ModelConfig mc;
    mc.in_size = 8;
    mc.num_classes = 4;
    mc.width_mult = 0.5f;
    const auto model = train::make_model("lenet", mc);
    auto& reg = appmult::Registry::instance();
    approx::MultiplierConfig config;
    config.lut = std::make_shared<appmult::AppMultLut>(reg.lut("mul8u_acc"));
    config.grad = std::make_shared<core::GradLut>(core::build_ste_grad(8));
    approx::configure_approx_layers(*model, config,
                                    approx::ComputeMode::kQuantized);
    model->set_training(false);

    data::DataLoader loader(ds.test, 16, /*shuffle=*/false, 0);
    loader.start_epoch();
    data::Batch batch;
    ASSERT_TRUE(loader.next(batch));

    tensor::Tensor ref;
    {
        ScopedIsa pin(Isa::kScalar);
        approx::IntInferenceEngine engine(*model, ds.train, 48);
        ref = engine.forward(batch.images);
    }
    for (const Isa isa : runnable_isas()) {
        ScopedIsa pin(isa);
        approx::IntInferenceEngine engine(*model, ds.train, 48);
        const tensor::Tensor logits = engine.forward(batch.images);
        ASSERT_TRUE(lutref::bitwise_equal(logits, ref))
            << kernels::simd::isa_name(isa);
    }
}

} // namespace
