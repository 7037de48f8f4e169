// Tests for the multiplier generators: every family's gate-level netlist is
// cross-validated against its independent closed-form behavioural model over
// the full input space, plus family-specific error-shape properties.
#include "appmult/appmult.hpp"
#include "multgen/multgen.hpp"
#include "netlist/sim.hpp"
#include "util/bits.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

namespace {

using namespace amret;
using multgen::MultiplierSpec;

void expect_netlist_matches_behavioral(const MultiplierSpec& spec) {
    const auto nl = multgen::build_netlist(spec);
    ASSERT_EQ(nl.num_inputs(), 2u * spec.bits);
    ASSERT_EQ(nl.num_outputs(), 2u * spec.bits);
    const auto lut = appmult::AppMultLut::from_netlist(spec.bits, nl);
    const std::uint64_t n = util::domain_size(spec.bits);
    for (std::uint64_t w = 0; w < n; ++w) {
        for (std::uint64_t x = 0; x < n; ++x) {
            ASSERT_EQ(static_cast<std::uint64_t>(lut(w, x)),
                      multgen::behavioral(spec, w, x))
                << "spec mismatch at w=" << w << " x=" << x;
        }
    }
}

TEST(Multgen, ExactMatchesProductAllWidths) {
    for (unsigned bits : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        const auto spec = multgen::exact_spec(bits);
        const std::uint64_t n = util::domain_size(bits);
        for (std::uint64_t w = 0; w < n; ++w)
            for (std::uint64_t x = 0; x < n; ++x)
                ASSERT_EQ(multgen::behavioral(spec, w, x), w * x);
    }
}

TEST(Multgen, ExactNetlistMatchesProduct8) {
    const auto nl = multgen::build_netlist(multgen::exact_spec(8));
    const auto lut = appmult::AppMultLut::from_netlist(8, nl);
    for (std::uint64_t w = 0; w < 256; ++w)
        for (std::uint64_t x = 0; x < 256; ++x)
            ASSERT_EQ(static_cast<std::uint64_t>(lut(w, x)), w * x);
}

// Parameterized cross-validation over representative specs of each family.
class SpecCrossValidation : public ::testing::TestWithParam<MultiplierSpec> {};

TEST_P(SpecCrossValidation, NetlistEqualsBehavioral) {
    expect_netlist_matches_behavioral(GetParam());
}

std::vector<MultiplierSpec> cross_validation_specs() {
    return {
        multgen::exact_spec(4),
        multgen::exact_spec(6),
        multgen::truncated_spec(6, 3),
        multgen::truncated_spec(6, 4),
        multgen::truncated_spec(7, 6),
        multgen::truncated_spec(8, 8),
        multgen::truncated_comp_spec(6, 4),
        multgen::truncated_comp_spec(7, 7),
        multgen::truncated_comp_spec(8, 9),
        multgen::broken_array_spec(7, 5, 5, 1),
        multgen::broken_array_spec(8, 7, 6, 2),
        multgen::broken_array_spec(6, 0, 3, 2),
        multgen::or_compressed_spec(6, 4),
        multgen::or_compressed_spec(7, 6),
        multgen::or_compressed_spec(8, 9),
        multgen::truncated_or_spec(7, 3, 7),
        multgen::truncated_or_spec(8, 7, 8),
        multgen::truncated_or_spec(6, 2, 5),
    };
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SpecCrossValidation,
                         ::testing::ValuesIn(cross_validation_specs()));

// Perforated specs carry a heap-allocated row list, so a byte dump of the
// spec (gtest's default way to print it) would embed a pointer and name the
// case differently from run to run. They are listed by their knobs instead.
struct PerforatedCase {
    unsigned bits;
    std::vector<unsigned> rows;
    std::int64_t comp;
};

void PrintTo(const PerforatedCase& c, std::ostream* os) {
    *os << "b" << c.bits << "_rows";
    for (unsigned r : c.rows) *os << "_" << r;
    if (c.comp != 0) *os << "_comp" << c.comp;
}

class PerforatedCrossValidation : public ::testing::TestWithParam<PerforatedCase> {};

TEST_P(PerforatedCrossValidation, NetlistEqualsBehavioral) {
    const PerforatedCase& c = GetParam();
    expect_netlist_matches_behavioral(multgen::perforated_spec(c.bits, c.rows, c.comp));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PerforatedCrossValidation,
                         ::testing::Values(PerforatedCase{6, {1}, 0},
                                           PerforatedCase{7, {1}, 0},
                                           PerforatedCase{8, {1, 2}, 0},
                                           PerforatedCase{7, {0, 3}, 64}));

TEST(Multgen, TruncationMatchesPaperFormula) {
    // Fig. 2 / Sec. II-A: error = -sum over dropped pp of 2^(i+j) w_i x_j.
    const auto spec = multgen::truncated_spec(7, 6);
    for (std::uint64_t w = 0; w < 128; w += 5) {
        for (std::uint64_t x = 0; x < 128; x += 3) {
            std::int64_t dropped = 0;
            for (unsigned i = 0; i < 7; ++i)
                for (unsigned j = 0; j < 7; ++j)
                    if (i + j < 6 && util::bit_of(w, i) && util::bit_of(x, j))
                        dropped += std::int64_t{1} << (i + j);
            ASSERT_EQ(multgen::behavioral(spec, w, x),
                      w * x - static_cast<std::uint64_t>(dropped));
        }
    }
}

TEST(Multgen, TruncationErrorAlwaysNonPositive) {
    const auto spec = multgen::truncated_spec(6, 4);
    for (std::uint64_t w = 0; w < 64; ++w)
        for (std::uint64_t x = 0; x < 64; ++x)
            ASSERT_LE(multgen::behavioral(spec, w, x), w * x);
}

TEST(Multgen, PerforationErrorFormula) {
    // Dropping row i removes w_i * 2^i * x.
    const auto spec = multgen::perforated_spec(8, {1, 2});
    for (std::uint64_t w = 0; w < 256; w += 7) {
        for (std::uint64_t x = 0; x < 256; x += 11) {
            const std::uint64_t dropped =
                (util::bit_of(w, 1) * 2ull + util::bit_of(w, 2) * 4ull) * x;
            ASSERT_EQ(multgen::behavioral(spec, w, x), w * x - dropped);
        }
    }
}

TEST(Multgen, PerforationExactWhenRowBitsClear) {
    const auto spec = multgen::perforated_spec(8, {1, 2});
    for (std::uint64_t w = 0; w < 256; ++w) {
        if (util::bit_of(w, 1) || util::bit_of(w, 2)) continue;
        for (std::uint64_t x = 0; x < 256; x += 17)
            ASSERT_EQ(multgen::behavioral(spec, w, x), w * x);
    }
}

TEST(Multgen, CompensationRecentersError) {
    const unsigned bits = 7;
    const auto plain = multgen::truncated_spec(bits, 7);
    const auto comp = multgen::truncated_comp_spec(bits, 7);
    const auto m_plain =
        appmult::measure_error(appmult::AppMultLut(bits, [&](auto w, auto x) {
            return multgen::behavioral(plain, w, x);
        }));
    const auto m_comp =
        appmult::measure_error(appmult::AppMultLut(bits, [&](auto w, auto x) {
            return multgen::behavioral(comp, w, x);
        }));
    // Compensation shrinks both the bias and the NMED.
    EXPECT_LT(std::abs(m_comp.mean_error), std::abs(m_plain.mean_error));
    EXPECT_LT(m_comp.nmed, m_plain.nmed);
}

TEST(Multgen, OrCompressionNeverOverestimatesColumns) {
    // OR of column bits <= their sum, so the result never exceeds exact.
    const auto spec = multgen::or_compressed_spec(7, 6);
    for (std::uint64_t w = 0; w < 128; ++w)
        for (std::uint64_t x = 0; x < 128; x += 3)
            ASSERT_LE(multgen::behavioral(spec, w, x), w * x);
}

TEST(Multgen, OrCompressionExactWhenColumnsSparse) {
    // Multiplying by a power of two gives at most one pp per column.
    const auto spec = multgen::or_compressed_spec(7, 6);
    for (std::uint64_t w = 0; w < 128; ++w)
        for (std::uint64_t x : {1ull, 2ull, 4ull, 8ull})
            ASSERT_EQ(multgen::behavioral(spec, w, x), w * x);
}

TEST(Multgen, BrokenArrayDropsSupersetOfTruncation) {
    const auto ba = multgen::broken_array_spec(8, 7, 6, 2);
    const auto tr = multgen::truncated_spec(8, 7);
    for (std::uint64_t w = 0; w < 256; w += 3)
        for (std::uint64_t x = 0; x < 256; x += 5)
            ASSERT_LE(multgen::behavioral(ba, w, x), multgen::behavioral(tr, w, x));
}

TEST(Multgen, ExpectedDroppedValueMatchesMeasuredBias) {
    const auto spec = multgen::truncated_spec(8, 8);
    const double expected = multgen::expected_dropped_value(spec);
    const auto m = appmult::measure_error(appmult::AppMultLut(
        8, [&](auto w, auto x) { return multgen::behavioral(spec, w, x); }));
    // Mean signed error should be -expected (truncation only removes value).
    EXPECT_NEAR(-m.mean_error, expected, 1e-6);
}

TEST(Multgen, KeepsPpPredicate) {
    auto spec = multgen::truncated_spec(8, 4);
    EXPECT_FALSE(spec.keeps_pp(0, 0));
    EXPECT_FALSE(spec.keeps_pp(1, 2));
    EXPECT_TRUE(spec.keeps_pp(2, 2));
    spec.perforated_rows = {3};
    EXPECT_FALSE(spec.keeps_pp(3, 7));
    spec.broken_row_start = 6;
    spec.broken_col_keep = 2;
    EXPECT_FALSE(spec.keeps_pp(6, 1));
    EXPECT_TRUE(spec.keeps_pp(6, 2));
    EXPECT_TRUE(spec.keeps_pp(5, 1)); // below row_start the rule is inactive
}

TEST(Multgen, IsApproximateFlag) {
    EXPECT_FALSE(multgen::exact_spec(8).is_approximate());
    EXPECT_TRUE(multgen::truncated_spec(8, 1).is_approximate());
    EXPECT_TRUE(multgen::or_compressed_spec(8, 2).is_approximate());
    EXPECT_TRUE(multgen::perforated_spec(8, {0}).is_approximate());
}

TEST(Multgen, GateCountShrinksWithTruncation) {
    const auto exact = multgen::build_netlist(multgen::exact_spec(8));
    const auto rm8 = multgen::build_netlist(multgen::truncated_spec(8, 8));
    EXPECT_LT(rm8.gate_count(), exact.gate_count());
    EXPECT_LT(rm8.area_um2(), exact.area_um2());
}

TEST(Multgen, WrapAroundSemanticsWithLargeCompensation) {
    // Compensation can push small products past 2^(2B); both paths must wrap
    // identically (mod 2^(2B)).
    MultiplierSpec spec = multgen::truncated_spec(4, 0);
    spec.compensation = 200; // 4-bit multiplier, outputs mod 256
    expect_netlist_matches_behavioral(spec);
}

} // namespace

namespace {

TEST(Multgen, TruncatedOrPreservesZeroOperands) {
    // The property that makes this family retrainable where constant
    // compensation is not: a zero operand yields a zero product.
    for (const auto& spec : {multgen::truncated_or_spec(8, 7, 8),
                             multgen::truncated_or_spec(7, 3, 7)}) {
        const std::uint64_t n = amret::util::domain_size(spec.bits);
        for (std::uint64_t v = 0; v < n; ++v) {
            ASSERT_EQ(multgen::behavioral(spec, 0, v), 0u);
            ASSERT_EQ(multgen::behavioral(spec, v, 0), 0u);
        }
    }
}

TEST(Multgen, TruncatedOrBoundedByOrCompressionAlone) {
    // Truncating below the OR region only removes value.
    const auto hybrid = multgen::truncated_or_spec(7, 3, 7);
    const auto plain = multgen::or_compressed_spec(7, 7);
    for (std::uint64_t w = 0; w < 128; w += 3)
        for (std::uint64_t x = 0; x < 128; x += 5)
            ASSERT_LE(multgen::behavioral(hybrid, w, x),
                      multgen::behavioral(plain, w, x));
}

} // namespace
