// Unit tests for amret::util — RNG, argument parsing, tables, bit helpers.
#include "util/args.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace {

using namespace amret::util;

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        if (a() == b()) ++equal;
    EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
    Rng a(77);
    const auto first = a();
    a.reseed(77);
    EXPECT_EQ(a(), first);
}

TEST(Rng, UniformU64InRange) {
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_u64(17), 17u);
}

TEST(Rng, UniformU64CoversAllResidues) {
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_u64(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
    Rng rng(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniform_int(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformDoubleInHalfOpenUnit) {
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
    Rng rng(13);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, ShufflePreservesMultiset) {
    Rng rng(17);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
    auto w = v;
    rng.shuffle(w);
    std::sort(w.begin(), w.end());
    EXPECT_EQ(v, w);
}

TEST(Rng, RandomPermutationIsPermutation) {
    Rng rng(19);
    const auto perm = random_permutation(50, rng);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 50u);
    EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Args, ParsesEqualsAndSpaceForms) {
    // Note: a bare `--flag` greedily consumes a following non-flag token as
    // its value, so positionals must precede it (documented behaviour).
    const char* argv[] = {"prog", "--alpha=3", "--beta", "4", "pos", "--flag"};
    ArgParser args(6, argv);
    EXPECT_EQ(args.get_int("alpha", 0), 3);
    EXPECT_EQ(args.get_int("beta", 0), 4);
    EXPECT_TRUE(args.get_bool("flag", false));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos");
}

TEST(Args, DefaultsWhenAbsent) {
    const char* argv[] = {"prog"};
    ArgParser args(1, argv);
    EXPECT_EQ(args.get("name", "dflt"), "dflt");
    EXPECT_EQ(args.get_int("n", 42), 42);
    EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
    EXPECT_FALSE(args.get_bool("b", false));
    EXPECT_TRUE(args.get_bool("b", true));
}

TEST(Args, EnvFallback) {
    ::setenv("AMRET_TEST_ENVVAR", "99", 1);
    const char* argv[] = {"prog"};
    ArgParser args(1, argv);
    EXPECT_EQ(args.get_int("n", 0, "AMRET_TEST_ENVVAR"), 99);
    // Explicit flag beats the environment.
    const char* argv2[] = {"prog", "--n=7"};
    ArgParser args2(2, argv2);
    EXPECT_EQ(args2.get_int("n", 0, "AMRET_TEST_ENVVAR"), 7);
    ::unsetenv("AMRET_TEST_ENVVAR");
}

TEST(Args, BoolValueForms) {
    const char* argv[] = {"prog", "--a=1", "--b=true", "--c=no", "--d=off"};
    ArgParser args(5, argv);
    EXPECT_TRUE(args.get_bool("a", false));
    EXPECT_TRUE(args.get_bool("b", false));
    EXPECT_FALSE(args.get_bool("c", true));
    EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Table, RendersAlignedColumns) {
    TablePrinter t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    // All lines equal length (aligned box).
    std::size_t line_len = s.find('\n');
    for (std::size_t pos = 0; pos < s.size();) {
        const std::size_t next = s.find('\n', pos);
        if (next == std::string::npos) break;
        EXPECT_EQ(next - pos, line_len);
        pos = next + 1;
    }
}

TEST(Table, NumFormatsDigits) {
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(Csv, EscapesSpecialCharacters) {
    CsvWriter w({"a", "b"});
    w.add_row({"x,y", "he said \"hi\""});
    const std::string s = w.str();
    EXPECT_NE(s.find("\"x,y\""), std::string::npos);
    EXPECT_NE(s.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Csv, SaveAndContent) {
    CsvWriter w({"h"});
    w.add_row({"v"});
    const std::string path = ::testing::TempDir() + "/amret_csv_test.csv";
    EXPECT_TRUE(w.save(path));
}

TEST(Bits, BitOfAndMask) {
    EXPECT_EQ(bit_of(0b1010, 1), 1u);
    EXPECT_EQ(bit_of(0b1010, 2), 0u);
    EXPECT_EQ(mask_of(4), 0xFull);
    EXPECT_EQ(mask_of(0), 0ull);
}

TEST(Bits, DomainSizeAndCeilDiv) {
    EXPECT_EQ(domain_size(8), 256ull);
    EXPECT_EQ(ceil_div(10, 3), 4ull);
    EXPECT_EQ(ceil_div(9, 3), 3ull);
}

TEST(Bits, SignExtend) {
    EXPECT_EQ(sign_extend(0xFF, 8), -1);
    EXPECT_EQ(sign_extend(0x7F, 8), 127);
    EXPECT_EQ(sign_extend(0x80, 8), -128);
    EXPECT_EQ(sign_extend(0b111, 3), -1);
}

} // namespace

#include "util/logging.hpp"

namespace {

using namespace amret::util;

TEST(Logging, ThresholdFiltersLevels) {
    const LogLevel keep = log_level();
    set_log_level(LogLevel::kError);
    EXPECT_EQ(log_level(), LogLevel::kError);
    // These must not crash and must be cheap no-ops below threshold.
    log_debug("dropped ", 1);
    log_info("dropped ", 2.5);
    log_warn("dropped ", "three");
    set_log_level(keep);
}

TEST(Logging, OffSilencesEverything) {
    const LogLevel keep = log_level();
    set_log_level(LogLevel::kOff);
    log_error("this must not appear");
    set_log_level(keep);
    SUCCEED();
}

} // namespace
