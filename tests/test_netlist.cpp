// Unit tests for the gate-level netlist substrate: cell semantics, netlist
// construction, exhaustive simulation, timing, power, and editing.
#include "netlist/analysis.hpp"
#include "netlist/netlist.hpp"
#include "netlist/serialize.hpp"
#include "netlist/sim.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

namespace {

using namespace amret::netlist;

TEST(Cells, TwoInputTruthTables) {
    const std::uint64_t a = 0b1100, b = 0b1010, m = 0xF;
    EXPECT_EQ(eval_cell(CellType::kAnd2, a, b) & m, 0b1000u);
    EXPECT_EQ(eval_cell(CellType::kOr2, a, b) & m, 0b1110u);
    EXPECT_EQ(eval_cell(CellType::kNand2, a, b) & m, 0b0111u);
    EXPECT_EQ(eval_cell(CellType::kNor2, a, b) & m, 0b0001u);
    EXPECT_EQ(eval_cell(CellType::kXor2, a, b) & m, 0b0110u);
    EXPECT_EQ(eval_cell(CellType::kXnor2, a, b) & m, 0b1001u);
    EXPECT_EQ(eval_cell(CellType::kAndN2, a, b) & m, 0b0100u);
    EXPECT_EQ(eval_cell(CellType::kInv, a, 0) & m, 0b0011u);
    EXPECT_EQ(eval_cell(CellType::kBuf, a, 0) & m, 0b1100u);
}

TEST(Cells, InfoConsistency) {
    for (int i = 0; i < kNumCellTypes; ++i) {
        const auto& info = cell_info(static_cast<CellType>(i));
        EXPECT_NE(info.name, nullptr);
        EXPECT_GE(info.arity, 0);
        EXPECT_LE(info.arity, 2);
        EXPECT_GE(info.area_um2, 0.0);
        EXPECT_GE(info.delay_ps, 0.0);
    }
    // XOR should be the most expensive 2-input cell, NAND the cheapest.
    EXPECT_GT(cell_info(CellType::kXor2).area_um2, cell_info(CellType::kNand2).area_um2);
}

Netlist make_xor_circuit() {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    nl.add_output("y", nl.add_gate(CellType::kXor2, a, b));
    return nl;
}

TEST(Netlist, ConstantsAlwaysPresent) {
    Netlist nl;
    EXPECT_EQ(nl.const0(), 0u);
    EXPECT_EQ(nl.const1(), 1u);
    EXPECT_EQ(nl.num_nodes(), 2u);
    EXPECT_EQ(nl.gate_count(), 0u);
}

TEST(Netlist, ExhaustiveSimMatchesTruthTable) {
    const Netlist nl = make_xor_circuit();
    const auto out = eval_all_patterns(nl);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0b00], 0u);
    EXPECT_EQ(out[0b01], 1u);
    EXPECT_EQ(out[0b10], 1u);
    EXPECT_EQ(out[0b11], 0u);
}

TEST(Netlist, EvalPatternMatchesExhaustive) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const auto fa = nl.full_adder(a, b, c);
    nl.add_output("s", fa.sum);
    nl.add_output("co", fa.carry);
    const auto all = eval_all_patterns(nl);
    for (std::uint64_t p = 0; p < 8; ++p) {
        EXPECT_EQ(eval_pattern(nl, p), all[p]) << "pattern " << p;
    }
}

TEST(Netlist, FullAdderTruthTable) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const auto fa = nl.full_adder(a, b, c);
    nl.add_output("s", fa.sum);
    nl.add_output("co", fa.carry);
    const auto out = eval_all_patterns(nl);
    for (std::uint64_t p = 0; p < 8; ++p) {
        const int ones = __builtin_popcountll(p);
        const std::uint64_t expect = (ones & 1) | ((ones >= 2 ? 1u : 0u) << 1);
        EXPECT_EQ(out[p], expect) << "pattern " << p;
    }
}

TEST(Netlist, HalfAdderTruthTable) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const auto ha = nl.half_adder(a, b);
    nl.add_output("s", ha.sum);
    nl.add_output("co", ha.carry);
    const auto out = eval_all_patterns(nl);
    EXPECT_EQ(out[0b00], 0b00u);
    EXPECT_EQ(out[0b01], 0b01u);
    EXPECT_EQ(out[0b10], 0b01u);
    EXPECT_EQ(out[0b11], 0b10u);
}

TEST(Netlist, SimHandlesManyInputs) {
    // 8 inputs exercise both lane patterns (k < 6) and word patterns (k >= 6).
    Netlist nl;
    std::vector<NetId> in;
    for (int i = 0; i < 8; ++i) in.push_back(nl.add_input("i" + std::to_string(i)));
    NetId acc = in[0];
    for (int i = 1; i < 8; ++i)
        acc = nl.add_gate(CellType::kXor2, acc, in[i]);
    nl.add_output("parity", acc);
    const auto out = eval_all_patterns(nl);
    for (std::uint64_t p = 0; p < 256; ++p)
        EXPECT_EQ(out[p], static_cast<std::uint64_t>(__builtin_popcountll(p) & 1));
}

TEST(Netlist, SignalProbabilities) {
    const Netlist nl = make_xor_circuit();
    const auto sim = simulate_exhaustive(nl);
    // Inputs are uniform; XOR of two uniform bits is 1 half the time.
    const NetId y = nl.outputs()[0].net;
    EXPECT_DOUBLE_EQ(sim.p1[y], 0.5);
    EXPECT_DOUBLE_EQ(sim.p1[nl.const1()], 1.0);
    EXPECT_DOUBLE_EQ(sim.p1[nl.const0()], 0.0);
}

TEST(Netlist, SubstituteRedirectsUses) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId g = nl.add_gate(CellType::kAnd2, a, b);
    const NetId h = nl.add_gate(CellType::kOr2, g, b);
    nl.add_output("y", h);
    nl.substitute(g, nl.const0()); // y = 0 | b = b
    const auto out = eval_all_patterns(nl);
    EXPECT_EQ(out[0b00], 0u);
    EXPECT_EQ(out[0b01], 0u); // pattern bit 0 = a
    EXPECT_EQ(out[0b10], 1u); // pattern bit 1 = b
    EXPECT_EQ(out[0b11], 1u);
}

TEST(Netlist, SweepRemovesDeadLogic) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId live = nl.add_gate(CellType::kAnd2, a, b);
    nl.add_gate(CellType::kXor2, a, b); // dead
    nl.add_output("y", live);
    EXPECT_EQ(nl.gate_count(), 2u);
    const std::size_t removed = nl.sweep();
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(nl.gate_count(), 1u);
    const auto out = eval_all_patterns(nl);
    EXPECT_EQ(out[0b11], 1u);
    EXPECT_EQ(out[0b01], 0u);
}

TEST(Netlist, SweepPreservesFunction) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const auto fa = nl.full_adder(a, b, c);
    nl.add_gate(CellType::kNor2, fa.sum, fa.carry); // dead
    nl.add_output("s", fa.sum);
    nl.add_output("co", fa.carry);
    const auto before = eval_all_patterns(nl);
    nl.sweep();
    const auto after = eval_all_patterns(nl);
    EXPECT_EQ(before, after);
}

TEST(Analysis, CriticalPathPositiveAndMonotone) {
    Netlist shallow = make_xor_circuit();
    Netlist deep;
    const NetId a = deep.add_input("a");
    const NetId b = deep.add_input("b");
    NetId acc = deep.add_gate(CellType::kXor2, a, b);
    for (int i = 0; i < 10; ++i) acc = deep.add_gate(CellType::kXor2, acc, b);
    deep.add_output("y", acc);
    EXPECT_GT(critical_path_ps(shallow), 0.0);
    EXPECT_GT(critical_path_ps(deep), critical_path_ps(shallow));
}

TEST(Analysis, PowerZeroForConstantCircuit) {
    Netlist nl;
    nl.add_input("a");
    nl.add_output("y", nl.const1());
    EXPECT_DOUBLE_EQ(dynamic_power_uw(nl, nullptr), 0.0);
}

TEST(Analysis, PowerPositiveAndScalesWithFrequency) {
    const Netlist nl = make_xor_circuit();
    const double p1 = dynamic_power_uw(nl, nullptr, 1.0);
    const double p2 = dynamic_power_uw(nl, nullptr, 2.0);
    EXPECT_GT(p1, 0.0);
    EXPECT_NEAR(p2, 2.0 * p1, 1e-12);
}

TEST(Analysis, ReportFieldsConsistent) {
    const Netlist nl = make_xor_circuit();
    const auto report = analyze(nl);
    EXPECT_DOUBLE_EQ(report.area_um2, nl.area_um2());
    EXPECT_EQ(report.gates, nl.gate_count());
    EXPECT_GT(report.delay_ps, 0.0);
}

TEST(Verilog, ExportMentionsPortsAndGates) {
    const Netlist nl = make_xor_circuit();
    const std::string v = nl.to_verilog("xor_test");
    EXPECT_NE(v.find("module xor_test"), std::string::npos);
    EXPECT_NE(v.find("input a;"), std::string::npos);
    EXPECT_NE(v.find("output y;"), std::string::npos);
    EXPECT_NE(v.find("^"), std::string::npos);
    EXPECT_NE(v.find("endmodule"), std::string::npos);
}

} // namespace

// ------------------------------------------------------------ serialize --


namespace {

using namespace amret::netlist;

TEST(Serialize, RoundTripPreservesFunctionAndStructure) {
    Netlist nl;
    const NetId a = nl.add_input("a");
    const NetId b = nl.add_input("b");
    const NetId c = nl.add_input("c");
    const auto fa = nl.full_adder(a, b, c);
    nl.add_output("s", fa.sum);
    nl.add_output("co", fa.carry);

    const std::string path = ::testing::TempDir() + "/amret_netlist_rt.bin";
    ASSERT_TRUE(save_netlist(nl, path));
    const auto loaded = load_netlist(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->num_nodes(), nl.num_nodes());
    EXPECT_EQ(loaded->num_inputs(), 3u);
    EXPECT_EQ(loaded->num_outputs(), 2u);
    EXPECT_EQ(loaded->input_name(1), "b");
    EXPECT_EQ(loaded->outputs()[1].name, "co");
    EXPECT_EQ(eval_all_patterns(*loaded), eval_all_patterns(nl));
    EXPECT_DOUBLE_EQ(loaded->area_um2(), nl.area_um2());
    std::remove(path.c_str());
}

TEST(Serialize, LoadMissingFileFails) {
    EXPECT_FALSE(load_netlist("/no/such/netlist.bin").has_value());
}

TEST(Serialize, LoadRejectsCorruptMagic) {
    const std::string path = ::testing::TempDir() + "/amret_netlist_bad.bin";
    {
        std::ofstream f(path, std::ios::binary);
        f << "GARBAGEGARBAGE";
    }
    EXPECT_FALSE(load_netlist(path).has_value());
    std::remove(path.c_str());
}

/// A per-process scratch directory under the gtest temp dir, so parallel
/// ctest processes never share one.
std::filesystem::path scratch_dir(const char* tag) {
    return std::filesystem::path(::testing::TempDir()) /
           (std::string("amret_") + tag + "_" + std::to_string(::getpid()));
}

TEST(Serialize, SaveReplacesExistingFileAtomically) {
    const std::filesystem::path dir = scratch_dir("atomic_save");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "cache.netlist").string();

    // An existing cache entry (XOR) is replaced by a different circuit.
    ASSERT_TRUE(save_netlist(make_xor_circuit(), path));
    Netlist fa;
    const NetId a = fa.add_input("a");
    const NetId b = fa.add_input("b");
    const NetId c = fa.add_input("c");
    const auto sum_carry = fa.full_adder(a, b, c);
    fa.add_output("s", sum_carry.sum);
    fa.add_output("co", sum_carry.carry);
    ASSERT_TRUE(save_netlist(fa, path));

    const auto loaded = load_netlist(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->num_inputs(), 3u);
    EXPECT_EQ(eval_all_patterns(*loaded), eval_all_patterns(fa));
    // The temp file was renamed into place: the target is the only entry.
    std::size_t entries = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(e.path().filename(), "cache.netlist");
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    std::filesystem::remove_all(dir);
}

TEST(Serialize, SaveIntoMissingDirectoryFailsAndCreatesNothing) {
    const std::filesystem::path dir = scratch_dir("missing_dir");
    std::filesystem::remove_all(dir);
    EXPECT_FALSE(save_netlist(make_xor_circuit(), (dir / "x.netlist").string()));
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Serialize, LoadOrBuildBuildsOnceAcrossConcurrentProcesses) {
    const std::filesystem::path dir = scratch_dir("single_flight");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "entry.netlist").string();
    const std::string log = (dir / "builds.log").string();

    // Two processes ask for the same missing entry at once. Each build
    // appends a line to a shared log and holds on long enough that the other
    // process arrives while it is still running.
    pid_t kids[2];
    for (pid_t& kid : kids) {
        kid = ::fork();
        ASSERT_GE(kid, 0);
        if (kid == 0) {
            const Netlist nl = load_or_build(
                path, [](const Netlist& n) { return n.num_outputs() == 1; },
                [&log] {
                    {
                        std::ofstream f(log, std::ios::app);
                        f << ::getpid() << "\n";
                    }
                    std::this_thread::sleep_for(std::chrono::milliseconds(300));
                    return make_xor_circuit();
                });
            ::_exit(nl.num_outputs() == 1 ? 0 : 1);
        }
    }
    for (const pid_t kid : kids) {
        int status = 0;
        ASSERT_EQ(::waitpid(kid, &status, 0), kid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }
    std::ifstream f(log);
    int builds = 0;
    for (std::string line; std::getline(f, line);) ++builds;
    EXPECT_EQ(builds, 1);
    const auto cached = load_netlist(path);
    ASSERT_TRUE(cached.has_value());
    EXPECT_EQ(cached->num_outputs(), 1u);
    std::filesystem::remove_all(dir);
}

} // namespace
