// Determinism contract of the one phase engine.  PhaseSystem::simulate
// integrates eq. 13 with num::BatchOde::rk4Lockstep (a term-for-term mirror
// of num::rk4) over compiled Program passes (each signal computed with
// evalSignal's arithmetic and fan-in order), restricted per delay group to a
// dependency cone and split into fixed lane blocks across threads.  So:
//   * Program::eval must equal the recursive reference signalValue bitwise;
//   * the result must not depend on the thread count;
//   * the stored grid is the rk4 grid thinned by storeEvery, last point kept.
// EXPECT_EQ on doubles below is deliberate: exact equality, no tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/osc_fixture.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "phlogon/serial_adder.hpp"

using namespace phlogon;
using core::PhaseSystem;

namespace {

/// Exact (bitwise) comparison of two simulation results.
void expectBitwiseEqual(const PhaseSystem::Result& a, const PhaseSystem::Result& b,
                        const char* what) {
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_EQ(a.t.size(), b.t.size()) << what;
    EXPECT_EQ(a.t, b.t) << what << ": time grids differ";
    ASSERT_EQ(a.dphi.size(), b.dphi.size()) << what;
    for (std::size_t i = 0; i < a.dphi.size(); ++i)
        EXPECT_EQ(a.dphi[i], b.dphi[i]) << what << ": latch " << i << " trajectory differs";
    ASSERT_EQ(a.vout.size(), b.vout.size()) << what;
    for (std::size_t i = 0; i < a.vout.size(); ++i)
        EXPECT_EQ(a.vout[i], b.vout[i]) << what << ": latch " << i << " vout differs";
}

/// Program::eval against the recursive evalSignal at seeded random
/// (t, dphi): every signal, bitwise.
void expectProgramMatchesSignalValue(const PhaseSystem& sys, double f1, double tEnd,
                                     const char* what) {
    const PhaseSystem::Program prog(sys);
    std::mt19937_64 rng(0x5EED);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<double> out;
    for (int sample = 0; sample < 16; ++sample) {
        const double t = tEnd * unit(rng);
        num::Vec dphi(sys.latchCount());
        for (double& d : dphi) d = unit(rng);
        prog.eval(t, f1, dphi, out);
        ASSERT_EQ(out.size(), sys.signalCount());
        for (std::size_t id = 0; id < out.size(); ++id)
            EXPECT_EQ(out[id],
                      sys.signalValue(static_cast<PhaseSystem::SignalId>(id), t, f1, dphi))
                << what << ": signal " << id << " at sample " << sample;
    }
}

/// RAII PHLOGON_THREADS override.
struct ScopedThreadsEnv {
    explicit ScopedThreadsEnv(const char* value) {
        const char* old = std::getenv("PHLOGON_THREADS");
        if (old) saved_ = old;
        had_ = old != nullptr;
        setenv("PHLOGON_THREADS", value, 1);
    }
    ~ScopedThreadsEnv() {
        if (had_)
            setenv("PHLOGON_THREADS", saved_.c_str(), 1);
        else
            unsetenv("PHLOGON_THREADS");
    }
    std::string saved_;
    bool had_ = false;
};

}  // namespace

TEST(FabricBatchParity, SerialAdderDecodes) {
    const auto& design = testutil::sharedFsmDesign();
    core::PhaseSystem sys;
    const auto adder =
        buildPhaseSerialAdder(sys, design, {1, 0, 1, 1}, {1, 1, 0, 1});
    const num::Vec dphi0(sys.latchCount(), design.reference.phase0 + 0.02);
    const double t1 = static_cast<double>(adder.nBits) * adder.bitPeriod;

    // 1011 + 1101, LSB first.
    const auto res = sys.simulate(design.f1, 0.0, t1, dphi0, 64, 8);
    ASSERT_TRUE(res.ok);
    const auto [sums, couts] = decodeSerialAdderRun(sys, adder, res, design.reference);
    EXPECT_EQ(sums, (logic::Bits{0, 0, 0, 1}));
    EXPECT_EQ(couts, (logic::Bits{1, 1, 1, 1}));
}

TEST(FabricBatchParity, ProgramMatchesSignalValueBitwise) {
    const auto& design = testutil::sharedFsmDesign();
    {
        // Hand-built FSM: placeholder feedback through the carry flip-flop.
        core::PhaseSystem sys;
        const auto adder = buildPhaseSerialAdder(sys, design, {1, 0, 1, 1}, {1, 1, 0, 1});
        expectProgramMatchesSignalValue(
            sys, design.f1, static_cast<double>(adder.nBits) * adder.bitPeriod, "serial adder");
    }
    // 16-bit registered ripple adder: 34 latches, deep carry cones — the
    // stress case for evaluation order.
    const auto nl = logic::registeredRippleAdder(16);
    const std::vector<std::vector<int>> vectors{
        logic::toBits(0x1B35F | (0x0F0F0ull << 16), 33),  // a, b, cin packed LSB-first
        logic::toBits(0x2AAAA | (0x15555ull << 16), 33),
    };
    const auto fab = logic::compileFabric(nl, design, vectors);
    ASSERT_EQ(fab.sys.latchCount(), 34u);
    expectProgramMatchesSignalValue(fab.sys, testutil::kF1, fab.tEnd(), "ripple16");
}

TEST(FabricBatchParity, ThreadsFromEnvironmentAreBitwiseNeutral) {
    // 140 latches: more than one kLaneBlock, so the projection loop runs
    // as parallel blocks on the pool PHLOGON_THREADS sizes.
    const auto nl = logic::shiftRegister(70);
    logic::FabricCompileOptions opt;
    opt.bitPeriodCycles = 10.0;
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          std::vector<std::vector<int>>{{1}}, opt);
    ASSERT_GT(fab.sys.latchCount(), PhaseSystem::kLaneBlock);
    auto run = [&](const char* threads) {
        ScopedThreadsEnv env(threads);
        return fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 8);
    };
    const auto serial = run("1");
    for (const char* threads : {"2", "4"}) expectBitwiseEqual(serial, run(threads), threads);
}

TEST(FabricBatchParity, UnevenStoreEveryKeepsLastPoint) {
    const auto nl = logic::shiftRegister(1);
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          std::vector<std::vector<int>>{{1}});
    // storeEvery = 7 does not divide the 6400 steps of one 100-cycle slot:
    // the stored grid is steps 0, 7, 14, ... plus the final step, on rk4's
    // t0 + h * i grid.
    const std::size_t storeEvery = 7;
    const auto res =
        fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, storeEvery);
    ASSERT_TRUE(res.ok);
    const auto nSteps =
        static_cast<std::size_t>(std::ceil(fab.tEnd() * testutil::kF1 * 64.0));
    ASSERT_NE(nSteps % storeEvery, 0u);
    const double h = fab.tEnd() / static_cast<double>(nSteps);
    std::vector<double> want;
    for (std::size_t i = 0; i < nSteps; i += storeEvery) want.push_back(h * static_cast<double>(i));
    want.push_back(h * static_cast<double>(nSteps));
    EXPECT_EQ(res.t, want);
    EXPECT_DOUBLE_EQ(res.t.back(), fab.tEnd());
    for (std::size_t i = 0; i < fab.sys.latchCount(); ++i) {
        EXPECT_EQ(res.dphi[i].size(), want.size()) << "latch " << i;
        EXPECT_EQ(res.vout[i].size(), want.size()) << "latch " << i;
    }
}
