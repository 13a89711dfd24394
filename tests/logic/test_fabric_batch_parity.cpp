// Determinism contract of the one phase engine.  PhaseSystem::simulate
// integrates eq. 13 with num::BatchOde::rk4Lockstep (a term-for-term mirror
// of num::rk4) over compiled Program passes (each signal computed with
// evalSignal's arithmetic and fan-in order), restricted per delay group to a
// dependency cone and split into fixed lane blocks across threads.  So:
//   * Program::eval must equal the recursive reference signalValue bitwise;
//   * the projection (one ppvAt per distinct (latch, unknown) per stage)
//     must equal num::rk4 over a per-connection ppvAt/signalValue RHS;
//   * the result must not depend on the thread count;
//   * the stored grid is the rk4 grid thinned by storeEvery, last point kept.
// EXPECT_EQ on doubles below is deliberate: exact equality, no tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "common/osc_fixture.hpp"
#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "numeric/ode.hpp"
#include "obs/metrics.hpp"
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

TEST(FabricBatchParity, ProjectionMatchesReferenceRk4Bitwise) {
    // Three latches on one model, wired so the PPV dedupe has work to do:
    // latch a injects into (u0, u1, u0), one connection reads a placeholder
    // directly, one reads a latch output directly, and two delays split the
    // connections into two groups.  The reference RHS below calls ppvAt once
    // per connection and evaluates every signal with the recursive
    // signalValue, so it shares no code with simulate's projection.
    const auto& osc = testutil::sharedOsc();
    const core::PpvModel& model = osc.model();
    ASSERT_GE(model.size(), 2u);
    const std::size_t u0 = osc.outputUnknown();
    const std::size_t u1 = (u0 + 1) % model.size();
    const double f1 = testutil::kF1;

    PhaseSystem sys;
    const auto a = sys.addLatch(model, "a");
    const auto b = sys.addLatch(model, "b");
    const auto c = sys.addLatch(model, "c");
    const auto sync = sys.addExternal(
        [f1](double t) { return 300e-6 * std::cos(2.0 * std::numbers::pi * 2.0 * f1 * t); }, "sync");
    const auto data =
        sys.addExternal([f1](double t) { return std::cos(2.0 * std::numbers::pi * f1 * t + 0.3); }, "data");
    const auto fwd = sys.addPlaceholder("fwd");
    const auto mix = sys.addGate({{fwd, 1.0}, {data, 0.5}, {sys.latchOutput(c), -0.25}}, true,
                                 1.0, "mix");
    sys.bindPlaceholder(fwd, sys.addGate({{sys.latchOutput(b), 1.0}, {data, 1.0}}, false, 1.0,
                                         "fwdTarget"));

    struct Conn {
        PhaseSystem::LatchId latch;
        std::size_t unknown;
        PhaseSystem::SignalId signal;
        double gain;
        double delay;
    };
    const std::vector<Conn> conns{
        {a, u0, sync, 1.0, 0.0},
        {a, u1, fwd, 40e-6, 0.25},  // placeholder read directly
        {a, u0, mix, 60e-6, 0.25},
        {b, u0, sync, 1.0, 0.0},
        {b, u0, sys.latchOutput(a), 50e-6, 0.25},  // latch output read directly
        {c, u1, sync, 1.0, 0.0},
        {c, u0, mix, 30e-6, 0.25},
        {c, u1, fwd, 20e-6, 0.0},
    };
    for (const Conn& k : conns) sys.connect(k.latch, k.unknown, k.signal, k.gain, k.delay);

    const num::Vec dphi0{0.05, 0.3, 0.55};
    const double t1 = 10.0 / f1;
    const std::size_t stepsPerCycle = 64;
    const auto res = sys.simulate(f1, 0.0, t1, dphi0, stepsPerCycle, 1);
    ASSERT_TRUE(res.ok);

    const num::OdeRhs reference = [&](double t, const num::Vec& y) {
        num::Vec dydt(y.size());
        for (std::size_t i = 0; i < y.size(); ++i) {
            const core::PpvModel& m = sys.latchModel(static_cast<PhaseSystem::LatchId>(i));
            const double theta = f1 * t + y[i];
            double proj = 0.0;
            for (const Conn& k : conns)
                if (static_cast<std::size_t>(k.latch) == i)
                    proj += m.ppvAt(k.unknown, theta) * k.gain *
                            sys.signalValue(k.signal, t - k.delay / f1, f1, y);
            dydt[i] = (m.f0() - f1) + m.f0() * proj;
        }
        return dydt;
    };
    const auto nSteps =
        static_cast<std::size_t>(std::ceil(t1 * f1 * static_cast<double>(stepsPerCycle)));
    const num::OdeSolution ref = num::rk4(reference, dphi0, 0.0, t1, nSteps);
    ASSERT_TRUE(ref.ok);

    ASSERT_EQ(res.t.size(), ref.t.size());
    for (std::size_t p = 0; p < ref.t.size(); ++p) {
        EXPECT_EQ(res.t[p], ref.t[p]) << "point " << p;
        for (std::size_t i = 0; i < dphi0.size(); ++i) {
            EXPECT_EQ(res.dphi[i][p], ref.y[p][i]) << "latch " << i << " point " << p;
            EXPECT_EQ(res.vout[i][p],
                      model.xsAt(model.outputUnknown(), f1 * ref.t[p] + ref.y[p][i]))
                << "latch " << i << " point " << p;
        }
    }
}

#ifndef PHLOGON_NO_OBS
TEST(FabricBatchParity, PpvTermsCountDistinctUnknowns) {
    // Every fabric latch injects SYNC, S and R into the same unknown: three
    // connections, one PPV evaluation per stage.
    const auto nl = logic::shiftRegister(4);
    logic::FabricCompileOptions opt;
    opt.bitPeriodCycles = 2.0;
    const auto fab = logic::compileFabric(nl, testutil::sharedFsmDesign(),
                                          std::vector<std::vector<int>>{{1}}, opt);
    ASSERT_EQ(fab.sys.latchCount(), 8u);
    auto& reg = obs::MetricsRegistry::instance();
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const std::uint64_t terms0 = reg.counter("batch.fabric.ppvTerms").value();
    const std::uint64_t conns0 = reg.counter("batch.fabric.connections").value();
    const auto res = fab.sys.simulate(testutil::kF1, 0.0, fab.tEnd(), fab.initialDphi, 64, 64);
    const std::uint64_t terms1 = reg.counter("batch.fabric.ppvTerms").value();
    const std::uint64_t conns1 = reg.counter("batch.fabric.connections").value();
    obs::setMetricsEnabled(wasEnabled);
    ASSERT_TRUE(res.ok);
    EXPECT_EQ(terms1 - terms0, 8u);
    EXPECT_EQ(conns1 - conns0, 24u);
}
#endif
