// Breadboard-substitute validation (paper Sec. 5.2, Figs. 18-20): the full
// SPICE-level serial adder — two ring-oscillator latches, op-amp majority
// gates, calibrated couplings — must compute correct sums against the golden
// model, given the carry state it wakes up in.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <utility>

#include "analysis/dcop.hpp"
#include "analysis/transient.hpp"
#include "common/osc_fixture.hpp"
#include "phlogon/serial_adder.hpp"

namespace phlogon {
namespace {

using num::Vec;

struct FsmFixtureData {
    logic::SyncLatchDesign design;  // characterized WITH the FSM loads
    ckt::RingOscSpec spec;          // unloaded builder spec
};

const FsmFixtureData& fsmFixture() {
    static const FsmFixtureData data = [] {
        FsmFixtureData d;
        ckt::RingOscSpec loaded = d.spec;
        loaded.outputLoadsOhms = logic::serialAdderLatchLoads();
        an::PssOptions popt = logic::RingOscCharacterization::defaultPssOptions();
        popt.freqHint = 10.2e3;
        const auto osc = logic::RingOscCharacterization::run(loaded, popt);
        d.design = logic::designSyncLatch(osc.model(), osc.outputUnknown(), osc.f0(), 300e-6);
        return d;
    }();
    return data;
}

/// Decode the phase-logic value of a node near time tc by correlating one
/// reference cycle against REF(1).
int decodeNode(const ckt::Netlist& nl, const an::TransientResult& res,
               const logic::PhaseReference& ref, const std::string& node, double tc) {
    const auto idx = static_cast<std::size_t>(nl.findNode(node));
    double corr = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double t = tc - 1.0 / ref.f1 + i / 200.0 / ref.f1;
        const auto k = static_cast<std::size_t>(
            std::lower_bound(res.t.begin(), res.t.end(), t) - res.t.begin());
        const double v = res.x[std::min(k, res.t.size() - 1)][idx] - ref.vdd / 2.0;
        corr += v * std::cos(2.0 * std::numbers::pi * (ref.f1 * t - ref.dphiPeak + ref.phase1));
    }
    return corr > 0.0 ? 1 : 0;
}

TEST(FsmCircuit, SerialAdderComputesAgainstGolden) {
    const auto& fx = fsmFixture();
    const auto& ref = fx.design.reference;

    const logic::Bits a{0, 1, 1, 0}, b{0, 1, 0, 1};
    ckt::Netlist nl;
    logic::SerialAdderOptions opt;
    opt.bitPeriodCycles = 80;
    const auto sc = logic::buildSerialAdderCircuit(nl, fx.design, fx.spec, a, b, opt);

    ckt::Dae dae(nl);
    const an::DcopResult dc = an::dcOperatingPoint(dae);
    ASSERT_TRUE(dc.ok) << dc.message;
    Vec x0 = dc.x;
    for (const char* n : {"lat1.n1", "lat1.n2", "lat1.n3"})
        x0[static_cast<std::size_t>(nl.findNode(n))] += 0.4;
    for (const char* n : {"lat2.n2", "lat2.n3"})
        x0[static_cast<std::size_t>(nl.findNode(n))] -= 0.4;

    an::TransientOptions topt;
    topt.dt = 1.0 / (ref.f1 * 200.0);
    topt.storeEvery = 4;
    const an::TransientResult res =
        an::transient(dae, x0, 0.0, a.size() * sc.bitPeriod, topt);
    ASSERT_TRUE(res.ok) << res.message;

    // The machine wakes up with an arbitrary carry; decode it in the reset
    // slot (a=b=0 there, so cout is forced to 0 and the carry propagates
    // correctly from slot 1 on).
    const int carry0 = decodeNode(nl, res, ref, sc.q2Node, 0.45 * sc.bitPeriod);
    logic::Bits gc;
    const logic::Bits gs = logic::goldenSerialAdd(a, b, carry0, &gc);

    for (std::size_t k = 0; k < a.size(); ++k) {
        const double tc = (static_cast<double>(k) + 0.45) * sc.bitPeriod;
        EXPECT_EQ(decodeNode(nl, res, ref, sc.sumNode, tc), gs[k]) << "sum, slot " << k;
        EXPECT_EQ(decodeNode(nl, res, ref, sc.coutNode, tc), gc[k]) << "cout, slot " << k;
    }
}

TEST(FsmCircuit, MasterSlaveEdgeBehaviour) {
    // The paper's Fig. 19 oscilloscope check: Q1 takes cout while CLK=1,
    // Q2 takes Q1 while CLK=0.
    const auto& fx = fsmFixture();
    const auto& ref = fx.design.reference;

    const logic::Bits a{0, 1, 1}, b{0, 1, 0};
    ckt::Netlist nl;
    logic::SerialAdderOptions opt;
    opt.bitPeriodCycles = 80;
    const auto sc = logic::buildSerialAdderCircuit(nl, fx.design, fx.spec, a, b, opt);

    ckt::Dae dae(nl);
    const an::DcopResult dc = an::dcOperatingPoint(dae);
    ASSERT_TRUE(dc.ok);
    Vec x0 = dc.x;
    for (const char* n : {"lat1.n1", "lat2.n1"})
        x0[static_cast<std::size_t>(nl.findNode(n))] += 0.4;
    an::TransientOptions topt;
    topt.dt = 1.0 / (ref.f1 * 200.0);
    topt.storeEvery = 4;
    const an::TransientResult res =
        an::transient(dae, x0, 0.0, a.size() * sc.bitPeriod, topt);
    ASSERT_TRUE(res.ok);

    for (std::size_t k = 1; k < a.size(); ++k) {
        // End of slot k (CLK=1 half): Q1 holds cout(k).
        const double tLate = (static_cast<double>(k) + 0.95) * sc.bitPeriod;
        const int coutK = decodeNode(nl, res, ref, sc.coutNode, tLate);
        EXPECT_EQ(decodeNode(nl, res, ref, sc.q1Node, tLate), coutK) << "slot " << k;
        // First half of slot k (CLK=0): Q2 equals Q1.
        const double tEarly = (static_cast<double>(k) + 0.45) * sc.bitPeriod;
        EXPECT_EQ(decodeNode(nl, res, ref, sc.q2Node, tEarly),
                  decodeNode(nl, res, ref, sc.q1Node, tEarly))
            << "slot " << k;
    }
}

TEST(FsmCircuit, DefaultSolverRunsSparseBitwise) {
    // 56 unknowns is above num::kSparseMinUnknowns: the default dcop and
    // transient must run the sparse engine, bitwise what forcing it gives.
    const auto& fx = fsmFixture();
    const auto& ref = fx.design.reference;
    ckt::Netlist nl;
    logic::SerialAdderOptions opt;
    opt.bitPeriodCycles = 80;
    logic::buildSerialAdderCircuit(nl, fx.design, fx.spec, {0, 1}, {0, 1}, opt);
    ckt::Dae dae(nl);
    ASSERT_EQ(dae.size(), 56u);
    ASSERT_GE(dae.size(), num::kSparseMinUnknowns);

    const auto run = [&](num::LinearSolver solver) {
        an::DcopOptions dopt;
        dopt.newton.linearSolver = solver;
        const an::DcopResult dc = an::dcOperatingPoint(dae, dopt);
        EXPECT_TRUE(dc.ok) << dc.message;
        Vec x0 = dc.x;
        for (const char* n : {"lat1.n1", "lat2.n1"})
            x0[static_cast<std::size_t>(nl.findNode(n))] += 0.4;
        an::TransientOptions topt;
        topt.dt = 1.0 / (ref.f1 * 200.0);
        topt.newton.linearSolver = solver;
        return std::pair{dc, an::transient(dae, x0, 0.0, 2.0 / ref.f1, topt)};
    };
    const auto [dcDefault, trDefault] = run(num::LinearSolver::Auto);
    const auto [dcSparse, trSparse] = run(num::LinearSolver::Sparse);
    ASSERT_TRUE(trDefault.ok) << trDefault.message;
    EXPECT_GT(dcDefault.counters.sparseFactorizations, 0u);
    EXPECT_GT(trDefault.counters.sparseFactorizations, 0u);
    EXPECT_EQ(dcDefault.x, dcSparse.x);
    EXPECT_EQ(trDefault.x, trSparse.x);
    EXPECT_EQ(trDefault.counters.luFactorizations, trSparse.counters.luFactorizations);
}

}  // namespace
}  // namespace phlogon
