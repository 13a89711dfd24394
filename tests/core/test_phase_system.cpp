#include "core/phase_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "common/osc_fixture.hpp"
#include "core/gae_sweep.hpp"

namespace phlogon::core {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

const PpvModel& model() { return testutil::sharedOsc().model(); }
std::size_t injNode() { return testutil::sharedOsc().outputUnknown(); }

TEST(PhaseSystem, FreeRunningLatchDriftsAtDetuningRate) {
    PhaseSystem sys;
    sys.addLatch(model(), "osc");
    const double f1 = model().f0() * 1.001;
    const double span = 10.0 / f1;
    const auto r = sys.simulate(f1, 0.0, span, num::Vec{0.0});
    ASSERT_TRUE(r.ok);
    // d(dphi)/dt = f0 - f1 with no injections.
    EXPECT_NEAR(r.dphi[0].back(), (model().f0() - f1) * span, 1e-6);
}

TEST(PhaseSystem, SyncInjectionLocksPhase) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const auto sync = sys.addExternal(
        [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    sys.connect(latch, injNode(), sync, 1.0);

    // Compare against the averaged GAE's stable phases.
    const Gae gae(model(), f1, {Injection::tone(injNode(), 100e-6, 2)});
    const auto stable = gae.stableEquilibria();
    ASSERT_EQ(stable.size(), 2u);

    const auto r = sys.simulate(f1, 0.0, 60.0 / f1, num::Vec{stable[0].dphi + 0.06});
    ASSERT_TRUE(r.ok);
    // The non-averaged simulation carries fast ripple and O(g) averaging
    // corrections relative to the averaged GAE equilibrium.
    EXPECT_LT(phaseDistance(r.dphi[0].back(), stable[0].dphi), 0.03);
}

TEST(PhaseSystem, NonAveragedMatchesGaeLockFromBothBasins) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const auto sync = sys.addExternal(
        [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    sys.connect(latch, injNode(), sync, 1.0);
    const Gae gae(model(), f1, {Injection::tone(injNode(), 100e-6, 2)});
    const auto stable = gae.stableEquilibria();
    for (const auto& eq : stable) {
        const auto r = sys.simulate(f1, 0.0, 60.0 / f1, num::Vec{eq.dphi - 0.07});
        ASSERT_TRUE(r.ok);
        EXPECT_LT(phaseDistance(r.dphi[0].back(), eq.dphi), 0.03);
    }
}

TEST(PhaseSystem, GateComputesWeightedSum) {
    PhaseSystem sys;
    const auto a = sys.addExternal([](double) { return 0.5; });
    const auto b = sys.addExternal([](double) { return -0.25; });
    const auto g = sys.addGate({{a, 2.0}, {b, 4.0}}, false, 0.0);
    EXPECT_NEAR(sys.signalValue(g, 0.0, 1.0, {}), 0.0, 1e-12);
    const auto gi = sys.addGate({{a, 1.0}}, true, 0.0);
    EXPECT_NEAR(sys.signalValue(gi, 0.0, 1.0, {}), -0.5, 1e-12);
}

TEST(PhaseSystem, GateClipSaturates) {
    PhaseSystem sys;
    const auto a = sys.addExternal([](double) { return 10.0; });
    const auto g = sys.addGate({{a, 1.0}}, false, 0.5);
    EXPECT_NEAR(sys.signalValue(g, 0.0, 1.0, {}), 0.5, 1e-6);
}

TEST(PhaseSystem, GateRejectsForwardReferences) {
    PhaseSystem sys;
    const auto a = sys.addExternal([](double) { return 0.0; });
    EXPECT_THROW(sys.addGate({{a + 5, 1.0}}), std::invalid_argument);
}

TEST(PhaseSystem, PlaceholderBindingAndLoopDetection) {
    PhaseSystem sys;
    const auto ph = sys.addPlaceholder("fwd");
    const auto a = sys.addExternal([](double) { return 2.0; });
    const auto g = sys.addGate({{ph, 1.0}, {a, 1.0}});
    // Binding the placeholder to a gate that depends on it is a loop.
    EXPECT_THROW(sys.bindPlaceholder(ph, g), std::invalid_argument);
    sys.bindPlaceholder(ph, a);
    EXPECT_NEAR(sys.signalValue(g, 0.0, 1.0, {}), 4.0, 1e-12);
}

TEST(PhaseSystem, UnboundPlaceholderThrowsOnEval) {
    PhaseSystem sys;
    const auto ph = sys.addPlaceholder("fwd");
    EXPECT_THROW(sys.signalValue(ph, 0.0, 1.0, {}), std::logic_error);
}

TEST(PhaseSystem, LatchOutputIsUnitFundamental) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const auto out = sys.latchOutput(latch);
    const double f1 = model().f0();
    // At dphi = 0: peak at theta == dphiPeak, i.e. t = dphiPeak / f1.
    const num::Vec dphi{0.0};
    EXPECT_NEAR(sys.signalValue(out, model().dphiPeak() / f1, f1, dphi), 1.0, 1e-9);
    EXPECT_NEAR(sys.signalValue(out, (model().dphiPeak() + 0.5) / f1, f1, dphi), -1.0, 1e-9);
}

TEST(PhaseSystem, ConnectionDelayShiftsWritePhase) {
    // Delaying the injected tone by d cycles adds d to its phase chi; the
    // lock phase dphi* = offset - chi therefore moves by exactly -d.
    const double f1 = model().f0();
    auto lockWith = [&](double delayCycles) {
        PhaseSystem sys;
        const auto latch = sys.addLatch(model(), "osc");
        const auto toneSig = sys.addExternal(
            [f1](double t) { return 100e-6 * std::cos(kTwoPi * f1 * t); }, "in");
        sys.connect(latch, injNode(), toneSig, 1.0, delayCycles);
        const auto r = sys.simulate(f1, 0.0, 60.0 / f1, num::Vec{0.25});
        EXPECT_TRUE(r.ok);
        return num::wrap01(r.dphi[0].back());
    };
    const double base = lockWith(0.0);
    const double delayed = lockWith(0.2);
    // Each lock carries its own O(g) averaging correction; allow their sum.
    EXPECT_NEAR(phaseDistance(delayed, num::wrap01(base - 0.2)), 0.0, 0.02);
}

TEST(PhaseSystem, VoutReconstructionTracksPhase) {
    PhaseSystem sys;
    sys.addLatch(model(), "osc");
    const double f1 = model().f0();
    const auto r = sys.simulate(f1, 0.0, 2.0 / f1, num::Vec{0.0}, 64, 1);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.vout.size(), 1u);
    ASSERT_EQ(r.vout[0].size(), r.t.size());
    // vout must equal xs evaluated at theta(t).
    for (std::size_t i = 0; i < r.t.size(); i += 16) {
        const double theta = f1 * r.t[i] + r.dphi[0][i];
        EXPECT_NEAR(r.vout[0][i], model().xsAt(model().outputUnknown(), theta), 1e-9);
    }
}

TEST(PhaseSystem, SimulateValidatesArguments) {
    PhaseSystem sys;
    sys.addLatch(model(), "osc");
    EXPECT_THROW(sys.simulate(1.0, 0.0, 1.0, num::Vec{}), std::invalid_argument);
    EXPECT_THROW(sys.simulate(-1.0, 0.0, 1.0, num::Vec{0.0}), std::invalid_argument);
    EXPECT_THROW(sys.simulate(1.0, 1.0, 0.0, num::Vec{0.0}), std::invalid_argument);
}

TEST(PhaseSystem, ConnectValidatesIndices) {
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    EXPECT_THROW(sys.connect(latch, 9999, sys.latchOutput(latch), 1.0), std::invalid_argument);
    EXPECT_THROW(sys.connect(latch, injNode(), 42, 1.0), std::invalid_argument);
    EXPECT_THROW(sys.connect(latch + 1, injNode(), sys.latchOutput(latch), 1.0),
                 std::invalid_argument);
    // The out-of-range message must identify the offending latch and index so
    // a thousand-latch fabric build failure is debuggable.
    try {
        sys.connect(latch, 9999, sys.latchOutput(latch), 1.0);
        FAIL() << "connect accepted an out-of-range unknown index";
    } catch (const std::invalid_argument& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("9999"), std::string::npos) << msg;
        EXPECT_NE(msg.find("osc"), std::string::npos) << msg;
        EXPECT_NE(msg.find("unknown"), std::string::npos) << msg;
    }
}

TEST(PhaseSystem, SharedSignalMemoizationIsBitwiseNeutral) {
    // Two latches driven by the same external signal: the signal is
    // evaluated once per RK stage into the Program's value array and both
    // latches read that one double, so each latch's trajectory must be
    // bitwise identical to a single-latch system with the same drive
    // (simulate uses fixed-step RK4, so the time grids coincide exactly).
    const double f1 = testutil::kF1;
    auto drive = [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); };
    const double start = 0.1;
    const double span = 20.0 / f1;

    PhaseSystem solo;
    const auto l0 = solo.addLatch(model(), "osc");
    solo.connect(l0, injNode(), solo.addExternal(drive, "sync"), 1.0);
    const auto rs = solo.simulate(f1, 0.0, span, num::Vec{start});
    ASSERT_TRUE(rs.ok);

    PhaseSystem duo;
    const auto la = duo.addLatch(model(), "a");
    const auto lb = duo.addLatch(model(), "b");
    const auto sync = duo.addExternal(drive, "sync");
    duo.connect(la, injNode(), sync, 1.0);
    duo.connect(lb, injNode(), sync, 1.0);
    const auto rd = duo.simulate(f1, 0.0, span, num::Vec{start, start});
    ASSERT_TRUE(rd.ok);

    ASSERT_EQ(rd.t.size(), rs.t.size());
    for (std::size_t i = 0; i < rs.t.size(); ++i) {
        EXPECT_EQ(rd.dphi[0][i], rs.dphi[0][i]) << "i=" << i;
        EXPECT_EQ(rd.dphi[1][i], rs.dphi[0][i]) << "i=" << i;
    }
}

TEST(PhaseSystem, RepeatedSimulationsAreBitwiseReproducible) {
    // simulate keeps no state between calls (each builds its own Program,
    // cones and value arrays): re-running it on the same system must change
    // nothing.
    PhaseSystem sys;
    const auto latch = sys.addLatch(model(), "osc");
    const double f1 = testutil::kF1;
    const auto sync = sys.addExternal(
        [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); }, "sync");
    const auto g = sys.addGate({{sync, 1.0}}, false, 0.0);
    sys.connect(latch, injNode(), g, 1.0);
    const auto r1 = sys.simulate(f1, 0.0, 15.0 / f1, num::Vec{0.2});
    const auto r2 = sys.simulate(f1, 0.0, 15.0 / f1, num::Vec{0.2});
    ASSERT_TRUE(r1.ok && r2.ok);
    ASSERT_EQ(r1.t.size(), r2.t.size());
    for (std::size_t i = 0; i < r1.t.size(); ++i)
        EXPECT_EQ(r1.dphi[0][i], r2.dphi[0][i]);
}

TEST(PhaseSystem, UnreadSignalIsNeverEvaluated) {
    // Each delay group's pass covers only the dependency cone of the signals
    // that group reads: an External no connection reaches is never called,
    // and adding it (with a gate on it) leaves the trajectory bitwise equal.
    const double f1 = testutil::kF1;
    auto drive = [f1](double t) { return 100e-6 * std::cos(kTwoPi * 2.0 * f1 * t); };
    int unreadCalls = 0;
    auto run = [&](bool withUnread) {
        PhaseSystem sys;
        const auto latch = sys.addLatch(model(), "osc");
        const auto sync = sys.addExternal(drive, "sync");
        if (withUnread) {
            const auto unread = sys.addExternal(
                [&unreadCalls](double) {
                    ++unreadCalls;
                    return 1.0;
                },
                "unread");
            sys.addGate({{unread, 1.0}, {sync, 1.0}}, false, 0.0, "unreadGate");
        }
        const auto g = sys.addGate({{sync, 1.0}}, false, 0.0);
        sys.connect(latch, injNode(), g, 1.0);
        sys.connect(latch, injNode(), sync, 0.5, 0.2);  // a second delay group
        return sys.simulate(f1, 0.0, 15.0 / f1, num::Vec{0.2});
    };
    const auto base = run(false);
    const auto extra = run(true);
    ASSERT_TRUE(base.ok && extra.ok);
    EXPECT_EQ(unreadCalls, 0);
    EXPECT_EQ(extra.t, base.t);
    EXPECT_EQ(extra.dphi, base.dphi);
    EXPECT_EQ(extra.vout, base.vout);
}

TEST(PhaseSystem, TwoLatchesIndependentWhenUncoupled) {
    PhaseSystem sys;
    sys.addLatch(model(), "a");
    sys.addLatch(model(), "b");
    const double f1 = model().f0() * 1.0005;
    const auto r = sys.simulate(f1, 0.0, 10.0 / f1, num::Vec{0.1, 0.4});
    ASSERT_TRUE(r.ok);
    // Same drift applied to both, initial separation preserved.
    EXPECT_NEAR(r.dphi[1].back() - r.dphi[0].back(), 0.3, 1e-9);
}

}  // namespace
}  // namespace phlogon::core
