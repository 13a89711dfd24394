#include "analysis/pss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/waveform.hpp"
#include "circuit/subckt.hpp"
#include "common/osc_fixture.hpp"
#include "obs/metrics.hpp"

namespace phlogon::an {
namespace {

using num::Vec;

TEST(ShootingPss, ConvergesOnDefaultRingOscillator) {
    const auto& osc = testutil::sharedOsc();
    const PssResult& pss = osc.pss();
    ASSERT_TRUE(pss.ok) << pss.message;
    EXPECT_LT(pss.shootResidual, 1e-7);
    EXPECT_LE(pss.shootIterations, 15);
    // Device parameters were fitted so the prototype runs near the paper's
    // 9.6 kHz.
    EXPECT_NEAR(pss.f0, 9.6e3, 50.0);
}

TEST(ShootingPss, SolutionIsPeriodic) {
    const PssResult& pss = testutil::sharedOsc().pss();
    const Vec& first = pss.xFine.front();
    const Vec& last = pss.xFine.back();
    for (std::size_t i = 0; i < first.size(); ++i) EXPECT_NEAR(first[i], last[i], 1e-6);
}

TEST(ShootingPss, UniformSamplesMatchFineGrid) {
    const PssResult& pss = testutil::sharedOsc().pss();
    ASSERT_FALSE(pss.xs.empty());
    // xs[0] corresponds to t = 0 == xFine[0].
    for (std::size_t i = 0; i < pss.xs[0].size(); ++i)
        EXPECT_NEAR(pss.xs[0][i], pss.xFine[0][i], 1e-9);
}

TEST(ShootingPss, OutputSwingsRailToRail) {
    const auto& osc = testutil::sharedOsc();
    const Vec out = osc.pss().column(osc.outputUnknown());
    EXPECT_LT(*std::min_element(out.begin(), out.end()), 0.3);
    EXPECT_GT(*std::max_element(out.begin(), out.end()), 2.7);
}

TEST(ShootingPss, VddStaysPinned) {
    const auto& osc = testutil::sharedOsc();
    const std::size_t vdd = static_cast<std::size_t>(osc.netlist().findNode("osc.vdd"));
    const Vec v = osc.pss().column(vdd);
    for (double x : v) EXPECT_NEAR(x, 3.0, 1e-9);
}

TEST(ShootingPss, PeriodIndependentOfShootingResolution) {
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    PssOptions coarse, fine;
    coarse.shootingSteps = 200;
    fine.shootingSteps = 600;
    const PssResult rc = shootingPss(dae, coarse);
    const PssResult rf = shootingPss(dae, fine);
    ASSERT_TRUE(rc.ok && rf.ok);
    // TRAP is 2nd order: period difference between resolutions stays tiny.
    EXPECT_NEAR(rc.f0, rf.f0, 2e-4 * rf.f0);
}

TEST(ShootingPss, FiveStageRingIsSlower) {
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    spec.stages = 5;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    PssOptions opt;
    opt.freqHint = 6e3;
    const PssResult r = shootingPss(dae, opt);
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_LT(r.f0, testutil::sharedOsc().f0() * 0.8);
}

TEST(ShootingPss, SmallerCapOscillatesFaster) {
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    spec.capFarads = 2.35e-9;  // half the paper value
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    PssOptions opt;
    opt.freqHint = 20e3;
    const PssResult r = shootingPss(dae, opt);
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_NEAR(r.f0, 2.0 * testutil::sharedOsc().f0(), 0.1 * r.f0);
}

TEST(ShootingPss, ExplicitPhaseUnknownHonored) {
    ckt::Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    PssOptions opt;
    opt.phaseUnknown = nl.findNode("osc.n2");
    const PssResult r = shootingPss(dae, opt);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.phaseUnknown, nl.findNode("osc.n2"));
    EXPECT_NEAR(r.f0, testutil::sharedOsc().f0(), 1.0);
}

TEST(ShootingPss, NonOscillatingCircuitFailsGracefully) {
    ckt::Netlist nl;
    nl.addVoltageSource("v", "a", "0", ckt::Waveform::dc(1.0));
    nl.addResistor("r", "a", "b", 1e3);
    nl.addCapacitor("c", "b", "0", 1e-9);
    ckt::Dae dae(nl);
    PssOptions opt;
    opt.freqHint = 1e5;
    opt.warmupCycles = 10;
    const PssResult r = shootingPss(dae, opt);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.message.empty());
}

TEST(ShootingPss, WaveformPeakMatchesPaperConvention) {
    // The paper's Fig. 4 reports dphi_peak ~ 0.21 for its prototype; ours is
    // an independent fit but must be a sane position in (0, 1).
    const auto& model = testutil::sharedOsc().model();
    EXPECT_GT(model.waveformPeak(), 0.0);
    EXPECT_LT(model.waveformPeak(), 1.0);
}

#ifndef PHLOGON_NO_OBS
TEST(ShootingPss, RegistryCountsEachFactorizationOnce) {
    // dcop and the warm-up transients record their own counters; PSS must
    // add only the shooting's, so the registry grows by exactly the folded
    // total the result reports.
    ckt::Netlist nl;
    ckt::buildRingOscillator(nl, "osc", ckt::RingOscSpec{});
    ckt::Dae dae(nl);
    auto& reg = obs::MetricsRegistry::instance();
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const std::uint64_t lu0 = reg.counter("lu.factorizations").value();
    const std::uint64_t it0 = reg.counter("newton.iters").value();
    const PssResult r = shootingPss(dae, PssOptions{});
    const std::uint64_t lu1 = reg.counter("lu.factorizations").value();
    const std::uint64_t it1 = reg.counter("newton.iters").value();
    obs::setMetricsEnabled(wasEnabled);
    ASSERT_TRUE(r.ok) << r.message;
    EXPECT_EQ(lu1 - lu0, r.counters.luFactorizations);
    EXPECT_EQ(it1 - it0, r.counters.newtonIters);
    EXPECT_GT(r.counters.luFactorizations, 0u);
}
#endif

}  // namespace
}  // namespace phlogon::an
