// Dense-vs-sparse linear-solver parity (DESIGN.md §15).
//
// The sparse engine must be a drop-in: with NewtonOptions::linearSolver =
// Sparse, dcop / transient / shooting PSS solve the same nonlinear systems
// through pattern-cached CSR assembly + SparseLu instead of dense LU.  The
// references force Dense explicitly: the size-picked default would route
// the larger ladders to the sparse engine too.  The
// Newton iterates differ only by linear-solve rounding, so converged results
// agree to well below the solver tolerance.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/dcop.hpp"
#include "analysis/pss.hpp"
#include "analysis/transient.hpp"
#include "circuit/subckt.hpp"
#include "obs/metrics.hpp"

namespace phlogon::an {
namespace {

using ckt::Netlist;
using ckt::Waveform;
using num::Vec;

/// RC ladder driven from a DC source, with a weak cubic conductance at every
/// 5th tap so the Jacobian is state-dependent (exercises refactorization).
void buildLadder(Netlist& nl, int sections) {
    nl.addVoltageSource("vin", "n0", "0", Waveform::dc(1.0));
    for (int i = 0; i < sections; ++i) {
        const std::string a = "n" + std::to_string(i);
        const std::string b = "n" + std::to_string(i + 1);
        nl.addResistor("r" + std::to_string(i), a, b, 1e3);
        nl.addCapacitor("c" + std::to_string(i), b, "0", 1e-9);
        if (i % 5 == 0)
            nl.addNonlinearConductance("g" + std::to_string(i), b, "0", Vec{1e-5, 0.0, 2e-5});
    }
}

TEST(SparseParity, DcopMatchesDenseOnNonlinearLadder) {
    Netlist nl;
    buildLadder(nl, 40);
    ckt::Dae dae(nl);

    DcopOptions dense;
    dense.newton.linearSolver = num::LinearSolver::Dense;
    const DcopResult rd = dcOperatingPoint(dae, dense);
    ASSERT_TRUE(rd.ok) << rd.message;

    DcopOptions sparse;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const DcopResult rs = dcOperatingPoint(dae, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;

    ASSERT_EQ(rs.x.size(), rd.x.size());
    for (std::size_t i = 0; i < rd.x.size(); ++i) EXPECT_NEAR(rs.x[i], rd.x[i], 1e-9);

    // The sparse run actually used the sparse engine, and its symbolic
    // analysis was reused across the gmin homotopy stages.
    EXPECT_GT(rs.counters.sparseFactorizations + rs.counters.sparseRefactors, 0u);
    EXPECT_GT(rs.counters.sparseRefactors, rs.counters.sparseFactorizations);
    EXPECT_GT(rs.counters.jacobianNnz, 0u);
    EXPECT_EQ(rd.counters.sparseFactorizations, 0u);
}

TEST(SparseParity, DcopCmosInverterMatchesDense) {
    // Sharply nonlinear MOSFET stamps through the gmin homotopy.
    Netlist nl;
    ckt::addSupply(nl, "vdd", 3.0);
    ckt::buildCmosInverter(nl, "inv", "in", "out", "vdd", ckt::MosfetParams{},
                           ckt::MosfetParams{});
    nl.addVoltageSource("vin", "in", "0", Waveform::dc(1.4));
    nl.addResistor("rl", "out", "0", 1e9);
    ckt::Dae dae(nl);

    DcopOptions dense;
    dense.newton.linearSolver = num::LinearSolver::Dense;
    const DcopResult rd = dcOperatingPoint(dae, dense);
    ASSERT_TRUE(rd.ok) << rd.message;
    DcopOptions sparse;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const DcopResult rs = dcOperatingPoint(dae, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;
    for (std::size_t i = 0; i < rd.x.size(); ++i) EXPECT_NEAR(rs.x[i], rd.x[i], 1e-7);
}

TEST(SparseParity, TransientMatchesDenseOnNonlinearLadder) {
    Netlist nl;
    buildLadder(nl, 30);
    ckt::Dae dae(nl);
    const Vec x0(dae.size(), 0.0);

    TransientOptions dense;
    dense.dt = 5e-8;
    dense.newton.linearSolver = num::LinearSolver::Dense;
    const TransientResult rd = transient(dae, x0, 0.0, 2e-5, dense);
    ASSERT_TRUE(rd.ok) << rd.message;

    TransientOptions sparse = dense;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const TransientResult rs = transient(dae, x0, 0.0, 2e-5, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;

    ASSERT_EQ(rs.x.size(), rd.x.size());
    const Vec& xd = rd.x.back();
    const Vec& xs = rs.x.back();
    for (std::size_t i = 0; i < xd.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-8);

    // Chord reuse + frozen pattern: the whole run needs exactly one symbolic
    // factorization, everything else is numeric-only refactors.
    EXPECT_EQ(rs.counters.sparseFactorizations, 1u);
    EXPECT_GT(rs.counters.sparseRefactors, 0u);
}

TEST(SparseParity, TransientRingOscillatorMatchesDense) {
    Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);
    Vec x0(dae.size(), 0.0);
    x0[static_cast<std::size_t>(nl.findNode("osc.n1"))] = 0.5;  // kick

    TransientOptions dense;
    dense.dt = 2e-7;
    dense.newton.linearSolver = num::LinearSolver::Dense;
    const TransientResult rd = transient(dae, x0, 0.0, 5e-5, dense);
    ASSERT_TRUE(rd.ok) << rd.message;

    TransientOptions sparse = dense;
    sparse.newton.linearSolver = num::LinearSolver::Sparse;
    const TransientResult rs = transient(dae, x0, 0.0, 5e-5, sparse);
    ASSERT_TRUE(rs.ok) << rs.message;

    // An autonomous oscillator amplifies rounding differences along the
    // orbit, so compare mid-trajectory with a tolerance reflecting that.
    const Vec& xd = rd.x[rd.x.size() / 4];
    const Vec& xs = rs.x[rs.x.size() / 4];
    for (std::size_t i = 0; i < xd.size(); ++i) EXPECT_NEAR(xs[i], xd[i], 1e-5);
}

TEST(SparseParity, ShootingPssFrequencyMatchesDense) {
    Netlist nl;
    ckt::RingOscSpec spec;
    ckt::buildRingOscillator(nl, "osc", spec);
    ckt::Dae dae(nl);

    PssOptions opt;
    opt.warmupCycles = 20;
    opt.shootingSteps = 200;
    opt.nSamples = 64;
    opt.stepNewton.linearSolver = num::LinearSolver::Dense;
    const PssResult rd = shootingPss(dae, opt);
    ASSERT_TRUE(rd.ok) << rd.message;

    PssOptions sopt = opt;
    sopt.stepNewton.linearSolver = num::LinearSolver::Sparse;
    const PssResult rs = shootingPss(dae, sopt);
    ASSERT_TRUE(rs.ok) << rs.message;

    // The period-sensitivity chain stays dense by design; only the inner
    // TRAP-step Newton solves route through SparseLu.  Converged period must
    // agree far inside the shooting tolerance.
    EXPECT_NEAR(rs.f0 / rd.f0, 1.0, 1e-6);
    EXPECT_EQ(rs.phaseUnknown, rd.phaseUnknown);
}

// ---------------------------------------------------------------------------
// Size-picked default (LinearSolver::Auto): below kSparseMinUnknowns the
// analyses run exactly the dense engine, at and above it exactly the sparse
// one — bitwise, since Auto only chooses which of the two runs.
// ---------------------------------------------------------------------------

struct SolverRun {
    DcopResult dc;
    TransientResult tr;
};

/// dcop, then a short fixed-step TRAP transient from `x0`, both under `solver`.
SolverRun runWith(const ckt::Dae& dae, num::LinearSolver solver, const Vec& x0, double t1,
                  double dt) {
    SolverRun run;
    DcopOptions dopt;
    dopt.newton.linearSolver = solver;
    run.dc = dcOperatingPoint(dae, dopt);
    TransientOptions topt;
    topt.dt = dt;
    topt.newton.linearSolver = solver;
    run.tr = transient(dae, x0, 0.0, t1, topt);
    return run;
}

/// Default run vs the run under the backend Auto must pick: bitwise equal
/// results and counters; returns the default run's factorization counters.
num::SolverCounters expectDefaultIs(const ckt::Dae& dae, num::LinearSolver expected,
                                    const Vec& x0, double t1, double dt) {
    const SolverRun def = runWith(dae, num::LinearSolver::Auto, x0, t1, dt);
    const SolverRun ref = runWith(dae, expected, x0, t1, dt);
    EXPECT_TRUE(def.dc.ok && def.tr.ok) << def.dc.message << " / " << def.tr.message;
    EXPECT_EQ(def.dc.x, ref.dc.x);
    EXPECT_EQ(def.tr.t, ref.tr.t);
    EXPECT_EQ(def.tr.x, ref.tr.x);
    EXPECT_EQ(def.dc.counters.luFactorizations, ref.dc.counters.luFactorizations);
    EXPECT_EQ(def.tr.counters.newtonIters, ref.tr.counters.newtonIters);
    num::SolverCounters c = def.dc.counters;
    c += def.tr.counters;
    return c;
}

Vec ringKick(const Netlist& nl, const ckt::Dae& dae) {
    Vec x0(dae.size(), 0.0);
    x0[static_cast<std::size_t>(nl.findNode("osc.n1"))] = 0.5;
    return x0;
}

TEST(SolverSelection, SmallRingsStayDense) {
    for (const int stages : {3, 7}) {
        Netlist nl;
        ckt::RingOscSpec spec;
        spec.stages = stages;
        ckt::buildRingOscillator(nl, "osc", spec);
        ckt::Dae dae(nl);
        ASSERT_EQ(dae.size(), static_cast<std::size_t>(stages + 2));
        ASSERT_LT(dae.size(), num::kSparseMinUnknowns);
        const num::SolverCounters c =
            expectDefaultIs(dae, num::LinearSolver::Dense, ringKick(nl, dae), 2e-5, 2e-7);
        EXPECT_EQ(c.sparseFactorizations, 0u) << stages << "-stage ring";
        EXPECT_EQ(c.sparseRefactors, 0u) << stages << "-stage ring";
    }
}

TEST(SolverSelection, LargeLadderGoesSparse) {
    Netlist nl;
    buildLadder(nl, 40);
    ckt::Dae dae(nl);
    ASSERT_GE(dae.size(), num::kSparseMinUnknowns);
    const num::SolverCounters c =
        expectDefaultIs(dae, num::LinearSolver::Sparse, Vec(dae.size(), 0.0), 2e-6, 5e-8);
    EXPECT_GT(c.sparseFactorizations, 0u);
    EXPECT_GT(c.sparseRefactors, 0u);
}

TEST(SolverSelection, ThresholdIsTheFirstSparseSize) {
    // A ladder of s sections has s + 2 unknowns (s + 1 nodes and the source
    // branch current).
    for (const std::size_t n : {num::kSparseMinUnknowns - 1, num::kSparseMinUnknowns}) {
        Netlist nl;
        buildLadder(nl, static_cast<int>(n) - 2);
        ckt::Dae dae(nl);
        ASSERT_EQ(dae.size(), n);
        const bool sparse = n >= num::kSparseMinUnknowns;
        const num::SolverCounters c =
            expectDefaultIs(dae, sparse ? num::LinearSolver::Sparse : num::LinearSolver::Dense,
                            Vec(n, 0.0), 2e-6, 5e-8);
        EXPECT_EQ(c.sparseFactorizations > 0, sparse) << n << " unknowns";
    }
    EXPECT_FALSE(num::useSparseSolver(num::LinearSolver::Auto, num::kSparseMinUnknowns - 1));
    EXPECT_TRUE(num::useSparseSolver(num::LinearSolver::Auto, num::kSparseMinUnknowns));
    EXPECT_TRUE(num::useSparseSolver(num::LinearSolver::Sparse, 1));
    EXPECT_FALSE(num::useSparseSolver(num::LinearSolver::Dense, 1000));
}

#ifndef PHLOGON_NO_OBS
TEST(SparseParity, RegistryCountsEqualCallSiteFactorizations) {
    // Every sparse factorization the Newton loop counts is one registry
    // event: a full one ("sparse.lu.factor.calls", including refactors that
    // fell back) or a numeric-only one ("sparse.lu.refactor.calls").
    Netlist nl;
    buildLadder(nl, 30);
    ckt::Dae dae(nl);
    auto& reg = obs::MetricsRegistry::instance();
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    const std::uint64_t full0 = reg.counter("sparse.lu.factor.calls").value();
    const std::uint64_t refac0 = reg.counter("sparse.lu.refactor.calls").value();
    const SolverRun run =
        runWith(dae, num::LinearSolver::Sparse, Vec(dae.size(), 0.0), 2e-5, 5e-8);
    const std::uint64_t full1 = reg.counter("sparse.lu.factor.calls").value();
    const std::uint64_t refac1 = reg.counter("sparse.lu.refactor.calls").value();
    obs::setMetricsEnabled(wasEnabled);
    ASSERT_TRUE(run.dc.ok && run.tr.ok);

    num::SolverCounters c = run.dc.counters;
    c += run.tr.counters;
    EXPECT_GT(c.luFactorizations, 0u);
    EXPECT_EQ((full1 - full0) + (refac1 - refac0), c.luFactorizations);
    EXPECT_EQ(full1 - full0, c.sparseFactorizations);
    EXPECT_EQ(refac1 - refac0, c.sparseRefactors);
}
#endif

}  // namespace
}  // namespace phlogon::an
