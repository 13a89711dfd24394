#include "numeric/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "numeric/lu.hpp"
#include "numeric/newton.hpp"
#include "numeric/sparse_lu.hpp"

namespace phlogon::num {
namespace {

// ---------------------------------------------------------------------------
// SparseMatrix: pattern lifecycle
// ---------------------------------------------------------------------------

TEST(SparseMatrix, BuildsFreezesAndLooksUp) {
    SparseMatrix a(3, 3);
    EXPECT_FALSE(a.patternFrozen());
    a.add(0, 0, 2.0);
    a.add(1, 1, 3.0);
    a.add(0, 2, -1.0);
    a.add(0, 0, 0.5);  // duplicate: summed on freeze
    a.endAssembly();
    EXPECT_TRUE(a.patternFrozen());
    EXPECT_EQ(a.nnz(), 3u);
    EXPECT_DOUBLE_EQ(a.at(0, 0), 2.5);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(a.at(0, 2), -1.0);
    EXPECT_DOUBLE_EQ(a.at(2, 2), 0.0);  // outside the pattern
}

TEST(SparseMatrix, FrozenAssemblyAccumulatesInPlace) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 1.0);
    a.add(1, 0, 4.0);
    a.endAssembly();
    const auto stamp = a.patternStamp();

    a.beginAssembly();
    a.add(0, 0, 7.0);
    a.add(0, 0, 1.0);
    a.endAssembly();
    EXPECT_DOUBLE_EQ(a.at(0, 0), 8.0);
    EXPECT_DOUBLE_EQ(a.at(1, 0), 0.0);  // zeroed by beginAssembly
    EXPECT_EQ(a.patternStamp(), stamp) << "in-pattern assembly must not bump the stamp";
}

TEST(SparseMatrix, OverflowMergeGrowsPatternAndBumpsStamp) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 1.0);
    a.endAssembly();
    const auto stamp = a.patternStamp();

    a.beginAssembly();
    a.add(0, 0, 1.0);
    a.add(1, 1, 5.0);  // outside the frozen pattern -> overflow
    a.endAssembly();
    EXPECT_EQ(a.nnz(), 2u);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 5.0);
    EXPECT_GT(a.patternStamp(), stamp);
}

TEST(SparseMatrix, ZeroAddClaimsPatternSlot) {
    // Structurally-present-but-zero stamps (switched-off device, gmin at 0)
    // must keep the pattern stable so the symbolic factorization is reusable.
    SparseMatrix a(2, 2);
    a.add(0, 0, 1.0);
    a.add(1, 1, 0.0);
    a.endAssembly();
    EXPECT_EQ(a.nnz(), 2u);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

TEST(SparseMatrix, MulVecAndDenseRoundTripMatch) {
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    const std::size_t n = 8;
    Matrix d(n, n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if ((r + 2 * c) % 3 == 0) d(r, c) = dist(rng);
    const SparseMatrix a = SparseMatrix::fromDense(d);
    const Matrix back = a.toDense();
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c) EXPECT_DOUBLE_EQ(back(r, c), d(r, c));

    Vec x(n), ys, yd;
    for (double& v : x) v = dist(rng);
    a.mulVec(x, ys);
    yd = d * x;
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ys[i], yd[i], 1e-14);
}

TEST(SparseMatrix, ResetDropsPattern) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 1.0);
    a.endAssembly();
    a.reset(3, 3);
    EXPECT_FALSE(a.patternFrozen());
    EXPECT_EQ(a.rows(), 3u);
    EXPECT_EQ(a.nnz(), 0u);
}

// ---------------------------------------------------------------------------
// SparseMatrix: slot cache (the k-th add of a frozen assembly reuses the slot
// the k-th add of the previous one hit, after checking it)
// ---------------------------------------------------------------------------

struct Stamp {
    std::size_t r, c;
    double v;
};

/// Row-major entries of the dense expansion, for exact comparison.
Vec denseEntries(const SparseMatrix& a) {
    const Matrix d = a.toDense();
    return Vec(d.data(), d.data() + d.rows() * d.cols());
}

void assemble(SparseMatrix& a, const std::vector<Stamp>& seq) {
    a.beginAssembly();
    for (const Stamp& s : seq) a.add(s.r, s.c, s.v);
    a.endAssembly();
}

/// A device-like stamp sequence over 4 unknowns with repeated slots.  The
/// values are dyadic, so any summation order gives the same doubles.
std::vector<Stamp> baseStamps() {
    return {{0, 0, 1.5},  {0, 1, -0.5}, {1, 0, -0.5}, {1, 1, 2.25}, {1, 1, 0.75},
            {2, 2, 3.0},  {2, 3, -1.0}, {3, 2, -1.0}, {3, 3, 1.0},  {0, 0, 0.25},
            {3, 3, 0.125}};
}

/// Frozen matrix whose slot cache is warm with baseStamps(), then assembled
/// with `changed`: must equal a fresh matrix built from `changed` alone.
void expectChangedSequenceMatchesFresh(const std::vector<Stamp>& changed) {
    SparseMatrix cached(4, 4);
    assemble(cached, baseStamps());  // freeze
    assemble(cached, baseStamps());  // fill the slot cache
    assemble(cached, baseStamps());  // assemble through it
    SparseMatrix fresh(4, 4);
    assemble(fresh, baseStamps());
    EXPECT_EQ(denseEntries(cached), denseEntries(fresh));

    assemble(cached, changed);
    SparseMatrix expect(4, 4);
    assemble(expect, changed);
    EXPECT_EQ(denseEntries(cached), denseEntries(expect));
    // And once more, now that the cache holds the changed sequence.
    assemble(cached, changed);
    EXPECT_EQ(denseEntries(cached), denseEntries(expect));
}

TEST(SparseSlotCache, SkippedStampFallsBack) {
    std::vector<Stamp> seq = baseStamps();
    seq.erase(seq.begin() + 3);  // every later add shifts one cache entry
    expectChangedSequenceMatchesFresh(seq);
}

TEST(SparseSlotCache, SwappedStampsFallBack) {
    std::vector<Stamp> seq = baseStamps();
    std::swap(seq[0], seq[1]);  // same row, other column
    std::swap(seq[5], seq[8]);  // other rows
    expectChangedSequenceMatchesFresh(seq);
}

TEST(SparseSlotCache, OffPatternStampGrowsPattern) {
    std::vector<Stamp> seq = baseStamps();
    seq.insert(seq.begin() + 4, Stamp{0, 3, 0.5});
    SparseMatrix probe(4, 4);
    assemble(probe, baseStamps());
    const auto stamp = probe.patternStamp();
    assemble(probe, seq);
    EXPECT_GT(probe.patternStamp(), stamp);
    EXPECT_EQ(probe.nnz(), 9u);
    expectChangedSequenceMatchesFresh(seq);
}

// ---------------------------------------------------------------------------
// Minimum-degree ordering
// ---------------------------------------------------------------------------

/// Arrow matrix: dense first row/column + diagonal.  Natural-order LU fills
/// completely; eliminating the hub last keeps fill linear.
SparseMatrix arrowMatrix(std::size_t n) {
    SparseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a.add(i, i, 4.0 + static_cast<double>(i % 3));
        if (i > 0) {
            a.add(0, i, 1.0);
            a.add(i, 0, 1.0);
        }
    }
    a.endAssembly();
    return a;
}

TEST(MinDegree, IsAPermutationAndDeterministic) {
    const SparseMatrix a = arrowMatrix(17);
    const auto ord = minDegreeOrder(a);
    ASSERT_EQ(ord.size(), 17u);
    std::vector<bool> seen(17, false);
    for (const std::size_t v : ord) {
        ASSERT_LT(v, 17u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
    EXPECT_EQ(minDegreeOrder(a), ord);
}

TEST(MinDegree, EliminatesArrowHubNearLast) {
    // The hub keeps the highest degree until only leaves of equal degree
    // remain; the smallest-index tie break can then slot it one before the
    // final leaf, so "last two" is the invariant (either way, zero fill).
    const auto ord = minDegreeOrder(arrowMatrix(30));
    const std::size_t hubPos =
        static_cast<std::size_t>(std::find(ord.begin(), ord.end(), 0u) - ord.begin());
    EXPECT_GE(hubPos, ord.size() - 2) << "the dense hub must be eliminated last or next-to-last";
}

// ---------------------------------------------------------------------------
// SparseLu
// ---------------------------------------------------------------------------

TEST(SparseLu, MatchesDenseLuOnRandomSystems) {
    std::mt19937 rng(42);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 9);
        Matrix d(n, n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                if (r == c || (r * 5 + c * 3 + static_cast<std::size_t>(trial)) % 4 == 0)
                    d(r, c) = dist(rng);
            d(r, r) += 3.0;
        }
        Vec b(n);
        for (double& v : b) v = dist(rng);

        const SparseMatrix a = SparseMatrix::fromDense(d, -1.0);  // keep explicit zeros too
        SparseLu lu;
        ASSERT_TRUE(lu.factor(a));
        const Vec xs = lu.solve(b);
        const auto df = LuFactor::factor(d);
        ASSERT_TRUE(df.has_value());
        const Vec xd = df->solve(b);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-10);

        // And the residual itself is small.
        const Vec r = d * xs - b;
        EXPECT_LT(normInf(r), 1e-10);
    }
}

TEST(SparseLu, PivotsThroughZeroDiagonal) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 0.0);
    a.add(0, 1, 1.0);
    a.add(1, 0, 1.0);
    a.add(1, 1, 0.0);
    a.endAssembly();
    SparseLu lu;
    ASSERT_TRUE(lu.factor(a));
    const Vec x = lu.solve(Vec{2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, RejectsSingularEmptyNonSquareUnfrozen) {
    SparseLu lu;
    SparseMatrix sing(2, 2);
    sing.add(0, 0, 1.0);
    sing.add(0, 1, 2.0);
    sing.add(1, 0, 2.0);
    sing.add(1, 1, 4.0);
    sing.endAssembly();
    EXPECT_FALSE(lu.factor(sing));
    EXPECT_FALSE(lu.valid());

    EXPECT_FALSE(lu.factor(SparseMatrix()));
    SparseMatrix rect(2, 3);
    rect.endAssembly();
    EXPECT_FALSE(lu.factor(rect));

    SparseMatrix building(2, 2);
    building.add(0, 0, 1.0);  // no endAssembly: pattern not frozen
    EXPECT_FALSE(lu.factor(building));

    // A structurally empty column is singular, not a crash.
    SparseMatrix hole(2, 2);
    hole.add(0, 0, 1.0);
    hole.endAssembly();
    EXPECT_FALSE(lu.factor(hole));
}

TEST(SparseLu, RefactorReusesSymbolicAndMatchesFullFactor) {
    std::mt19937 rng(9);
    std::uniform_real_distribution<double> dist(0.5, 2.0);
    const std::size_t n = 40;
    // Tridiagonal system; refresh values 5 times through the frozen pattern.
    SparseMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        a.add(i, i, 4.0);
        if (i > 0) {
            a.add(i, i - 1, -1.0);
            a.add(i - 1, i, -1.0);
        }
    }
    a.endAssembly();

    SparseLu lu;
    ASSERT_TRUE(lu.refactor(a));
    EXPECT_EQ(lu.fullFactorCount(), 1u);
    EXPECT_EQ(lu.refactorCount(), 0u);

    Vec b(n, 1.0);
    for (int pass = 0; pass < 5; ++pass) {
        a.beginAssembly();
        for (std::size_t i = 0; i < n; ++i) {
            a.add(i, i, 3.0 + dist(rng));
            if (i > 0) {
                a.add(i, i - 1, -dist(rng));
                a.add(i - 1, i, -dist(rng));
            }
        }
        a.endAssembly();
        ASSERT_TRUE(lu.refactor(a));

        SparseLu fresh;
        ASSERT_TRUE(fresh.factor(a));
        const Vec xr = lu.solve(b);
        const Vec xf = fresh.solve(b);
        for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xr[i], xf[i], 1e-12);
    }
    EXPECT_EQ(lu.fullFactorCount(), 1u);
    EXPECT_EQ(lu.refactorCount(), 5u);
}

TEST(SparseLu, RefactorFallsBackOnPatternChange) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 2.0);
    a.add(1, 1, 3.0);
    a.endAssembly();
    SparseLu lu;
    ASSERT_TRUE(lu.refactor(a));
    EXPECT_EQ(lu.fullFactorCount(), 1u);

    a.beginAssembly();
    a.add(0, 0, 2.0);
    a.add(1, 1, 3.0);
    a.add(0, 1, 1.0);  // new slot: pattern stamp bumps
    a.endAssembly();
    ASSERT_TRUE(lu.refactor(a));
    EXPECT_EQ(lu.fullFactorCount(), 2u) << "stale pattern must trigger a full factorization";
    const Vec x = lu.solve(Vec{5, 3});
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(SparseLu, RefactorFallsBackOnDegradedPivot) {
    // First factorization happily keeps the diagonal pivots; then the (0,0)
    // entry collapses so the recorded pivot fails the threshold test and a
    // fresh (row-swapping) factorization must take over transparently.
    SparseMatrix a(2, 2);
    a.add(0, 0, 4.0);
    a.add(0, 1, 1.0);
    a.add(1, 0, 1.0);
    a.add(1, 1, 3.0);
    a.endAssembly();
    SparseLu lu;
    ASSERT_TRUE(lu.refactor(a));
    EXPECT_EQ(lu.fullFactorCount(), 1u);

    a.beginAssembly();
    a.add(0, 0, 1e-13);
    a.add(0, 1, 1.0);
    a.add(1, 0, 1.0);
    a.add(1, 1, 1e-13);
    a.endAssembly();
    ASSERT_TRUE(lu.refactor(a));
    EXPECT_EQ(lu.fullFactorCount(), 2u) << "degraded pivot must trigger repivoting";
    const Vec x = lu.solve(Vec{1.0, 2.0});
    // x ~ [2, 1] for the near-antidiagonal system.
    EXPECT_NEAR(x[0], 2.0, 1e-9);
    EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(SparseLu, FillReducingOrderKeepsArrowFillLinear) {
    const std::size_t n = 200;
    const SparseMatrix a = arrowMatrix(n);
    SparseLu lu;
    ASSERT_TRUE(lu.factor(a));
    // Natural order would fill in ~n^2/2 entries; min-degree keeps the hub
    // last so L+U stays at the structural nnz (~3n).
    EXPECT_LE(lu.factorNnz(), 4 * n);
    const Vec x = lu.solve(Vec(n, 1.0));
    const Matrix d = a.toDense();
    const Vec r = d * x - Vec(n, 1.0);
    EXPECT_LT(normInf(r), 1e-10);
}

TEST(SparseLu, RcondEstimateOrdersWellVsIllConditioned) {
    SparseMatrix eye(3, 3);
    for (std::size_t i = 0; i < 3; ++i) eye.add(i, i, 1.0);
    eye.endAssembly();
    SparseLu good;
    ASSERT_TRUE(good.factor(eye));
    EXPECT_GT(good.rcondEstimate(), 0.5);

    SparseMatrix bad(2, 2);
    bad.add(0, 0, 1.0);
    bad.add(1, 1, 1e-10);
    bad.endAssembly();
    SparseLu poor;
    ASSERT_TRUE(poor.factor(bad));
    EXPECT_LT(poor.rcondEstimate(), 1e-9);
}

TEST(SparseLu, SolveLinearSparseConvenience) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 1.0);
    a.add(1, 1, 2.0);
    a.endAssembly();
    const auto x = solveLinearSparse(a, Vec{1, 4});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[1], 2.0, 1e-14);

    SparseMatrix s(2, 2);
    s.add(0, 0, 1.0);
    s.add(0, 1, 1.0);
    s.add(1, 0, 1.0);
    s.add(1, 1, 1.0);
    s.endAssembly();
    EXPECT_FALSE(solveLinearSparse(s, Vec{1, 1}).has_value());
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(SparseLuDeathTest, SolveIntoRejectsAliasedOutput) {
    SparseMatrix a(2, 2);
    a.add(0, 0, 1.0);
    a.add(1, 1, 1.0);
    a.endAssembly();
    SparseLu lu;
    ASSERT_TRUE(lu.factor(a));
    Vec b{1.0, 2.0};
    EXPECT_DEATH(lu.solveInto(b, b), "");
}
#endif

// ---------------------------------------------------------------------------
// newtonSolveSparse
// ---------------------------------------------------------------------------

TEST(NewtonSparse, MatchesDenseNewtonOnNonlinearSystem) {
    // F(x) = [x0^2 + x1 - 3, x0 + x1^3 - 5]; solution near (1.297, 1.318).
    const ResidualInPlaceFn f = [](const Vec& x, Vec& out) {
        out.resize(2);
        out[0] = x[0] * x[0] + x[1] - 3.0;
        out[1] = x[0] + x[1] * x[1] * x[1] - 5.0;
    };
    const JacobianInPlaceFn jd = [](const Vec& x, Matrix& j) {
        j.resize(2, 2);
        j(0, 0) = 2.0 * x[0];
        j(0, 1) = 1.0;
        j(1, 0) = 1.0;
        j(1, 1) = 3.0 * x[1] * x[1];
    };
    const SparseJacobianInPlaceFn js = [](const Vec& x, SparseMatrix& j) {
        if (j.rows() != 2) j.reset(2, 2);
        j.beginAssembly();
        j.add(0, 0, 2.0 * x[0]);
        j.add(0, 1, 1.0);
        j.add(1, 0, 1.0);
        j.add(1, 1, 3.0 * x[1] * x[1]);
        j.endAssembly();
    };

    Vec xd{1.0, 1.0}, xs{1.0, 1.0};
    NewtonWorkspace wd, ws;
    const NewtonResult rd = newtonSolve(f, jd, xd, wd);
    const NewtonResult rs = newtonSolveSparse(f, js, xs, ws);
    ASSERT_TRUE(rd.converged);
    ASSERT_TRUE(rs.converged);
    EXPECT_NEAR(xs[0], xd[0], 1e-9);
    EXPECT_NEAR(xs[1], xd[1], 1e-9);

    // Sparse-engine counters are populated; first factorization is full,
    // later ones reuse the frozen pattern numerically.
    EXPECT_EQ(rs.counters.sparseFactorizations, 1u);
    EXPECT_GE(rs.counters.sparseRefactors, 1u);
    EXPECT_EQ(rs.counters.sparseFactorizations + rs.counters.sparseRefactors,
              rs.counters.luFactorizations);
    EXPECT_EQ(rs.counters.jacobianNnz, 4u);
    EXPECT_GE(rs.counters.factorNnz, 4u);
    EXPECT_EQ(rd.counters.sparseFactorizations, 0u);
    EXPECT_EQ(rd.counters.jacobianNnz, 0u);
}

TEST(NewtonSparse, ChordReuseAcrossSolvesSharingWorkspace) {
    // Mildly nonlinear scalar system solved repeatedly through one
    // workspace with jacobianReuse: later solves should start from the
    // cached factorization (chord) and skip Jacobian work entirely.
    double target = 2.0;
    const ResidualInPlaceFn f = [&target](const Vec& x, Vec& out) {
        out.resize(1);
        out[0] = x[0] + 0.01 * x[0] * x[0] * x[0] - target;
    };
    const SparseJacobianInPlaceFn js = [](const Vec& x, SparseMatrix& j) {
        if (j.rows() != 1) j.reset(1, 1);
        j.beginAssembly();
        j.add(0, 0, 1.0 + 0.03 * x[0] * x[0]);
        j.endAssembly();
    };
    NewtonOptions opt;
    opt.jacobianReuse = true;
    NewtonWorkspace ws;
    Vec x{0.0};
    SolverCounters total;
    for (int k = 0; k < 4; ++k) {
        target = 2.0 + 0.01 * k;
        const NewtonResult r = newtonSolveSparse(f, js, x, ws, opt);
        ASSERT_TRUE(r.converged);
        total += r.counters;
    }
    EXPECT_TRUE(ws.hasFactorization());
    EXPECT_LT(total.jacEvals, total.newtonIters)
        << "chord mode must bypass some Jacobian refreshes";
    EXPECT_EQ(total.sparseFactorizations, 1u) << "one symbolic analysis for the whole sequence";
}

}  // namespace
}  // namespace phlogon::num
