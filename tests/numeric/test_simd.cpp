// SIMD kernel parity: the dispatched table, kernels(), must produce
// bitwise-identical results to the scalar reference, scalarKernels() (the
// lane contract in numeric/simd/simd.hpp).  Comparisons use EXPECT_EQ on
// doubles — exact equality, not tolerance.  On a host without AVX2 both
// tables are the scalar one and the suite passes trivially.

#include "numeric/simd/simd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "numeric/batch_ode.hpp"
#include "numeric/interp.hpp"
#include "numeric/ode.hpp"
#include "numeric/rkf45_tableau.hpp"
#include "numeric/rng.hpp"

using namespace phlogon;
using num::simd::Kernels;
using num::simd::Tier;

namespace {

// Deterministic but irregular test doubles in [lo, hi).
std::vector<double> fill(std::size_t n, double lo, double hi, std::uint64_t seed) {
    num::SplitMix64 rng(seed);
    std::vector<double> v(n);
    for (double& x : v) x = lo + (hi - lo) * rng.nextUnit();
    return v;
}

const Kernels& ref() { return num::simd::scalarKernels(); }
const Kernels& vec() { return num::simd::kernels(); }
const char* vecName() { return num::simd::tierName(vec().tier); }

// Lane counts straddling the 4-wide groups: empty, sub-group, exact
// multiples, and ragged tails.
const std::size_t kLaneCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 257};

}  // namespace

TEST(SimdDispatch, DetectedTierIsStable) {
    EXPECT_EQ(&num::simd::kernels(), &num::simd::kernels());
    EXPECT_EQ(num::simd::scalarKernels().tier, Tier::Scalar);
}

TEST(SimdDispatch, KernelsClampToDetectedTier) {
    // AVX2 exactly where the CPU reports it (and the library was built
    // with the AVX2 translation unit, which every GCC/Clang x86 build is).
    bool avx2 = false;
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
    avx2 = __builtin_cpu_supports("avx2");
#endif
    EXPECT_EQ(num::simd::kernels().tier, avx2 ? Tier::Avx2 : Tier::Scalar);
}

TEST(SimdDispatch, TierNames) {
    EXPECT_STREQ(num::simd::tierName(Tier::Scalar), "scalar");
    EXPECT_STREQ(num::simd::tierName(Tier::Avx2), "avx2");
}

TEST(SimdParity, SplineAffineAllTiers) {
    // A real spline (so the coefficients are representative), probed with
    // phases spanning many wraps plus the seam-adjacent corners: the kernels
    // against each other, and the spline's batched forms against its scalar
    // operator().
    for (std::size_t nSeg : {3ul, 8ul, 64ul, 1024ul}) {
        num::Vec samples(nSeg);
        for (std::size_t i = 0; i < nSeg; ++i)
            samples[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / static_cast<double>(nSeg)) +
                         0.25 * std::cos(6.0 * M_PI * static_cast<double>(i) / static_cast<double>(nSeg));
        const num::PackedPeriodicSpline packed{num::PeriodicCubicSpline(samples)};
        const double* coeffs = packed.coefficients().data();

        for (std::size_t n : kLaneCounts) {
            std::vector<double> t = fill(n, -3.0, 3.0, 0x5eed0 + n);
            // Plant seam-adjacent and exact-knot values in the batch.
            for (std::size_t i = 0; i < n; ++i) {
                if (i % 7 == 0) t[i] = std::nextafter(static_cast<double>(i), -1.0);
                if (i % 11 == 0) t[i] = static_cast<double>(i / 11);  // integers: wrap to 0
            }
            std::vector<double> want(n, -1.0), got(n, 99.0);
            ref().splineAffine(coeffs, nSeg, t.data(), want.data(), n, 1.7, -0.3);
            vec().splineAffine(coeffs, nSeg, t.data(), got.data(), n, 1.7, -0.3);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(want[i], got[i]) << vecName() << " nSeg=" << nSeg << " lane=" << i
                                           << " t=" << t[i];

            std::vector<double> affine(n), plain(n);
            packed.evalManyAffine(t.data(), affine.data(), n, 1.7, -0.3);
            packed.evalMany(t.data(), plain.data(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(-0.3 + 1.7 * packed(t[i]), affine[i]) << "t=" << t[i];
                EXPECT_EQ(packed(t[i]), plain[i]) << "t=" << t[i];
            }
        }
    }
}

TEST(SimdParity, RkStageAllTiers) {
    using namespace num::cashkarp;
    static constexpr double kB6[] = {B61, B62, B63, B64, B65};
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> y = fill(lanes, -2.0, 2.0, 11);
        const std::vector<double> h = fill(lanes, 1e-6, 1e-2, 12);
        const std::vector<double> t = fill(lanes, 0.0, 5.0, 13);
        const std::vector<double> k1 = fill(lanes, -4.0, 4.0, 14);
        const std::vector<double> k2 = fill(lanes, -4.0, 4.0, 15);
        const std::vector<double> k3 = fill(lanes, -4.0, 4.0, 16);
        const std::vector<double> k4 = fill(lanes, -4.0, 4.0, 17);
        const std::vector<double> k5 = fill(lanes, -4.0, 4.0, 18);
        const double* ks[5] = {k1.data(), k2.data(), k3.data(), k4.data(), k5.data()};
        // Mixed active mask (and lanes > 8 exercises full vector groups with
        // the mask all-set and all-clear).
        std::vector<unsigned char> active(lanes, 1);
        for (std::size_t l = 0; l < lanes; ++l)
            if (l % 5 == 3 || (l >= 8 && l < 12)) active[l] = 0;

        for (const unsigned char* mask : {static_cast<const unsigned char*>(nullptr),
                                          static_cast<const unsigned char*>(active.data())}) {
            std::vector<double> ytRef(lanes, 7.0), tsRef(lanes, 7.0);
            ref().rkStage(y.data(), h.data(), t.data(), ks, kB6, 5, A6, ytRef.data(),
                          tsRef.data(), mask, lanes);
            std::vector<double> yt(lanes, 7.0), ts(lanes, 7.0);
            vec().rkStage(y.data(), h.data(), t.data(), ks, kB6, 5, A6, yt.data(), ts.data(),
                          mask, lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                EXPECT_EQ(ytRef[l], yt[l]) << vecName() << " lanes=" << lanes << " l=" << l;
                EXPECT_EQ(tsRef[l], ts[l]) << vecName() << " lanes=" << lanes << " l=" << l;
            }
        }
    }
}

TEST(SimdParity, Rkf45EmbeddedAllTiers) {
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> y = fill(lanes, -2.0, 2.0, 21);
        const std::vector<double> h = fill(lanes, 1e-6, 1e-2, 22);
        const std::vector<double> k1 = fill(lanes, -4.0, 4.0, 23);
        const std::vector<double> k3 = fill(lanes, -4.0, 4.0, 24);
        const std::vector<double> k4 = fill(lanes, -4.0, 4.0, 25);
        const std::vector<double> k5 = fill(lanes, -4.0, 4.0, 26);
        const std::vector<double> k6 = fill(lanes, -4.0, 4.0, 27);
        std::vector<unsigned char> active(lanes, 1);
        for (std::size_t l = 0; l < lanes; ++l)
            if (l % 3 == 1) active[l] = 0;

        for (const unsigned char* mask : {static_cast<const unsigned char*>(nullptr),
                                          static_cast<const unsigned char*>(active.data())}) {
            std::vector<double> y5Ref(lanes, 7.0), errRef(lanes, 7.0);
            ref().rkf45Embedded(y.data(), h.data(), k1.data(), k3.data(), k4.data(), k5.data(),
                                k6.data(), 1e-9, 1e-7, y5Ref.data(), errRef.data(), mask, lanes);
            std::vector<double> y5(lanes, 7.0), err(lanes, 7.0);
            vec().rkf45Embedded(y.data(), h.data(), k1.data(), k3.data(), k4.data(), k5.data(),
                                k6.data(), 1e-9, 1e-7, y5.data(), err.data(), mask, lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                EXPECT_EQ(y5Ref[l], y5[l]) << vecName() << " lanes=" << lanes << " l=" << l;
                EXPECT_EQ(errRef[l], err[l]) << vecName() << " lanes=" << lanes << " l=" << l;
            }
        }
    }
}

TEST(SimdParity, AxpyAndRk4CombineAllTiers) {
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> y = fill(lanes, -2.0, 2.0, 31);
        const std::vector<double> k1 = fill(lanes, -4.0, 4.0, 32);
        const std::vector<double> k2 = fill(lanes, -4.0, 4.0, 33);
        const std::vector<double> k3 = fill(lanes, -4.0, 4.0, 34);
        const std::vector<double> k4 = fill(lanes, -4.0, 4.0, 35);
        const double h = 3.7e-4;

        std::vector<double> ytRef(lanes), yt(lanes);
        ref().axpyLanes(y.data(), k1.data(), 0.5 * h, ytRef.data(), lanes);
        vec().axpyLanes(y.data(), k1.data(), 0.5 * h, yt.data(), lanes);
        std::vector<double> yRef = y, yv = y;
        ref().rk4Combine(yRef.data(), k1.data(), k2.data(), k3.data(), k4.data(), h, lanes);
        vec().rk4Combine(yv.data(), k1.data(), k2.data(), k3.data(), k4.data(), h, lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            EXPECT_EQ(ytRef[l], yt[l]) << vecName() << " l=" << l;
            EXPECT_EQ(yRef[l], yv[l]) << vecName() << " l=" << l;
        }
    }
}

TEST(SimdParity, NormalFillMatchesScalarStreams) {
    const auto& zig = num::ZigguratNormal::instance();
    // Enough draws that every lane hits wedge rejections and (statistically)
    // some base-strip edge cases; stream equality after the fill proves the
    // fast path consumed exactly the same variates.
    const std::size_t rounds = 2000;
    for (std::size_t lanes : {1ul, 3ul, 4ul, 5ul, 8ul, 13ul}) {
        std::vector<num::SplitMix64> a, b;
        for (std::size_t l = 0; l < lanes; ++l) {
            a.emplace_back(1000 + l);
            b.emplace_back(1000 + l);
        }
        std::vector<double> outA(lanes), outB(lanes);
        for (std::size_t r = 0; r < rounds; ++r) {
            ref().normalFill(zig, a.data(), outA.data(), lanes);
            vec().normalFill(zig, b.data(), outB.data(), lanes);
            for (std::size_t l = 0; l < lanes; ++l)
                EXPECT_EQ(outA[l], outB[l]) << vecName() << " round=" << r << " lane=" << l;
        }
        // Post-fill stream positions must agree too.
        for (std::size_t l = 0; l < lanes; ++l) EXPECT_EQ(a[l](), b[l]());
    }
}

TEST(SimdParity, McUpdateAllTiers) {
    for (std::size_t lanes : kLaneCounts) {
        const std::vector<double> phi0 = fill(lanes, -0.5, 0.5, 41);
        const std::vector<double> drift = fill(lanes, -3.0, 3.0, 42);
        const std::vector<double> z = fill(lanes, -4.0, 4.0, 43);
        std::vector<double> want = phi0, got = phi0;
        ref().mcUpdate(want.data(), drift.data(), 2.5e-4, 1.3e-3, z.data(), lanes);
        vec().mcUpdate(got.data(), drift.data(), 2.5e-4, 1.3e-3, z.data(), lanes);
        for (std::size_t l = 0; l < lanes; ++l) EXPECT_EQ(want[l], got[l]) << vecName() << " l=" << l;
    }
}

// The batched engines run their stage combinations through kernels() — the
// vector table on an AVX2 host ("SIMD on") — and must reproduce the plain
// scalar integrators ("off") bit for bit over whole trajectories.

namespace {

// Nonlinear scalar RHS giving the step controller real accept/reject work.
double pendulum(double t, double y) { return -2.5 * std::sin(y) + 0.3 * std::cos(3.0 * t); }

}  // namespace

TEST(SimdBatchOde, Rkf45SimdOnEqualsOff) {
    const num::BatchRhs1 batched = [](const double* t, const double* y, double* dydt,
                                      const unsigned char* active, std::size_t lanes) {
        for (std::size_t l = 0; l < lanes; ++l)
            if (!active || active[l]) dydt[l] = pendulum(t[l], y[l]);
    };
    num::OdeOptions opt;
    opt.absTol = 1e-10;
    opt.relTol = 1e-8;
    // 32 lanes fill whole 4-lane vector groups; 63 leave a ragged tail.
    for (std::size_t lanes : {1ul, 5ul, 32ul, 63ul}) {
        num::Vec y0(lanes);
        for (std::size_t l = 0; l < lanes; ++l)
            y0[l] = -1.5 + 3.0 * static_cast<double>(l) / static_cast<double>(lanes);
        num::BatchOde batch(lanes);
        const num::BatchOdeSolution sol = batch.rkf45(batched, y0, 0.0, 2.0, opt);
        ASSERT_EQ(sol.lanes.size(), lanes);
        EXPECT_TRUE(sol.ok);
        for (std::size_t l = 0; l < lanes; ++l) {
            const num::OdeSolution1 ref = num::rkf45Scalar(pendulum, y0[l], 0.0, 2.0, opt);
            EXPECT_EQ(sol.lanes[l].ok, ref.ok) << "lane " << l;
            EXPECT_EQ(sol.lanes[l].rejectedSteps, ref.rejectedSteps) << "lane " << l;
            ASSERT_EQ(sol.lanes[l].t.size(), ref.t.size()) << "lane " << l;
            for (std::size_t i = 0; i < ref.t.size(); ++i) {
                EXPECT_EQ(sol.lanes[l].t[i], ref.t[i]) << "lane " << l << " i=" << i;
                EXPECT_EQ(sol.lanes[l].y[i], ref.y[i]) << "lane " << l << " i=" << i;
            }
        }
    }
}

TEST(SimdBatchOde, Rk4LockstepSimdOnEqualsOff) {
    // The lockstep engine against num::rk4 on the same coupled state: ring
    // diffusion plus a per-lane forcing term.  Stored points must be exactly
    // rk4's initial point, every 7th step and the final step.
    const auto ring = [](double t, const double* y, double* dydt, std::size_t lanes) {
        for (std::size_t l = 0; l < lanes; ++l) {
            const double left = y[(l + lanes - 1) % lanes];
            const double right = y[(l + 1) % lanes];
            dydt[l] = 0.5 * (left + right - 2.0 * y[l]) + 0.1 * std::sin(t + static_cast<double>(l));
        }
    };
    const std::size_t nSteps = 200, storeEvery = 7;
    for (std::size_t lanes : {1ul, 6ul, 16ul, 37ul}) {
        num::Vec y0(lanes);
        for (std::size_t l = 0; l < lanes; ++l) y0[l] = std::cos(static_cast<double>(l));
        const num::OdeSolution ref = num::rk4(
            [&](double t, const num::Vec& y) {
                num::Vec dydt(y.size());
                ring(t, y.data(), dydt.data(), y.size());
                return dydt;
            },
            y0, 0.0, 1.0, nSteps);
        num::BatchOde batch(lanes);
        const num::OdeSolution sol = batch.rk4Lockstep(ring, y0, 0.0, 1.0, nSteps, storeEvery);
        std::vector<std::size_t> kept;
        for (std::size_t i = 0; i <= nSteps; ++i)
            if (i % storeEvery == 0 || i == nSteps) kept.push_back(i);
        ASSERT_EQ(sol.t.size(), kept.size()) << "lanes=" << lanes;
        for (std::size_t p = 0; p < kept.size(); ++p) {
            EXPECT_EQ(sol.t[p], ref.t[kept[p]]) << "lanes=" << lanes << " step=" << kept[p];
            for (std::size_t l = 0; l < lanes; ++l)
                EXPECT_EQ(sol.y[p][l], ref.y[kept[p]][l])
                    << "lanes=" << lanes << " step=" << kept[p] << " lane=" << l;
        }
    }
}
