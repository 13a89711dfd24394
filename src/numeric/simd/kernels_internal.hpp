#pragma once
// Internal seam between the dispatch table (simd.cpp) and the AVX2
// kernel translation unit.  Not part of the public API.

#include "numeric/simd/simd.hpp"

namespace phlogon::num::simd::detail {

const Kernels& avx2Kernels();  ///< scalarKernels() off x86

// Scalar kernel entry points, reused by the AVX2 tier for remainder
// lanes and mixed-active lane groups (keeping those lanes on the exact
// scalar arithmetic they would otherwise run).
void splineAffineScalar(const double* coeffs, std::size_t nSeg, const double* t,
                        double* out, std::size_t n, double mul, double add);
void rkStageScalar(const double* y, const double* h, const double* t,
                   const double* const* ks, const double* bs, std::size_t nk, double a,
                   double* yt, double* ts, const unsigned char* active, std::size_t lanes);
void rkf45EmbeddedScalar(const double* y, const double* h, const double* k1,
                         const double* k3, const double* k4, const double* k5,
                         const double* k6, double absTol, double relTol, double* y5,
                         double* err, const unsigned char* active, std::size_t lanes);
void axpyLanesScalar(const double* y, const double* k, double s, double* yt,
                     std::size_t lanes);
void rk4CombineScalar(double* y, const double* k1, const double* k2, const double* k3,
                      const double* k4, double h, std::size_t lanes);
void normalFillScalar(const ZigguratNormal& zig, SplitMix64* rngs, double* out,
                      std::size_t lanes);
void mcUpdateScalar(double* phi, const double* drift, double h, double sigmaSqrtH,
                    const double* z, std::size_t lanes);

}  // namespace phlogon::num::simd::detail
