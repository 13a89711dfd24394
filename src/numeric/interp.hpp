#pragma once
// Interpolation of periodic waveforms.  PSS solutions and PPVs are stored as
// uniform samples over one period; the GAE and phase-domain co-simulation
// need to evaluate them at arbitrary (wrapped) phases.

#include <cstddef>

#include "numeric/matrix.hpp"

namespace phlogon::num {

/// Wrap t into [0, 1).
double wrap01(double t);

/// Piecewise-linear interpolation of a 1-periodic signal given uniform
/// samples x[i] = f(i/N).
class PeriodicLinear {
public:
    PeriodicLinear() = default;
    explicit PeriodicLinear(Vec samples) : x_(std::move(samples)) {}

    std::size_t size() const { return x_.size(); }
    const Vec& samples() const { return x_; }

    double operator()(double t) const;

private:
    Vec x_;
};

/// Cubic spline interpolation of a 1-periodic signal (periodic boundary
/// conditions), C2-smooth.  Smoothness matters for the GAE right-hand side:
/// the ODE integrator and the equilibrium root finder both differentiate it
/// numerically.
class PeriodicCubicSpline {
public:
    PeriodicCubicSpline() = default;
    explicit PeriodicCubicSpline(Vec samples);

    std::size_t size() const { return x_.size(); }
    const Vec& samples() const { return x_; }
    /// Second derivatives at the knots (the solved spline coefficients);
    /// consumed by PackedPeriodicSpline below.
    const Vec& curvatures() const { return m_; }

    double operator()(double t) const;
    /// Derivative with respect to t (per unit period).
    double derivative(double t) const;

    /// Batched evaluation: out[i] = (*this)(t[i]) for i in [0, n), one pass
    /// over contiguous lanes.  Each element runs the exact arithmetic of
    /// operator(), so the results are bitwise identical to n scalar calls —
    /// this is the batch evaluator the deterministic BatchOde paths use.
    void evalMany(const double* t, double* out, std::size_t n) const;

private:
    Vec x_;
    Vec m_;  ///< second derivatives at the knots
};

/// The same periodic cubic spline repacked as per-interval polynomial
/// coefficients c0 + u*(c1 + u*(c2 + u*c3)) (u = local fraction in the knot
/// cell), stored contiguously per interval.  Evaluation is a wrap, one
/// 4-double gather and a Horner — roughly a third of the flops of the
/// Hermite form in PeriodicCubicSpline::operator(), with no integer modulo.
/// Values agree with the source spline to rounding (same polynomial,
/// different association), NOT bitwise: hot Monte-Carlo paths use this,
/// bit-pinned deterministic paths use the spline itself.
class PackedPeriodicSpline {
public:
    PackedPeriodicSpline() = default;
    explicit PackedPeriodicSpline(const PeriodicCubicSpline& s);

    std::size_t size() const { return n_; }
    bool valid() const { return n_ > 0; }
    /// The 4 coefficients per interval, interval-major (the splineAffine
    /// kernel layout, numeric/simd/simd.hpp).
    const Vec& coefficients() const { return c_; }

    double operator()(double t) const;
    /// out[i] = (*this)(t[i]).  Both batched forms run simd::kernels(),
    /// bitwise-equal to operator() (numeric/simd/simd.hpp lane contract).
    void evalMany(const double* t, double* out, std::size_t n) const;
    /// Fused affine form out[i] = add + mul * (*this)(t[i]) — the shape of
    /// the GAE right-hand side, evaluated in one pass per batch step.
    void evalManyAffine(const double* t, double* out, std::size_t n, double mul,
                        double add) const;

private:
    std::size_t n_ = 0;
    Vec c_;  ///< 4 coefficients per interval, interval-major
};

/// Resample a (possibly non-uniform) time series onto `n` uniform points over
/// [t0, t0+period), linearly interpolating.  Used to normalize shooting/PSS
/// output onto the 1-periodic grid of eq. (6).
Vec resampleUniform(const Vec& t, const Vec& x, double t0, double period, std::size_t n);

}  // namespace phlogon::num
