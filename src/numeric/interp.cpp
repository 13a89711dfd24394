#include "numeric/interp.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "numeric/lu.hpp"
#include "numeric/simd/simd.hpp"

namespace phlogon::num {

double wrap01(double t) {
    double w = t - std::floor(t);
    if (w >= 1.0) w = 0.0;  // guard against floor rounding
    return w;
}

double PeriodicLinear::operator()(double t) const {
    assert(!x_.empty());
    const std::size_t n = x_.size();
    const double u = wrap01(t) * static_cast<double>(n);
    const std::size_t i = static_cast<std::size_t>(u) % n;
    const double frac = u - std::floor(u);
    const std::size_t j = (i + 1) % n;
    return x_[i] + frac * (x_[j] - x_[i]);
}

namespace {

/// Thomas algorithm for a constant-coefficient tridiagonal system with
/// diagonal `diag` (modified at both ends) and off-diagonal `off`.
Vec solveTridiag(double diagFirst, double diag, double diagLast, double off, Vec d) {
    const std::size_t n = d.size();
    Vec c(n, 0.0);
    double b = diagFirst;
    c[0] = off / b;
    d[0] /= b;
    for (std::size_t i = 1; i < n; ++i) {
        const double bi = (i + 1 == n ? diagLast : diag) - off * c[i - 1];
        c[i] = off / bi;
        d[i] = (d[i] - off * d[i - 1]) / bi;
    }
    for (std::size_t i = n - 1; i-- > 0;) d[i] -= c[i] * d[i + 1];
    return d;
}

}  // namespace

PeriodicCubicSpline::PeriodicCubicSpline(Vec samples) : x_(std::move(samples)) {
    const std::size_t n = x_.size();
    if (n < 3) throw std::invalid_argument("PeriodicCubicSpline needs >= 3 samples");
    // Solve the cyclic tridiagonal system for second derivatives m_i:
    //   (h/6) m_{i-1} + (2h/3) m_i + (h/6) m_{i+1} = (x_{i+1} - 2 x_i + x_{i-1}) / h
    // with h = 1/n and periodic wraparound, via the O(n) Sherman-Morrison
    // correction of the Thomas algorithm (the spline backs the GAE's g(),
    // built thousands of times inside parameter sweeps).
    const double h = 1.0 / static_cast<double>(n);
    const double off = h / 6.0;   // sub/super diagonal and both corners
    const double diag = 4.0 * off;  // 2h/3
    Vec rhs(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t im = (i + n - 1) % n;
        const std::size_t ip = (i + 1) % n;
        rhs[i] = (x_[ip] - 2.0 * x_[i] + x_[im]) / h;
    }
    // Cyclic correction (Numerical Recipes): gamma = -diag; corners alpha =
    // beta = off.
    const double gamma = -diag;
    const double diagFirst = diag - gamma;
    const double diagLast = diag - off * off / gamma;
    const Vec y = solveTridiag(diagFirst, diag, diagLast, off, rhs);
    Vec u(n, 0.0);
    u[0] = gamma;
    u[n - 1] = off;
    const Vec z = solveTridiag(diagFirst, diag, diagLast, off, u);
    const double fact =
        (y[0] + off * y[n - 1] / gamma) / (1.0 + z[0] + off * z[n - 1] / gamma);
    m_ = y;
    for (std::size_t i = 0; i < n; ++i) m_[i] -= fact * z[i];
}

double PeriodicCubicSpline::operator()(double t) const {
    const std::size_t n = x_.size();
    const double h = 1.0 / static_cast<double>(n);
    const double u = wrap01(t) * static_cast<double>(n);
    const std::size_t i = static_cast<std::size_t>(u) % n;
    const std::size_t j = (i + 1) % n;
    const double s = (u - std::floor(u)) * h;  // local coordinate in [0, h)
    const double a = (h - s) / h;
    const double b = s / h;
    return a * x_[i] + b * x_[j] +
           ((a * a * a - a) * m_[i] + (b * b * b - b) * m_[j]) * (h * h) / 6.0;
}

void PeriodicCubicSpline::evalMany(const double* t, double* out, std::size_t n) const {
    const std::size_t kn = x_.size();
    const double h = 1.0 / static_cast<double>(kn);
    for (std::size_t e = 0; e < n; ++e) {
        // Exact replica of operator(): bitwise-identical batched results.
        const double u = wrap01(t[e]) * static_cast<double>(kn);
        const std::size_t i = static_cast<std::size_t>(u) % kn;
        const std::size_t j = (i + 1) % kn;
        const double s = (u - std::floor(u)) * h;
        const double a = (h - s) / h;
        const double b = s / h;
        out[e] = a * x_[i] + b * x_[j] +
                 ((a * a * a - a) * m_[i] + (b * b * b - b) * m_[j]) * (h * h) / 6.0;
    }
}

PackedPeriodicSpline::PackedPeriodicSpline(const PeriodicCubicSpline& s) : n_(s.size()) {
    // Rewrite the Hermite form a*x_i + b*x_j + ((a^3-a)m_i + (b^3-b)m_j)h^2/6
    // (a = 1-u, b = u) as a cubic in the local fraction u:
    //   c0 = x_i
    //   c1 = (x_j - x_i) - h^2/6 * (2 m_i + m_j)
    //   c2 = h^2/2 * m_i
    //   c3 = h^2/6 * (m_j - m_i)
    const Vec& x = s.samples();
    const Vec& m = s.curvatures();
    const double h = 1.0 / static_cast<double>(n_);
    const double h2over6 = h * h / 6.0;
    c_.assign(4 * n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t j = (i + 1) % n_;
        c_[4 * i + 0] = x[i];
        c_[4 * i + 1] = (x[j] - x[i]) - h2over6 * (2.0 * m[i] + m[j]);
        c_[4 * i + 2] = 3.0 * h2over6 * m[i];
        c_[4 * i + 3] = h2over6 * (m[j] - m[i]);
    }
}

double PackedPeriodicSpline::operator()(double t) const {
    const double u = wrap01(t) * static_cast<double>(n_);
    std::size_t i = static_cast<std::size_t>(u);
    double s = u - static_cast<double>(i);
    if (i >= n_) {
        // wrap01 < 1, but *n_ can round up to n_.  Wrap to segment 0 at its
        // left knot (value exactly x_[0]) the way PeriodicCubicSpline's
        // i % n does, instead of the old clamp to segment n_-1 at s = 1,
        // which disagreed with the source spline by a rounding step.
        i = 0;
        s = 0.0;
    }
    const double* c = &c_[4 * i];
    return c[0] + s * (c[1] + s * (c[2] + s * c[3]));
}

void PackedPeriodicSpline::evalMany(const double* t, double* out, std::size_t n) const {
    evalManyAffine(t, out, n, 1.0, 0.0);
}

void PackedPeriodicSpline::evalManyAffine(const double* t, double* out, std::size_t n,
                                          double mul, double add) const {
    simd::kernels().splineAffine(c_.data(), n_, t, out, n, mul, add);
}

double PeriodicCubicSpline::derivative(double t) const {
    const std::size_t n = x_.size();
    const double h = 1.0 / static_cast<double>(n);
    const double u = wrap01(t) * static_cast<double>(n);
    const std::size_t i = static_cast<std::size_t>(u) % n;
    const std::size_t j = (i + 1) % n;
    const double s = (u - std::floor(u)) * h;
    const double a = (h - s) / h;
    const double b = s / h;
    return (x_[j] - x_[i]) / h + ((1.0 - 3.0 * a * a) * m_[i] + (3.0 * b * b - 1.0) * m_[j]) * h / 6.0;
}

Vec resampleUniform(const Vec& t, const Vec& x, double t0, double period, std::size_t n) {
    assert(t.size() == x.size() && t.size() >= 2);
    Vec out(n);
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double ti = t0 + period * static_cast<double>(i) / static_cast<double>(n);
        while (k + 2 < t.size() && t[k + 1] < ti) ++k;
        // Clamp outside the sampled range.
        if (ti <= t.front()) {
            out[i] = x.front();
        } else if (ti >= t.back()) {
            out[i] = x.back();
        } else {
            // The advance loop above already positioned k: it stops with
            // t[k+1] >= ti, or at k == size-2 where t[k+1] = t.back() > ti
            // in this branch.  (A second advance loop here was dead code.)
            const double dt = t[k + 1] - t[k];
            const double f = dt > 0 ? (ti - t[k]) / dt : 0.0;
            out[i] = x[k] + f * (x[k + 1] - x[k]);
        }
    }
    return out;
}

}  // namespace phlogon::num
