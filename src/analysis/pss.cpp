#include "analysis/pss.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "analysis/dcop.hpp"
#include "analysis/step_solver.hpp"
#include "analysis/trap_util.hpp"
#include "analysis/waveform.hpp"
#include "numeric/interp.hpp"
#include "numeric/lu.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::an {

namespace {

using num::LuFactor;
using num::Matrix;
using num::Vec;

/// Pick the unknown with the largest swing over the stored trajectory,
/// preferring node voltages over branch currents.
int autoPhaseUnknown(const Dae& dae, const TransientResult& tr) {
    int best = -1;
    double bestSwing = 0.0;
    for (std::size_t i = 0; i < dae.size(); ++i) {
        const std::string& name = dae.netlist().unknownName(i);
        if (name.rfind("I(", 0) == 0) continue;  // skip branch currents
        const double swing = peakToPeak(tr.column(i));
        if (swing > bestSwing) {
            bestSwing = swing;
            best = static_cast<int>(i);
        }
    }
    return best;
}

/// Preallocated state for integratePeriod, reused across shooting
/// iterations: the implicit stepper (Newton workspace + DAE scratch), the
/// old-point values and the sensitivity-chain matrices/LU.
struct PeriodWorkspace {
    explicit PeriodWorkspace(const Dae& dae)
        : alg(detail::algebraicRows(dae.evalC(0.0, Vec(dae.size(), 0.0)))),
          stepper(dae, /*trapezoidal=*/true, alg) {}

    std::vector<bool> alg;
    detail::ImplicitStepper stepper;
    Vec qk, fk;
    Matrix ck, gk;
    Matrix mMat, nMat, rhs;
    LuFactor sensLu;
};

/// Integrate `m` TRAP steps of size h from x0 (autonomous: t arbitrary),
/// propagating the n x (n+1) sensitivity [dx/dx0 | dx/dT] when `sens` is
/// non-null.  Fills states (m+1 entries).  Returns false on step failure.
bool integratePeriod(const Dae& dae, PeriodWorkspace& pw, const Vec& x0, double period,
                     std::size_t m, const num::NewtonOptions& stepNewton,
                     std::vector<Vec>& states, Matrix* sens, num::SolverCounters& counters) {
    OBS_SPAN("pss.period");
    const std::size_t n = dae.size();
    const double h = period / static_cast<double>(m);
    states.resize(m + 1);
    states[0] = x0;

    dae.eval(0.0, x0, pw.qk, pw.fk, &pw.ck, &pw.gk);
    ++counters.rhsEvals;
    ++counters.jacEvals;

    if (sens) {
        sens->resize(n, n + 1);
        for (std::size_t i = 0; i < n; ++i) (*sens)(i, i) = 1.0;
    }

    for (std::size_t k = 0; k < m; ++k) {
        // TRAP residual (algebraic rows collocated at the new point):
        //   (q(x1)-q(xk))/h + w f(x1) + (1-w) f(xk) = 0.
        states[k + 1] = states[k];  // predictor: previous value
        Vec& x1 = states[k + 1];
        if (!pw.stepper.step(0.0, h, pw.qk, pw.fk, x1, stepNewton, counters,
                             /*wantMatrices=*/sens != nullptr)) {
            return false;
        }
        ++counters.steps;

        if (sens) {
            // M * S1 = N * Sk + extra_T, with per-row weights w:
            //   M = C1/h + w G1,  N = Ck/h - (1-w) Gk,
            //   extra for the T column: (q1 - qk) / (h^2 m)   (since h = T/m).
            const Matrix& c1 = pw.stepper.c1();
            const Matrix& g1 = pw.stepper.g1();
            const Vec& q1 = pw.stepper.q1();
            pw.mMat = c1;
            pw.mMat *= 1.0 / h;
            pw.nMat = pw.ck;
            pw.nMat *= 1.0 / h;
            for (std::size_t r = 0; r < n; ++r) {
                const double w = detail::newWeight(pw.alg, r, true);
                for (std::size_t c = 0; c < n; ++c) {
                    pw.mMat(r, c) += w * g1(r, c);
                    pw.nMat(r, c) -= (1.0 - w) * pw.gk(r, c);
                }
            }
            if (!pw.sensLu.refactor(pw.mMat)) return false;
            ++counters.luFactorizations;
            pw.rhs.resize(n, n + 1);
            // rhs = N * sens  (+ T-column extra)
            for (std::size_t r = 0; r < n; ++r)
                for (std::size_t c = 0; c <= n; ++c) {
                    double s = 0.0;
                    for (std::size_t j = 0; j < n; ++j) s += pw.nMat(r, j) * (*sens)(j, c);
                    pw.rhs(r, c) = s;
                }
            const double hm2 = 1.0 / (h * h * static_cast<double>(m));
            for (std::size_t r = 0; r < n; ++r) pw.rhs(r, n) += (q1[r] - pw.qk[r]) * hm2;
            // rhs is fully built, so the solve may overwrite *sens directly
            // (blocked column sweep — the n+1-column hot path of shooting).
            pw.sensLu.solveMatrixInto(pw.rhs, *sens);
            pw.ck = c1;
            pw.gk = pw.stepper.g1();
        }

        pw.qk = pw.stepper.q1();
        pw.fk = pw.stepper.f1();
    }
    return true;
}

}  // namespace

num::Vec PssResult::column(std::size_t idx) const {
    num::Vec out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = xs[i][idx];
    return out;
}

PssResult shootingPss(const Dae& dae, const PssOptions& opt) {
    OBS_SPAN("pss.shoot");
    const auto wallStart = std::chrono::steady_clock::now();
    PssResult res;
    // The dcop and warm-up transients record their own work, so only the
    // shooting's is recorded as "pss"; theirs is folded in for callers after.
    num::SolverCounters nested;
    const auto finish = [&res, &nested, wallStart] {
        res.counters.wallSeconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wallStart).count();
        obs::recordSolverCounters("pss", res.counters);
        nested.wallSeconds = 0.0;  // res already holds the whole PSS wall time
        res.counters += nested;
    };
    const std::size_t n = dae.size();

    // 1. DC operating point + deterministic asymmetric kick.
    const DcopResult dc = dcOperatingPoint(dae);
    nested += dc.counters;
    if (!dc.ok) {
        res.message = "DC operating point failed: " + dc.message;
        finish();
        return res;
    }
    Vec x = dc.x;
    for (std::size_t i = 0; i < n; ++i)
        x[i] += opt.kick * std::sin(1.0 + 2.3 * static_cast<double>(i));

    // 2. Transient warmup to approach the limit cycle.
    TransientOptions trOpt;
    trOpt.dt = 1.0 / (opt.freqHint * static_cast<double>(opt.stepsPerCycleWarmup));
    trOpt.newton = opt.stepNewton;
    double warmupSpan = static_cast<double>(opt.warmupCycles) / opt.freqHint;
    TransientResult warm;
    PeriodEstimate pe;
    int phaseIdx = opt.phaseUnknown;
    for (int attempt = 0; attempt < 3; ++attempt) {
        OBS_SPAN("pss.warmup");
        warm = transient(dae, x, 0.0, warmupSpan, trOpt);
        nested += warm.counters;
        if (!warm.ok) {
            res.message = "warmup transient failed: " + warm.message;
            finish();
            return res;
        }
        if (phaseIdx < 0) phaseIdx = autoPhaseUnknown(dae, warm);
        if (phaseIdx < 0) {
            res.message = "no oscillating unknown found";
            finish();
            return res;
        }
        const Vec sig = warm.column(static_cast<std::size_t>(phaseIdx));
        // Estimate period from the second half of the record only.
        const std::size_t half = sig.size() / 2;
        const Vec tTail(warm.t.begin() + static_cast<long>(half), warm.t.end());
        const Vec sTail(sig.begin() + static_cast<long>(half), sig.end());
        pe = estimatePeriod(tTail, sTail, mean(sTail));
        if (pe.ok && pe.jitter < 0.05 * pe.period) break;
        warmupSpan *= 2.0;  // not settled yet: warm up longer
        x = warm.x.back();
        pe.ok = false;
    }
    if (!pe.ok) {
        res.message = "oscillation did not settle during warmup";
        finish();
        return res;
    }
    res.phaseUnknown = phaseIdx;

    // 3. Seed x0 on a steep rising crossing of the phase unknown's mean level
    //    (transversal phase condition).
    const Vec sig = warm.column(static_cast<std::size_t>(phaseIdx));
    const double level = mean(Vec(sig.end() - static_cast<long>(sig.size() / 2), sig.end()));
    Vec x0 = warm.x.back();
    {
        // Walk backward to the last rising crossing of `level`.
        std::size_t kc = 0;
        bool found = false;
        for (std::size_t i = sig.size(); i-- > 1;) {
            if (sig[i - 1] < level && sig[i] >= level) {
                kc = i;
                found = true;
                break;
            }
        }
        if (found) {
            const double a = sig[kc - 1] - level, b = sig[kc] - level;
            const double f = (b - a) != 0.0 ? -a / (b - a) : 0.0;
            x0.resize(n);
            for (std::size_t j = 0; j < n; ++j)
                x0[j] = warm.x[kc - 1][j] + f * (warm.x[kc][j] - warm.x[kc - 1][j]);
        }
    }
    double period = pe.period;

    // 4. Shooting Newton on (x0, T).
    const std::size_t m = opt.shootingSteps;
    PeriodWorkspace pw(dae);
    std::vector<Vec> states;
    Matrix sens;
    Matrix j(n + 1, n + 1);
    LuFactor borderedLu;
    Vec bigF(n + 1), dz;
    double fNorm = 0.0;
    bool converged = false;
    for (int it = 0; it < opt.maxShootIter; ++it) {
        res.shootIterations = it + 1;
        if (!integratePeriod(dae, pw, x0, period, m, opt.stepNewton, states, &sens,
                             res.counters)) {
            res.message = "shooting: period integration failed";
            finish();
            return res;
        }
        // Residual.
        for (std::size_t i = 0; i < n; ++i) bigF[i] = states[m][i] - x0[i];
        bigF[n] = x0[static_cast<std::size_t>(phaseIdx)] - level;
        fNorm = num::normInf(bigF);
        res.shootResidual = fNorm;
        if (fNorm < opt.tol) {
            converged = true;
            break;
        }
        // Bordered Jacobian: [S_x - I, s_T; e_p^T, 0].
        j.fill(0.0);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) j(r, c) = sens(r, c) - (r == c ? 1.0 : 0.0);
            j(r, n) = sens(r, n);
        }
        j(n, static_cast<std::size_t>(phaseIdx)) = 1.0;
        if (!borderedLu.refactor(j)) {
            if (std::getenv("PHLOGON_DEBUG_PSS")) {
                std::fprintf(stderr, "[pss] iter %d period=%.6e fNorm=%.3e\nJ=\n%s\n", it, period,
                             fNorm, j.toString(3).c_str());
            }
            res.message = "shooting: singular bordered Jacobian";
            finish();
            return res;
        }
        ++res.counters.luFactorizations;
        borderedLu.solveInto(bigF, dz);
        // Damp: never change T by more than 20% in one go.
        double damp = 1.0;
        if (std::abs(dz[n]) > 0.2 * period) damp = 0.2 * period / std::abs(dz[n]);
        for (std::size_t i = 0; i < n; ++i) x0[i] -= damp * dz[i];
        period -= damp * dz[n];
        if (!(period > 0)) {
            res.message = "shooting: period became non-positive";
            finish();
            return res;
        }
    }
    if (!converged) {
        res.message = "shooting did not converge (residual " + std::to_string(fNorm) + ")";
        finish();
        return res;
    }

    // 5. Final fine trajectory + uniform resampling.
    if (!integratePeriod(dae, pw, x0, period, m, opt.stepNewton, states, nullptr,
                         res.counters)) {
        res.message = "final PSS integration failed";
        finish();
        return res;
    }
    res.period = period;
    res.f0 = 1.0 / period;
    res.xFine = states;
    res.tFine = num::linspace(0.0, period, m + 1);
    res.xs.assign(opt.nSamples, Vec(n));
    for (std::size_t i = 0; i < n; ++i) {
        Vec col(m + 1);
        for (std::size_t k = 0; k <= m; ++k) col[k] = states[k][i];
        const Vec u = num::resampleUniform(res.tFine, col, 0.0, period, opt.nSamples);
        for (std::size_t k = 0; k < opt.nSamples; ++k) res.xs[k][i] = u[k];
    }
    res.ok = true;
    res.message = "ok";
    finish();
    return res;
}

}  // namespace phlogon::an
