#include "analysis/step_solver.hpp"

#include <utility>

namespace phlogon::an::detail {

ImplicitStepper::ImplicitStepper(const ckt::Dae& dae, bool trapezoidal, std::vector<bool> alg)
    : dae_(&dae), trap_(trapezoidal), alg_(std::move(alg)) {
    residual_ = [this](const num::Vec& x, num::Vec& out) {
        dae_->eval(tNew_, x, qv_, fv_, nullptr, nullptr);
        out.resize(qv_.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            const double w = newWeight(alg_, i, trap_);
            out[i] = (qv_[i] - (*qk_)[i]) / h_ + w * fv_[i] + (1.0 - w) * (*fk_)[i];
        }
    };
    jacobian_ = [this](const num::Vec& x, num::Matrix& out) {
        dae_->eval(tNew_, x, qv_, fv_, &cj_, &gj_);
        out = cj_;
        out *= 1.0 / h_;
        for (std::size_t r = 0; r < out.rows(); ++r) {
            const double w = newWeight(alg_, r, trap_);
            for (std::size_t c = 0; c < out.cols(); ++c) out(r, c) += w * gj_(r, c);
        }
    };
    sparseJacobian_ = [this](const num::Vec& x, num::SparseMatrix& out) {
        dae_->evalSparse(tNew_, x, qv_, fv_, &scj_, &sgj_);
        // Combine J = C/h + w(r) G row by row into the pattern-cached step
        // Jacobian.  Zero-valued adds still claim their slot, so the union
        // pattern freezes after the first step and stays put.
        const std::size_t n = scj_.rows();
        if (out.rows() != n || out.cols() != n) out.reset(n, n);
        out.beginAssembly();
        const double invH = 1.0 / h_;
        for (std::size_t r = 0; r < n; ++r) {
            const double w = newWeight(alg_, r, trap_);
            for (std::size_t p = scj_.rowPtr()[r]; p < scj_.rowPtr()[r + 1]; ++p)
                out.add(r, scj_.colIdx()[p], scj_.values()[p] * invH);
            for (std::size_t p = sgj_.rowPtr()[r]; p < sgj_.rowPtr()[r + 1]; ++p)
                out.add(r, sgj_.colIdx()[p], w * sgj_.values()[p]);
        }
        out.endAssembly();
    };
}

bool ImplicitStepper::step(double tNew, double h, const num::Vec& qk, const num::Vec& fk,
                           num::Vec& xNew, const num::NewtonOptions& opt,
                           num::SolverCounters& counters, bool wantMatrices) {
    tNew_ = tNew;
    h_ = h;
    qk_ = &qk;
    fk_ = &fk;
    // A cached chord factorization embeds C/h — a different step size makes
    // it a poor (badly scaled) preconditioner, so drop it.
    if (h != lastH_) {
        ws_.invalidateJacobian();
        lastH_ = h;
    }

    const num::NewtonResult nr =
        num::useSparseSolver(opt.linearSolver, dae_->size())
            ? num::newtonSolveSparse(residual_, sparseJacobian_, xNew, ws_, opt)
            : num::newtonSolve(residual_, jacobian_, xNew, ws_, opt);
    counters += nr.counters;
    if (!nr.converged) {
        lastMessage_ = nr.message;
        return false;
    }
    // Refresh q/f (and C/G for sensitivity chains) at the converged point.
    dae_->eval(tNew_, xNew, q1_, f1_, wantMatrices ? &c1_ : nullptr,
               wantMatrices ? &g1_ : nullptr);
    ++counters.rhsEvals;
    if (wantMatrices) ++counters.jacEvals;
    return true;
}

}  // namespace phlogon::an::detail
