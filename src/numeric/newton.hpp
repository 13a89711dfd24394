#pragma once
// Damped Newton-Raphson for nonlinear algebraic systems F(x) = 0.
//
// Used for DC operating points, implicit transient steps and PSS shooting.
// The caller supplies residual and Jacobian callbacks; the solver owns the
// damping / convergence policy.
//
// Two call styles:
//   * the classic allocating interface (ResidualFn/JacobianFn returning
//     fresh containers) — convenient for tests and one-off solves;
//   * the hot-path interface: in-place callbacks writing into caller-owned
//     buffers plus a NewtonWorkspace that preallocates every temporary
//     (residual, step, trial point, Jacobian storage, LU scratch) and can be
//     carried across solves — e.g. across the time steps of a transient —
//     so the inner loop performs no heap allocation at all.
//
// Chord/bypass Newton (opt.jacobianReuse): the LU factorization of the
// Jacobian is kept across iterations — and, via the persistent workspace,
// across time steps — and only refreshed when the residual-norm contraction
// rate degrades past opt.contractionTol (the classic SPICE "Jacobian
// bypass").  A stale factorization still yields a descent-quality step on
// the mildly nonlinear per-step systems of implicit integration; when it
// does not, the damping loop fails, the factorization is invalidated and
// the iteration is retried with a fresh Jacobian, so robustness matches
// full Newton.

#include <cstddef>
#include <functional>
#include <string>

#include "numeric/counters.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "numeric/sparse.hpp"
#include "numeric/sparse_lu.hpp"

namespace phlogon::num {

/// Linear-algebra backend of the Newton inner loop (DESIGN.md §15).  Auto
/// (the default) picks by system size through useSparseSolver: dense LU
/// below kSparseMinUnknowns, where its tight loops win and the historical
/// results stay bitwise; pattern-cached CSR assembly plus the fill-reducing
/// SparseLu at and above it.  Dense and Sparse force one backend (parity
/// tests, scaling benchmarks).
enum class LinearSolver { Auto, Dense, Sparse };

/// Smallest MNA system that Auto routes to the sparse backend.  Measured
/// crossover of chord-free TRAP transients on ring oscillators and RC
/// ladders (DESIGN.md §15); above every design-flow deck (at most 9
/// unknowns), so the design goldens run dense.
inline constexpr std::size_t kSparseMinUnknowns = 16;

/// The size rule: true when a Newton solve over `unknowns` unknowns should
/// take the sparse backend under `solver`.
constexpr bool useSparseSolver(LinearSolver solver, std::size_t unknowns) {
    return solver == LinearSolver::Sparse ||
           (solver == LinearSolver::Auto && unknowns >= kSparseMinUnknowns);
}

struct NewtonOptions {
    int maxIter = 60;
    double absTol = 1e-10;   ///< on the residual infinity-norm
    double stepTol = 1e-12;  ///< on the update infinity-norm (relative to |x|+1)
    /// Line-search damping: halve the step until the residual norm decreases,
    /// at most this many times per iteration.  0 disables damping.
    int maxDampings = 8;
    /// Optional per-unknown step clamp (e.g. limit voltage updates to ~1 V to
    /// keep exponential/quadratic device models from overflowing).  <=0
    /// disables clamping.
    double maxStep = 0.0;
    /// Chord/bypass Newton: reuse the Jacobian LU factorization across
    /// iterations (and across solves sharing a workspace) while the residual
    /// keeps contracting.  Off = classic full Newton (refactor every
    /// iteration), which is bit-for-bit the historical behaviour.
    bool jacobianReuse = false;
    /// With jacobianReuse: refactorize when ||F_new|| / ||F_old|| exceeds
    /// this contraction threshold (or when the step needed damping).
    double contractionTol = 0.5;
    /// Linear-algebra backend.  Auto (default) picks by size through
    /// useSparseSolver; the analyses (dcop, transient, PSS steps) apply it.
    /// The matrix-callback newtonSolve overloads are dense whatever this says.
    LinearSolver linearSolver = LinearSolver::Auto;
};

struct NewtonResult {
    bool converged = false;
    int iterations = 0;
    double residualNorm = 0.0;
    std::string message;
    /// Work performed by this solve (rhsEvals/jacEvals/luFactorizations/
    /// newtonIters/dampingEvents; step fields unused here).
    SolverCounters counters;
};

/// Callback evaluating the residual F(x).
using ResidualFn = std::function<Vec(const Vec&)>;
/// Callback evaluating the Jacobian dF/dx.
using JacobianFn = std::function<Matrix(const Vec&)>;

/// In-place residual: write F(x) into `fx` (callback sizes the output).
using ResidualInPlaceFn = std::function<void(const Vec& x, Vec& fx)>;
/// In-place Jacobian: write dF/dx into `j` (callback sizes the output).
using JacobianInPlaceFn = std::function<void(const Vec& x, Matrix& j)>;
/// In-place sparse Jacobian: assemble dF/dx into the pattern-cached `j`
/// (callback begins/ends assembly; the pattern freezes after the first call
/// and subsequent assemblies are in-place accumulations).
using SparseJacobianInPlaceFn = std::function<void(const Vec& x, SparseMatrix& j)>;

namespace detail {
struct NewtonEngine;  // shared dense/sparse iteration loop (newton.cpp)
}

/// Preallocated scratch for newtonSolve.  Create once, pass to every solve
/// in a loop; all buffers (and the Jacobian LU) are reused.  With
/// NewtonOptions::jacobianReuse the LU carried here warm-starts the next
/// solve (chord across time steps); call invalidateJacobian() whenever the
/// underlying system changes shape or scaling (e.g. the step size changed).
class NewtonWorkspace {
public:
    /// Drop the cached factorization (forces a fresh Jacobian next solve).
    void invalidateJacobian() { luValid_ = false; }
    bool hasFactorization() const { return luValid_; }

private:
    friend struct detail::NewtonEngine;
    Vec fx_, dx_, xTrial_, fTrial_;
    Matrix jac_;
    LuFactor lu_;
    // Sparse twin of (jac_, lu_): the CSR keeps its frozen pattern and the
    // SparseLu its symbolic factorization across every solve sharing this
    // workspace, so steady-state Newton work is numeric-only refactors.
    SparseMatrix sjac_;
    SparseLu slu_;
    bool luValid_ = false;
};

/// Solve F(x) = 0 starting from `x` (updated in place), reusing `ws` for all
/// temporaries.  Zero heap allocation once the workspace is warm.
NewtonResult newtonSolve(const ResidualInPlaceFn& f, const JacobianInPlaceFn& jac, Vec& x,
                         NewtonWorkspace& ws, const NewtonOptions& opt = {});

/// Sparse-backend newtonSolve: same damping/chord policy, with the Jacobian
/// assembled into the workspace's pattern-cached CSR and factorized by the
/// fill-reducing SparseLu (numeric-only refactors once the pattern froze).
/// Used by analyses when useSparseSolver(opt.linearSolver, n) holds.
NewtonResult newtonSolveSparse(const ResidualInPlaceFn& f, const SparseJacobianInPlaceFn& jac,
                               Vec& x, NewtonWorkspace& ws, const NewtonOptions& opt = {});

/// Solve F(x) = 0 starting from `x` (updated in place).  Allocating
/// convenience wrapper over the workspace interface.
NewtonResult newtonSolve(const ResidualFn& f, const JacobianFn& jac, Vec& x,
                         const NewtonOptions& opt = {});

/// Finite-difference Jacobian of `f` at `x` (central differences); used in
/// tests to validate analytic device stamps and in the shooting solver for
/// the period-sensitivity column.
Matrix fdJacobian(const ResidualFn& f, const Vec& x, double relStep = 1e-6);

}  // namespace phlogon::num
