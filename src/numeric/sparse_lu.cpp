#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/metrics.hpp"

namespace phlogon::num {

namespace {

/// Singularity threshold relative to the matrix magnitude, mirroring the
/// dense LuFactor semantics (pivot below pivotTol * normMax is singular).
double singularTol(const SparseMatrix& a) {
    double mx = 0.0;
    for (const double v : a.values()) mx = std::max(mx, std::abs(v));
    return 1e-14 * std::max(mx, 1e-300);
}

/// Minimum-degree greedy pick: smallest current degree, smallest index on
/// ties.  O(n) scan per elimination — fine at MNA sizes (n up to a few
/// thousand), and deterministic.
std::size_t minDegreePick(const std::vector<bool>& alive, const std::vector<std::size_t>& deg,
                          std::size_t n) {
    std::size_t best = static_cast<std::size_t>(-1);
    std::size_t bestDeg = static_cast<std::size_t>(-1);
    for (std::size_t i = 0; i < n; ++i)
        if (alive[i] && deg[i] < bestDeg) {
            bestDeg = deg[i];
            best = i;
        }
    return best;
}

}  // namespace

std::vector<std::size_t> minDegreeOrder(const SparseMatrix& a) {
    const std::size_t n = a.rows();
    std::vector<std::size_t> order;
    if (n == 0 || a.cols() != n) return order;
    order.reserve(n);

    // Symmetrized adjacency (A + A^T, no self loops), sorted unique.
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t p = a.rowPtr()[r]; p < a.rowPtr()[r + 1]; ++p) {
            const std::size_t c = a.colIdx()[p];
            if (c == r) continue;
            adj[r].push_back(c);
            adj[c].push_back(r);
        }
    for (auto& v : adj) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    std::vector<bool> alive(n, true);
    std::vector<std::size_t> deg(n);
    for (std::size_t i = 0; i < n; ++i) deg[i] = adj[i].size();

    // Epoch-marked scratch for the neighbor-set unions.
    std::vector<std::size_t> markEpoch(n, 0);
    std::size_t epoch = 0;
    std::vector<std::size_t> nbrs, merged;

    for (std::size_t step = 0; step < n; ++step) {
        const std::size_t v = minDegreePick(alive, deg, n);
        order.push_back(v);
        alive[v] = false;

        nbrs.clear();
        for (const std::size_t u : adj[v])
            if (alive[u]) nbrs.push_back(u);

        // Eliminating v cliques its alive neighbors together.
        for (const std::size_t u : nbrs) {
            ++epoch;
            merged.clear();
            for (const std::size_t w : adj[u])
                if (alive[w] && w != u && markEpoch[w] != epoch) {
                    markEpoch[w] = epoch;
                    merged.push_back(w);
                }
            for (const std::size_t w : nbrs)
                if (w != u && markEpoch[w] != epoch) {
                    markEpoch[w] = epoch;
                    merged.push_back(w);
                }
            std::sort(merged.begin(), merged.end());
            adj[u] = merged;
            deg[u] = merged.size();
        }
        adj[v].clear();
        adj[v].shrink_to_fit();
    }
    return order;
}

// Registry counts: "sparse.lu.factor.calls" counts every full
// factorization, whichever entry point led to it; "sparse.lu.refactor.calls"
// counts numeric-only refactors that succeeded.  A refactor that falls back
// therefore counts once, as the full factorization it became.

bool SparseLu::factor(const SparseMatrix& a, double pivotRel) { return fullFactor(a, pivotRel); }

bool SparseLu::refactor(const SparseMatrix& a, double pivotRel) {
    if (valid_ && a.rows() == n_ && a.cols() == n_ && a.patternStamp() == aPatternStamp_) {
        if (numericRefactor(a, pivotRel)) {
            PHLOGON_COUNT_METRIC("sparse.lu.refactor.calls");
            ++refactors_;
            return true;
        }
        // Reused pivot sequence degraded: fresh pivoting over the same
        // pattern, whose fill-reducing order is still the one in q_.
        return fullFactor(a, pivotRel, /*keepOrder=*/true);
    }
    return fullFactor(a, pivotRel);
}

bool SparseLu::fullFactor(const SparseMatrix& a, double pivotRel, bool keepOrder) {
    PHLOGON_COUNT_METRIC("sparse.lu.factor.calls");
    valid_ = false;
    const std::size_t n = a.rows();
    if (n == 0 || a.cols() != n || !a.patternFrozen()) return false;
    n_ = n;
    const double singTol = singularTol(a);

    // CSC view of A keeping the CSR value position of every entry (the
    // refactor map reuses the positions; the frozen pattern keeps them
    // stable across assemblies).
    std::vector<std::size_t> cscPtr(n + 1, 0), cscRow(a.nnz()), cscVpos(a.nnz());
    for (const std::size_t c : a.colIdx()) ++cscPtr[c + 1];
    for (std::size_t c = 0; c < n; ++c) cscPtr[c + 1] += cscPtr[c];
    {
        std::vector<std::size_t> next(cscPtr.begin(), cscPtr.end() - 1);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t p = a.rowPtr()[r]; p < a.rowPtr()[r + 1]; ++p) {
                const std::size_t pos = next[a.colIdx()[p]]++;
                cscRow[pos] = r;
                cscVpos[pos] = p;
            }
    }

    // The order depends on the pattern alone (minDegreeOrder is
    // deterministic), so a pivot-driven refactorization reuses it.
    if (!keepOrder) q_ = minDegreeOrder(a);
    pinv_.assign(n, npos);
    lp_.assign(n + 1, 0);
    up_.assign(n + 1, 0);
    li_.clear();
    lx_.clear();
    ui_.clear();
    ux_.clear();
    udiag_.assign(n, 0.0);

    // Gilbert-Peierls working set: dense accumulator x, DFS stacks, and an
    // epoch-marked visited array (no per-column clearing).
    std::vector<double> x(n, 0.0);
    std::vector<std::size_t> xi(n), dfsStack(n), edgePos(n);
    std::vector<std::size_t> markEpoch(n, 0);

    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t col = q_[k];
        const std::size_t epoch = k + 1;

        // Symbolic: topological reach of A(:,col) through the columns of L
        // built so far.  xi[top..n-1] receives the reach in topo order.
        std::size_t top = n;
        for (std::size_t p = cscPtr[col]; p < cscPtr[col + 1]; ++p) {
            std::size_t root = cscRow[p];
            if (markEpoch[root] == epoch) continue;
            // Iterative DFS from root.
            std::size_t depth = 0;
            dfsStack[0] = root;
            markEpoch[root] = epoch;
            edgePos[0] = pinv_[root] == npos ? npos : lp_[pinv_[root]];
            while (true) {
                const std::size_t j = dfsStack[depth];
                const std::size_t jcol = pinv_[j];
                bool descended = false;
                if (jcol != npos) {
                    std::size_t& ep = edgePos[depth];
                    while (ep < lp_[jcol + 1]) {
                        const std::size_t child = li_[ep++];
                        if (markEpoch[child] != epoch) {
                            markEpoch[child] = epoch;
                            ++depth;
                            dfsStack[depth] = child;
                            edgePos[depth] =
                                pinv_[child] == npos ? npos : lp_[pinv_[child]];
                            descended = true;
                            break;
                        }
                    }
                }
                if (descended) continue;
                xi[--top] = j;  // post-order = topological for the solve
                if (depth == 0) break;
                --depth;
            }
        }

        // Numeric: x = L \ A(:,col) over the reach.
        for (std::size_t p = cscPtr[col]; p < cscPtr[col + 1]; ++p)
            x[cscRow[p]] = a.values()[cscVpos[p]];
        for (std::size_t px = top; px < n; ++px) {
            const std::size_t j = xi[px];
            const std::size_t jcol = pinv_[j];
            if (jcol == npos) continue;
            const double xj = x[j];
            if (xj != 0.0)
                for (std::size_t p = lp_[jcol]; p < lp_[jcol + 1]; ++p)
                    x[li_[p]] -= lx_[p] * xj;
        }

        // Pivot search among the not-yet-pivotal reach entries; gather the
        // pivotal ones as this column of U.
        std::size_t ipiv = npos;
        double amax = -1.0;
        for (std::size_t px = top; px < n; ++px) {
            const std::size_t i = xi[px];
            if (pinv_[i] == npos) {
                const double t = std::abs(x[i]);
                if (t > amax || (t == amax && (ipiv == npos || i < ipiv))) {
                    amax = t;
                    ipiv = i;
                }
            } else {
                ui_.push_back(pinv_[i]);
                ux_.push_back(x[i]);
            }
        }
        if (ipiv == npos || !(amax > singTol) || !std::isfinite(amax)) {
            for (std::size_t px = top; px < n; ++px) x[xi[px]] = 0.0;
            return false;
        }
        // Prefer the diagonal when it is within the threshold of the column
        // max: keeps the permutation close to symmetric, which is what the
        // min-degree fill prediction assumed.
        if (pinv_[col] == npos && std::abs(x[col]) >= pivotRel * amax) ipiv = col;
        const double pivot = x[ipiv];

        udiag_[k] = pivot;
        pinv_[ipiv] = k;
        const double invPivot = 1.0 / pivot;
        for (std::size_t px = top; px < n; ++px) {
            const std::size_t i = xi[px];
            if (pinv_[i] == npos) {
                li_.push_back(i);  // original row; remapped to pivot space below
                lx_.push_back(x[i] * invPivot);
            }
            x[i] = 0.0;
        }
        lp_[k + 1] = li_.size();
        up_[k + 1] = ui_.size();
    }

    // Remap L rows into pivot space and sort each U column ascending (the
    // refactor sweep consumes U rows in increasing pivot order).
    for (std::size_t& r : li_) r = pinv_[r];
    std::vector<std::pair<std::size_t, double>> tmp;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t lo = up_[k], hi = up_[k + 1];
        tmp.assign(hi - lo, {});
        for (std::size_t p = lo; p < hi; ++p) tmp[p - lo] = {ui_[p], ux_[p]};
        std::sort(tmp.begin(), tmp.end());
        for (std::size_t p = lo; p < hi; ++p) {
            ui_[p] = tmp[p - lo].first;
            ux_[p] = tmp[p - lo].second;
        }
    }
    perm_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) perm_[pinv_[i]] = i;
    buildRefactorMap(a);
    aPatternStamp_ = a.patternStamp();
    ++fullFactors_;
    valid_ = true;
    return true;
}

void SparseLu::buildRefactorMap(const SparseMatrix& a) {
    const std::size_t n = n_;
    acolPtr_.assign(n + 1, 0);
    acolRow_.assign(a.nnz(), 0);
    acolVpos_.assign(a.nnz(), 0);
    // Count entries per pivot column, then fill (pivot row, value position).
    std::vector<std::size_t> colOfOrig(n);
    for (std::size_t k = 0; k < n; ++k) colOfOrig[q_[k]] = k;
    for (const std::size_t c : a.colIdx()) ++acolPtr_[colOfOrig[c] + 1];
    for (std::size_t k = 0; k < n; ++k) acolPtr_[k + 1] += acolPtr_[k];
    std::vector<std::size_t> next(acolPtr_.begin(), acolPtr_.end() - 1);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t p = a.rowPtr()[r]; p < a.rowPtr()[r + 1]; ++p) {
            const std::size_t pos = next[colOfOrig[a.colIdx()[p]]]++;
            acolRow_[pos] = pinv_[r];
            acolVpos_[pos] = p;
        }
}

bool SparseLu::numericRefactor(const SparseMatrix& a, double pivotRel) {
    const std::size_t n = n_;
    const double singTol = singularTol(a);
    work_.assign(n, 0.0);  // solveInto shares the scratch and leaves it dirty
    Vec& x = work_;

    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t p = acolPtr_[k]; p < acolPtr_[k + 1]; ++p)
            x[acolRow_[p]] = a.values()[acolVpos_[p]];
        // U rows ascending: each x[j] is final when consumed.
        for (std::size_t p = up_[k]; p < up_[k + 1]; ++p) {
            const std::size_t j = ui_[p];
            const double xj = x[j];
            ux_[p] = xj;
            x[j] = 0.0;
            if (xj != 0.0)
                for (std::size_t lpp = lp_[j]; lpp < lp_[j + 1]; ++lpp)
                    x[li_[lpp]] -= lx_[lpp] * xj;
        }
        const double pivot = x[k];
        x[k] = 0.0;
        double colMax = std::abs(pivot);
        for (std::size_t p = lp_[k]; p < lp_[k + 1]; ++p)
            colMax = std::max(colMax, std::abs(x[li_[p]]));
        // Pivot-health gate: the recorded pivot row must still pass the
        // threshold test it originally won, or a fresh pivot search is due.
        if (!(std::abs(pivot) > singTol) || !std::isfinite(colMax) ||
            std::abs(pivot) < pivotRel * colMax) {
            for (std::size_t p = lp_[k]; p < lp_[k + 1]; ++p) x[li_[p]] = 0.0;
            return false;
        }
        udiag_[k] = pivot;
        const double invPivot = 1.0 / pivot;
        for (std::size_t p = lp_[k]; p < lp_[k + 1]; ++p) {
            lx_[p] = x[li_[p]] * invPivot;
            x[li_[p]] = 0.0;
        }
    }
    return true;
}

void SparseLu::solveInto(const Vec& b, Vec& x) const {
    PHLOGON_COUNT_METRIC("sparse.lu.solve.calls");
    const std::size_t n = n_;
    assert(valid_ && b.size() == n);
    assert(&b != &x);
    work_.resize(n);
    Vec& w = work_;
    // w = P b, then L w' = w (unit lower, column-oriented forward subst).
    for (std::size_t k = 0; k < n; ++k) w[k] = b[perm_[k]];
    for (std::size_t j = 0; j < n; ++j) {
        const double wj = w[j];
        if (wj != 0.0)
            for (std::size_t p = lp_[j]; p < lp_[j + 1]; ++p) w[li_[p]] -= lx_[p] * wj;
    }
    // U w'' = w' (column-oriented back substitution), then x = Q w''.
    for (std::size_t kk = n; kk-- > 0;) {
        const double wk = w[kk] / udiag_[kk];
        w[kk] = wk;
        if (wk != 0.0)
            for (std::size_t p = up_[kk]; p < up_[kk + 1]; ++p) w[ui_[p]] -= ux_[p] * wk;
    }
    x.resize(n);
    for (std::size_t k = 0; k < n; ++k) x[q_[k]] = w[k];
}

Vec SparseLu::solve(const Vec& b) const {
    Vec x;
    solveInto(b, x);
    return x;
}

double SparseLu::rcondEstimate() const {
    if (!valid_ || n_ == 0) return 0.0;
    double mn = std::abs(udiag_[0]), mx = mn;
    for (std::size_t i = 1; i < n_; ++i) {
        const double p = std::abs(udiag_[i]);
        mn = std::min(mn, p);
        mx = std::max(mx, p);
    }
    return mx > 0 ? mn / mx : 0.0;
}

std::optional<Vec> solveLinearSparse(const SparseMatrix& a, const Vec& b) {
    SparseLu lu;
    if (!lu.factor(a)) return std::nullopt;
    return lu.solve(b);
}

}  // namespace phlogon::num
