#include "numeric/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace phlogon::num {

void SparseMatrix::reset(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    frozen_ = false;
    ++patternStamp_;
    pending_.clear();
    rowPtr_.clear();
    colIdx_.clear();
    val_.clear();
    slotCache_.clear();
    cursor_ = 0;
}

void SparseMatrix::beginAssembly() {
    if (frozen_) std::fill(val_.begin(), val_.end(), 0.0);
    pending_.clear();
    cursor_ = 0;
}

void SparseMatrix::add(std::size_t r, std::size_t c, double v) {
    assert(r < rows_ && c < cols_);
    const std::size_t k = cursor_++;
    if (frozen_) {
        std::size_t slot = k < slotCache_.size() ? slotCache_[k] : npos;
        if (slot < rowPtr_[r] || slot >= rowPtr_[r + 1] || colIdx_[slot] != c) {
            // Cache miss: binary-search and remember for the next assembly.
            slot = findSlot(r, c);
            if (k >= slotCache_.size()) slotCache_.resize(k + 1, npos);
            slotCache_[k] = slot;
        }
        if (slot != npos) {
            val_[slot] += v;
            return;
        }
    }
    pending_.push_back({r, c, v});
}

std::size_t SparseMatrix::findSlot(std::size_t r, std::size_t c) const {
    const std::size_t lo = rowPtr_[r], hi = rowPtr_[r + 1];
    const auto first = colIdx_.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = colIdx_.begin() + static_cast<std::ptrdiff_t>(hi);
    const auto it = std::lower_bound(first, last, c);
    if (it != last && *it == c) return static_cast<std::size_t>(it - colIdx_.begin());
    return npos;
}

void SparseMatrix::mergePending() {
    // Gather (row, col, value) from the existing CSR plus every pending
    // triplet, then rebuild.  Sorting is O(nnz log nnz) but happens only on
    // the first assembly and on (rare) pattern growth.
    std::vector<Triplet> all;
    all.reserve(colIdx_.size() + pending_.size());
    for (std::size_t r = 0; r + 1 < rowPtr_.size(); ++r)
        for (std::size_t p = rowPtr_[r]; p < rowPtr_[r + 1]; ++p)
            all.push_back({r, colIdx_[p], val_[p]});
    all.insert(all.end(), pending_.begin(), pending_.end());
    pending_.clear();

    std::sort(all.begin(), all.end(), [](const Triplet& a, const Triplet& b) {
        return a.r != b.r ? a.r < b.r : a.c < b.c;
    });

    rowPtr_.assign(rows_ + 1, 0);
    colIdx_.clear();
    val_.clear();
    colIdx_.reserve(all.size());
    val_.reserve(all.size());
    std::size_t i = 0;
    for (std::size_t r = 0; r < rows_; ++r) {
        rowPtr_[r] = colIdx_.size();
        while (i < all.size() && all[i].r == r) {
            const std::size_t c = all[i].c;
            double v = 0.0;
            while (i < all.size() && all[i].r == r && all[i].c == c) v += all[i++].v;
            colIdx_.push_back(c);
            val_.push_back(v);
        }
    }
    rowPtr_[rows_] = colIdx_.size();
    frozen_ = true;
    ++patternStamp_;
    slotCache_.clear();  // slots moved; the next assembly re-caches them
}

void SparseMatrix::endAssembly() {
    if (frozen_ && pending_.empty()) return;  // idempotent on the hot path
    mergePending();
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
    assert(frozen_);
    const std::size_t slot = findSlot(r, c);
    return slot == npos ? 0.0 : val_[slot];
}

void SparseMatrix::mulVec(const Vec& x, Vec& y) const {
    assert(frozen_ && x.size() == cols_);
    y.assign(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double s = 0.0;
        for (std::size_t p = rowPtr_[r]; p < rowPtr_[r + 1]; ++p) s += val_[p] * x[colIdx_[p]];
        y[r] = s;
    }
}

Matrix SparseMatrix::toDense() const {
    Matrix a(rows_, cols_);
    for (std::size_t r = 0; r + 1 < rowPtr_.size(); ++r)
        for (std::size_t p = rowPtr_[r]; p < rowPtr_[r + 1]; ++p) a(r, colIdx_[p]) += val_[p];
    for (const Triplet& t : pending_) a(t.r, t.c) += t.v;
    return a;
}

SparseMatrix SparseMatrix::fromDense(const Matrix& a, double dropTol) {
    SparseMatrix s(a.rows(), a.cols());
    s.beginAssembly();
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (std::abs(a(r, c)) > dropTol) s.add(r, c, a(r, c));
    s.endAssembly();
    return s;
}

}  // namespace phlogon::num
