#include "core/noise.hpp"

#include <cmath>
#include <random>
#include <stdexcept>

#include "core/gae_sweep.hpp"
#include "numeric/interp.hpp"
#include "numeric/parallel.hpp"
#include "numeric/rng.hpp"
#include "numeric/simd/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::core {

namespace {
constexpr std::uint64_t kSeedIncrement = 0x9e3779b97f4a7c15ull;  // 2^64 / golden ratio
}

std::uint64_t mixSeed(std::uint64_t seed) {
    // SplitMix64 (Steele, Lea & Flood 2014) finalizer.
    std::uint64_t z = seed + kSeedIncrement;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t deriveTrialSeed(std::uint64_t base, std::uint64_t trial) {
    return mixSeed(base + kSeedIncrement * trial);
}

double phaseDiffusion(const PpvModel& model, const std::vector<NoiseSource>& sources) {
    if (!model.valid()) throw std::invalid_argument("phaseDiffusion: invalid model");
    const std::size_t n = model.sampleCount();
    double acc = 0.0;
    for (const NoiseSource& s : sources) {
        if (s.unknownIndex >= model.size())
            throw std::invalid_argument("phaseDiffusion: source index out of range");
        const Vec& v = model.ppvSamples(s.unknownIndex);
        double sum = 0.0;
        for (double vi : v) sum += vi * vi;
        // One-sided PSD convention: var growth rate = S * <v^2>.
        acc += s.psd * sum / static_cast<double>(n);
    }
    return acc;
}

double resistorCurrentPsd(double ohms, double temperatureK) {
    constexpr double kB = 1.380649e-23;
    if (!(ohms > 0)) throw std::invalid_argument("resistorCurrentPsd: non-positive R");
    return 4.0 * kB * temperatureK / ohms;
}

StochasticGaeResult stochasticGaeTransient(const Gae& gae, double cSeconds, double dphi0,
                                           double t0, double t1,
                                           const StochasticGaeOptions& opt) {
    StochasticGaeResult res;
    if (!(t1 > t0)) return res;
    const double f0 = gae.f0();
    const double dt = opt.dt > 0 ? opt.dt : 1.0 / (20.0 * f0);
    // Noise term in cycles: alpha diffuses with c [s]; dphi = f0 * alpha.
    const double sigma = f0 * std::sqrt(std::max(cSeconds, 0.0));

    // One engine per path, seeded through the SplitMix64 mix — the same
    // per-trial derived-seed scheme the ensemble loop uses (a raw nearby
    // seed like base+k would give correlated mt19937_64 streams).
    std::mt19937_64 rng(mixSeed(opt.seed));
    std::normal_distribution<double> gauss(0.0, 1.0);

    const std::size_t nSteps =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil((t1 - t0) / dt)));
    const double h = (t1 - t0) / static_cast<double>(nSteps);
    const double sqrtH = std::sqrt(h);
    double phi = dphi0;
    res.t.reserve(nSteps / opt.storeEvery + 2);
    res.dphi.reserve(nSteps / opt.storeEvery + 2);
    res.t.push_back(t0);
    res.dphi.push_back(phi);
    for (std::size_t k = 0; k < nSteps; ++k) {
        phi += gae.rhs(phi) * h + sigma * sqrtH * gauss(rng);
        if ((k + 1) % opt.storeEvery == 0 || k + 1 == nSteps) {
            res.t.push_back(t0 + h * static_cast<double>(k + 1));
            res.dphi.push_back(phi);
        }
    }
    res.ok = true;
    return res;
}

HoldErrorResult holdErrorProbability(const Gae& gae, double cSeconds, double dphi0,
                                     double holdTime, std::size_t trials,
                                     const StochasticGaeOptions& opt) {
    return holdErrorProbabilityRange(gae, cSeconds, dphi0, holdTime, 0, trials, opt);
}

HoldErrorResult holdErrorProbabilityRange(const Gae& gae, double cSeconds, double dphi0,
                                          double holdTime, std::size_t firstTrial,
                                          std::size_t trials,
                                          const StochasticGaeOptions& opt) {
    HoldErrorResult out;
    const auto stable = gae.stableEquilibria();
    if (stable.empty()) throw std::invalid_argument("holdErrorProbability: no stable lock");
    // Start at the stable phase nearest dphi0.
    double start = stable[0].dphi;
    for (const auto& e : stable)
        if (phaseDistance(e.dphi, dphi0) < phaseDistance(start, dphi0)) start = e.dphi;

    // One outcome slot per trial; the serial reduction below then sees the
    // same values in the same order at any thread count.
    enum : unsigned char { kFailed = 0, kHeld = 1, kLost = 2 };
    std::vector<unsigned char> outcome(trials, kFailed);

    // Shared decode: nearest stable phase to the (wrapped) end point.
    const auto decode = [&](double end) -> unsigned char {
        double best = 1e9;
        double bestPhase = start;
        for (const auto& e : stable) {
            const double dist = phaseDistance(e.dphi, end);
            if (dist < best) {
                best = dist;
                bestPhase = e.dphi;
            }
        }
        return phaseDistance(bestPhase, start) > 1e-9 ? kLost : kHeld;
    };

    if (opt.batch > 0 && holdTime > 0.0) {
        // Batched SoA engine: `batch` trials per thread-pool slot advance in
        // lockstep; each Euler-Maruyama step does one packed-polynomial pass
        // over the g table for the whole block and one ziggurat draw per
        // lane.  Lane l's state and RNG stream depend only on its trial
        // index, so the outcomes are bitwise invariant under thread count
        // and batch size (see StochasticGaeOptions::batch).
        OBS_SPAN("noise.holdError.batch");
        const double f0 = gae.f0();
        const double dt = opt.dt > 0 ? opt.dt : 1.0 / (20.0 * f0);
        const double sigma = f0 * std::sqrt(std::max(cSeconds, 0.0));
        const std::size_t nSteps =
            std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(holdTime / dt)));
        const double h = holdTime / static_cast<double>(nSteps);
        const double sqrtH = std::sqrt(h);
        const double sigmaSqrtH = sigma * sqrtH;
        const auto& zig = num::ZigguratNormal::instance();
        // Dispatched per-step kernels, bitwise-identical to the scalar loops
        // (lane streams are independent, so drawing all lanes' normals
        // before the update is the same arithmetic as interleaving).
        const num::simd::Kernels& kr = num::simd::kernels();
        const std::size_t nBlocks = (trials + opt.batch - 1) / opt.batch;
        num::parallelFor(
            nBlocks,
            [&](std::size_t blk) {
                const std::size_t lo = blk * opt.batch;
                const std::size_t n = std::min(trials, lo + opt.batch) - lo;
                std::vector<double> phi(n, start), drift(n), z(n);
                std::vector<num::SplitMix64> rngs;
                rngs.reserve(n);
                for (std::size_t l = 0; l < n; ++l)
                    rngs.emplace_back(deriveTrialSeed(opt.seed, firstTrial + lo + l));
                for (std::size_t k = 0; k < nSteps; ++k) {
                    gae.rhsManyPacked(phi.data(), drift.data(), n);
                    kr.normalFill(zig, rngs.data(), z.data(), n);
                    kr.mcUpdate(phi.data(), drift.data(), h, sigmaSqrtH, z.data(), n);
                }
                for (std::size_t l = 0; l < n; ++l) outcome[lo + l] = decode(phi[l]);
                PHLOGON_ADD_METRIC("batch.mc.trials", n);
                PHLOGON_ADD_METRIC("batch.mc.steps", n * nSteps);
            },
            opt.threads);
        PHLOGON_ADD_METRIC("batch.mc.blocks", nBlocks);
    } else if (opt.batch == 0) {
    num::parallelFor(
        trials,
        [&](std::size_t trial) {
            StochasticGaeOptions o = opt;
            // Counter-based per-trial seed: stochasticGaeTransient mixes the
            // seed, so the engine runs on deriveTrialSeed(opt.seed, trial)
            // with `trial` the absolute ensemble index.
            o.seed = opt.seed + kSeedIncrement * (firstTrial + trial);
            o.storeEvery = 1u << 20;  // end point only
            const StochasticGaeResult r = stochasticGaeTransient(gae, cSeconds, start, 0.0,
                                                                 holdTime, o);
            if (!r.ok) return;
            outcome[trial] = decode(r.dphi.back());
        },
        opt.threads);
    }
    for (unsigned char oc : outcome) {
        if (oc == kFailed) continue;
        ++out.trials;
        if (oc == kLost) ++out.errors;
    }
    return out;
}

}  // namespace phlogon::core
