#include "core/phase_system.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "numeric/batch_ode.hpp"
#include "numeric/interp.hpp"
#include "numeric/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::core {

PhaseSystem::SignalId PhaseSystem::addExternal(std::function<double(double)> fn,
                                               std::string label) {
    Signal s;
    s.kind = SignalKind::External;
    s.external = std::move(fn);
    s.label = std::move(label);
    signals_.push_back(std::move(s));
    return static_cast<SignalId>(signals_.size()) - 1;
}

PhaseSystem::LatchId PhaseSystem::addLatch(PpvModel model, std::string label) {
    return addLatch(std::make_shared<const PpvModel>(std::move(model)), std::move(label));
}

PhaseSystem::LatchId PhaseSystem::addLatch(std::shared_ptr<const PpvModel> model,
                                           std::string label) {
    if (!model || !model->valid())
        throw std::invalid_argument("PhaseSystem::addLatch: invalid model");
    Latch l;
    l.model = std::move(model);
    l.label = std::move(label);
    const LatchId id = static_cast<LatchId>(latches_.size());

    Signal s;
    s.kind = SignalKind::LatchOutput;
    s.latch = id;
    s.label = l.label + ".out";
    signals_.push_back(std::move(s));
    l.outputSignal = static_cast<SignalId>(signals_.size()) - 1;

    latches_.push_back(std::move(l));
    connections_.emplace_back();
    return id;
}

PhaseSystem::SignalId PhaseSystem::latchOutput(LatchId latch) {
    return latches_.at(latch).outputSignal;
}

PhaseSystem::SignalId PhaseSystem::addGate(std::vector<std::pair<SignalId, double>> inputs,
                                           bool invert, double clip, std::string label) {
    const SignalId self = static_cast<SignalId>(signals_.size());
    for (const auto& [id, w] : inputs) {
        (void)w;
        if (id < 0 || id >= self)
            throw std::invalid_argument("PhaseSystem::addGate: input signal id out of range");
    }
    Signal s;
    s.kind = SignalKind::Gate;
    s.inputs = std::move(inputs);
    s.invert = invert;
    s.clip = clip;
    s.label = std::move(label);
    signals_.push_back(std::move(s));
    return self;
}

PhaseSystem::SignalId PhaseSystem::addPlaceholder(std::string label) {
    Signal s;
    s.kind = SignalKind::Placeholder;
    s.label = std::move(label);
    signals_.push_back(std::move(s));
    return static_cast<SignalId>(signals_.size()) - 1;
}

bool PhaseSystem::dependsOn(SignalId id, SignalId of) const {
    if (id == of) return true;
    const Signal& s = signals_[static_cast<std::size_t>(id)];
    switch (s.kind) {
        case SignalKind::Gate:
            for (const auto& [in, w] : s.inputs) {
                (void)w;
                if (dependsOn(in, of)) return true;
            }
            return false;
        case SignalKind::Placeholder:
            return s.target >= 0 && dependsOn(s.target, of);
        default:
            return false;  // externals and latch outputs break combinational paths
    }
}

void PhaseSystem::bindPlaceholder(SignalId placeholder, SignalId target) {
    if (placeholder < 0 || placeholder >= static_cast<SignalId>(signals_.size()) ||
        signals_[static_cast<std::size_t>(placeholder)].kind != SignalKind::Placeholder)
        throw std::invalid_argument("bindPlaceholder: not a placeholder");
    if (target < 0 || target >= static_cast<SignalId>(signals_.size()))
        throw std::invalid_argument("bindPlaceholder: bad target");
    if (dependsOn(target, placeholder))
        throw std::invalid_argument("bindPlaceholder: would create a combinational loop");
    signals_[static_cast<std::size_t>(placeholder)].target = target;
}

void PhaseSystem::connect(LatchId latch, std::size_t unknownIndex, SignalId sig, double gain,
                          double delayCycles) {
    if (latch < 0 || latch >= static_cast<LatchId>(latches_.size()))
        throw std::invalid_argument("PhaseSystem::connect: bad latch id " + std::to_string(latch));
    if (sig < 0 || sig >= static_cast<SignalId>(signals_.size()))
        throw std::invalid_argument("PhaseSystem::connect: bad signal id " + std::to_string(sig));
    const Latch& l = latches_[static_cast<std::size_t>(latch)];
    if (unknownIndex >= l.model->size())
        throw std::invalid_argument(
            "PhaseSystem::connect: unknown index " + std::to_string(unknownIndex) +
            " out of range for latch '" + l.label + "' (id " + std::to_string(latch) +
            "): model has " + std::to_string(l.model->size()) + " unknowns");
    connections_[static_cast<std::size_t>(latch)].push_back({unknownIndex, sig, gain, delayCycles});
}

double PhaseSystem::evalSignal(SignalId id, double t, double f1, const num::Vec& dphi) const {
    const Signal& s = signals_[static_cast<std::size_t>(id)];
    switch (s.kind) {
        case SignalKind::External:
            return s.external(t);
        case SignalKind::LatchOutput: {
            // Unit-amplitude fundamental of the oscillator output: the
            // phase-logic value the latch presents to gates.  (Harmonics of
            // the raw waveform are deliberately dropped; at circuit level
            // they produce small lock-phase offsets, at macromodel level the
            // fundamental is the clean abstraction.)
            const PpvModel& m = *latches_[static_cast<std::size_t>(s.latch)].model;
            const double theta = f1 * t + dphi[static_cast<std::size_t>(s.latch)];
            return std::cos(2.0 * std::numbers::pi * (theta - m.dphiPeak()));
        }
        case SignalKind::Gate: {
            double sum = 0.0;
            for (const auto& [in, w] : s.inputs) sum += w * evalSignal(in, t, f1, dphi);
            if (s.invert) sum = -sum;
            if (s.clip > 0.0) sum = s.clip * std::tanh(sum / s.clip);
            return sum;
        }
        case SignalKind::Placeholder:
            if (s.target < 0)
                throw std::logic_error("PhaseSystem: unbound placeholder '" + s.label + "'");
            return evalSignal(s.target, t, f1, dphi);
    }
    return 0.0;
}

PhaseSystem::Program::Program(const PhaseSystem& sys) : sys_(&sys) {
    const std::size_t n = sys.signals_.size();
    for (const Signal& s : sys.signals_)
        if (s.kind == SignalKind::Placeholder && s.target < 0)
            throw std::logic_error("PhaseSystem::Program: unbound placeholder '" + s.label + "'");

    // Dependency-sorted evaluation order over ALL signals (iterative DFS
    // postorder).  addGate only accepts earlier ids, but a bound placeholder
    // points forward, so creation order alone is not an evaluation order.
    order_.reserve(n);
    std::vector<unsigned char> state(n, 0);  // 0 unvisited, 1 open, 2 placed
    std::vector<SignalId> stack;
    for (std::size_t root = 0; root < n; ++root) {
        if (state[root] == 2) continue;
        stack.push_back(static_cast<SignalId>(root));
        while (!stack.empty()) {
            const SignalId id = stack.back();
            const auto idx = static_cast<std::size_t>(id);
            if (state[idx] == 2) {
                stack.pop_back();
                continue;
            }
            if (state[idx] == 0) {
                state[idx] = 1;
                const Signal& s = sys.signals_[idx];
                if (s.kind == SignalKind::Gate) {
                    for (const auto& [in, w] : s.inputs) {
                        (void)w;
                        if (state[static_cast<std::size_t>(in)] != 2) stack.push_back(in);
                    }
                } else if (s.kind == SignalKind::Placeholder) {
                    if (state[static_cast<std::size_t>(s.target)] != 2) stack.push_back(s.target);
                }
            } else {
                state[idx] = 2;
                order_.push_back(static_cast<std::uint32_t>(id));
                stack.pop_back();
            }
        }
    }

    // Placeholder read-through: in dependency order a target is resolved
    // before any placeholder that names it.
    target_.resize(n);
    for (const std::uint32_t id : order_) {
        const Signal& s = sys.signals_[id];
        target_[id] = s.kind == SignalKind::Placeholder
                          ? target_[static_cast<std::size_t>(s.target)]
                          : id;
    }
    inStart_.assign(n + 1, 0);
    for (std::size_t id = 0; id < n; ++id) {
        const Signal& s = sys.signals_[id];
        if (s.kind == SignalKind::Gate)
            for (const auto& [in, w] : s.inputs) {
                (void)w;
                inId_.push_back(target_[static_cast<std::size_t>(in)]);
            }
        inStart_[id + 1] = static_cast<std::uint32_t>(inId_.size());
    }
}

PhaseSystem::Program::Pass PhaseSystem::Program::compile(
    const std::vector<unsigned char>& keep) const {
    Pass p;
    p.faninStart.push_back(0);
    for (const std::uint32_t id : order_) {
        if (!keep[id]) continue;
        const Signal& s = sys_->signals_[id];
        switch (s.kind) {
            case SignalKind::External:
                p.extOut.push_back(id);
                p.extFn.push_back(&s.external);
                break;
            case SignalKind::LatchOutput:
                p.latchOut.push_back(id);
                p.latchIdx.push_back(static_cast<std::uint32_t>(s.latch));
                p.latchPeak.push_back(
                    sys_->latches_[static_cast<std::size_t>(s.latch)].model->dphiPeak());
                break;
            case SignalKind::Gate:
                p.gateOut.push_back(id);
                for (std::size_t j = 0; j < s.inputs.size(); ++j) {
                    p.faninId.push_back(inId_[inStart_[id] + j]);
                    p.faninW.push_back(s.inputs[j].second);
                }
                p.faninStart.push_back(static_cast<std::uint32_t>(p.faninId.size()));
                p.gateInvert.push_back(s.invert ? 1 : 0);
                p.gateClip.push_back(s.clip);
                break;
            case SignalKind::Placeholder:
                p.aliasOut.push_back(id);
                p.aliasTarget.push_back(target_[id]);
                break;
        }
    }
    return p;
}

PhaseSystem::Program::Pass PhaseSystem::Program::cone(const std::vector<SignalId>& roots) const {
    // order_ places every signal after its inputs, so one reverse sweep marks
    // the whole cone.  Fan-in is already read through placeholders, so only a
    // placeholder named as a root is kept (as an alias of its target).
    std::vector<unsigned char> inCone(order_.size(), 0);
    for (const SignalId r : roots) {
        inCone[static_cast<std::size_t>(r)] = 1;
        inCone[target_[static_cast<std::size_t>(r)]] = 1;
    }
    for (auto it = order_.rbegin(); it != order_.rend(); ++it)
        if (inCone[*it])
            for (std::uint32_t j = inStart_[*it]; j < inStart_[*it + 1]; ++j) inCone[inId_[j]] = 1;
    return compile(inCone);
}

void PhaseSystem::Program::eval(double t, double f1, const double* dphi, const Pass& p,
                                double* out) const {
    // Each expression is evalSignal's for that kind, term for term.
    for (std::size_t i = 0; i < p.extOut.size(); ++i) out[p.extOut[i]] = (*p.extFn[i])(t);
    for (std::size_t i = 0; i < p.latchOut.size(); ++i) {
        const double theta = f1 * t + dphi[p.latchIdx[i]];
        out[p.latchOut[i]] = std::cos(2.0 * std::numbers::pi * (theta - p.latchPeak[i]));
    }
    for (std::size_t g = 0; g < p.gateOut.size(); ++g) {
        // Fan-in summed in declaration order, exactly as the recursive walk
        // sums it — the bitwise-parity anchor.
        double sum = 0.0;
        for (std::uint32_t j = p.faninStart[g]; j < p.faninStart[g + 1]; ++j)
            sum += p.faninW[j] * out[p.faninId[j]];
        if (p.gateInvert[g]) sum = -sum;
        const double clip = p.gateClip[g];
        if (clip > 0.0) sum = clip * std::tanh(sum / clip);
        out[p.gateOut[g]] = sum;
    }
    for (std::size_t i = 0; i < p.aliasOut.size(); ++i) out[p.aliasOut[i]] = out[p.aliasTarget[i]];
}

PhaseSystem::Result PhaseSystem::simulate(double f1, double t0, double t1, const num::Vec& dphi0,
                                          std::size_t stepsPerCycle, std::size_t storeEvery) const {
    OBS_SPAN("phase.simulate");
    Result res;
    const std::size_t k = latches_.size();
    if (dphi0.size() != k)
        throw std::invalid_argument("PhaseSystem::simulate: dphi0 size mismatch");
    if (!(f1 > 0) || !(t1 > t0)) throw std::invalid_argument("PhaseSystem::simulate: bad span");

    const Program prog(*this);
    const std::size_t n = signals_.size();

    // Group connections by exact delay value: one sparse gate-network pass
    // per (RK stage, distinct delay), over the cone of the signals that group
    // reads.  The group time is evalSignal's per-connection argument
    // t - delayCycles / f1, so signal values match it bit-for-bit.  Group g's
    // values live at sig[g * n ...]; a connection keeps its flat offset.
    //
    // PPV dedupe: a latch evaluates ppvAt once per distinct injected unknown
    // (its terms, first-use order) into its own ppv[] slots, and each
    // connection reads its unknown's slot.  ppvAt is pure, so the product
    // and the connection-order sum are unchanged bit for bit.
    struct FlatConn {
        std::uint32_t term;   ///< index into ppv
        std::uint32_t sigAt;  ///< index into sig
        double gain;
    };
    std::vector<double> groupDelay;
    std::vector<std::vector<SignalId>> groupReads;
    std::vector<std::size_t> connStart{0}, termStart{0};
    std::vector<FlatConn> conns;
    std::vector<std::size_t> termUnknown;
    for (std::size_t i = 0; i < k; ++i) {
        for (const Connection& c : connections_[i]) {
            std::size_t g = 0;
            while (g < groupDelay.size() && groupDelay[g] != c.delayCycles) ++g;
            if (g == groupDelay.size()) {
                groupDelay.push_back(c.delayCycles);
                groupReads.emplace_back();
            }
            const SignalId read = prog.resolve(c.signal);
            groupReads[g].push_back(read);
            std::size_t u = termStart[i];
            while (u < termUnknown.size() && termUnknown[u] != c.unknownIndex) ++u;
            if (u == termUnknown.size()) termUnknown.push_back(c.unknownIndex);
            conns.push_back({static_cast<std::uint32_t>(u),
                             static_cast<std::uint32_t>(g * n + static_cast<std::size_t>(read)),
                             c.gain});
        }
        connStart.push_back(conns.size());
        termStart.push_back(termUnknown.size());
    }
    const std::size_t groups = groupDelay.size();
    std::vector<Program::Pass> cone;
    cone.reserve(groups);
    std::size_t coneSignals = 0;
    for (std::size_t g = 0; g < groups; ++g) {
        cone.push_back(prog.cone(groupReads[g]));
        coneSignals += cone[g].size();
    }

    // Each lane writes only its own dydt and ppv slots and reads only shared
    // immutable data, so the fixed block partition and the thread count are
    // bitwise-neutral (parallelFor's slot-per-index contract).
    const std::size_t nBlocks = (k + kLaneBlock - 1) / kLaneBlock;

    std::vector<double> sig(groups * n);
    std::vector<double> ppv(termUnknown.size());
    const num::BatchRhsCoupled rhs = [&](double t, const double* y, double* dydt,
                                         std::size_t lanes) {
        for (std::size_t g = 0; g < groups; ++g)
            prog.eval(t - groupDelay[g] / f1, f1, y, cone[g], sig.data() + g * n);
        auto lane = [&](std::size_t i) {
            const PpvModel& m = *latches_[i].model;
            const double theta = f1 * t + y[i];
            for (std::size_t u = termStart[i]; u < termStart[i + 1]; ++u)
                ppv[u] = m.ppvAt(termUnknown[u], theta);
            double proj = 0.0;
            for (std::size_t c = connStart[i]; c < connStart[i + 1]; ++c)
                proj += ppv[conns[c].term] * conns[c].gain * sig[conns[c].sigAt];
            dydt[i] = (m.f0() - f1) + m.f0() * proj;
        };
        if (nBlocks > 1) {
            num::parallelFor(nBlocks, [&](std::size_t b) {
                const std::size_t lo = b * kLaneBlock;
                const std::size_t hi = std::min(lanes, lo + kLaneBlock);
                for (std::size_t i = lo; i < hi; ++i) lane(i);
            });
        } else {
            for (std::size_t i = 0; i < lanes; ++i) lane(i);
        }
    };

    const std::size_t nSteps =
        static_cast<std::size_t>(std::ceil((t1 - t0) * f1 * static_cast<double>(stepsPerCycle)));
    num::BatchOde ode;
    const num::OdeSolution sol =
        ode.rk4Lockstep(rhs, dphi0, t0, t1, std::max<std::size_t>(nSteps, 1), storeEvery);
    PHLOGON_ADD_METRIC("batch.fabric.lanes", k);
    PHLOGON_ADD_METRIC("batch.fabric.delayGroups", groups);
    PHLOGON_ADD_METRIC("batch.fabric.signals", signals_.size());
    PHLOGON_ADD_METRIC("batch.fabric.coneSignals", coneSignals);
    PHLOGON_ADD_METRIC("batch.fabric.connections", conns.size());
    PHLOGON_ADD_METRIC("batch.fabric.ppvTerms", termUnknown.size());
    if (!sol.ok) return res;

    res.dphi.assign(k, num::Vec());
    res.vout.assign(k, num::Vec());
    for (std::size_t p = 0; p < sol.t.size(); ++p) {
        res.t.push_back(sol.t[p]);
        for (std::size_t i = 0; i < k; ++i) {
            const PpvModel& m = *latches_[i].model;
            res.dphi[i].push_back(sol.y[p][i]);
            res.vout[i].push_back(m.xsAt(m.outputUnknown(), f1 * sol.t[p] + sol.y[p][i]));
        }
    }
    res.ok = true;
    return res;
}

}  // namespace phlogon::core
