// Workloads "serial_adder_spice" and "serial_adder_phase": the paper's
// serial-adder FSM (Fig. 15) at two levels on the same seeded operand pairs.
//
//   * SPICE level (Figs. 18-20): buildSerialAdderCircuit -> dcOperatingPoint
//     -> transient on the 56-unknown MNA system (dense LU, TRAP, Newton).
//   * Phase level (Fig. 16): buildPhaseSerialAdder -> PhaseSystem::simulate
//     -> decodeSerialAdderRun on the 2-latch macromodel system.
//
// Pair k of a seed is the same at both levels.  Every add is checked against
// goldenSerialAdd; every SPICE-level add is also run at the phase level
// (outside the timed region) and the two decodes must agree.

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>

#include "analysis/dcop.hpp"
#include "analysis/transient.hpp"
#include "circuit/dae.hpp"
#include "phlogon/serial_adder.hpp"
#include "workloads.hpp"

using namespace phlogon;

namespace perfbench {
namespace {

/// Operand width: one reset slot plus kWidth bit slots per add.  (Two bits
/// fit two SPICE-level adds in a run but spread more between seeds — the
/// cost of an add depends on its bit pattern — than three bits did.)
constexpr std::size_t kWidth = 3;
constexpr double kF1 = 9.6e3;          // paper's reference frequency
constexpr double kFsmSync = 300e-6;    // FSM-strength SYNC amplitude
constexpr double kSpiceSlotCycles = 80.0;  // Figs. 19-20 slot length
constexpr double kSpiceStepsPerCycle = 200.0;

struct Pair {
    logic::Bits a, b;
};

Pair makePair(std::uint64_t seed, std::uint64_t k) {
    Rng rng(seed, 0xADD0000 + k);
    Pair p{{0}, {0}};  // reset slot: a = b = 0 clears the wake-up carry
    for (std::size_t i = 0; i < kWidth; ++i) {
        p.a.push_back(rng.bit());
        p.b.push_back(rng.bit());
    }
    return p;
}

struct Decoded {
    logic::Bits sums, couts;
};

/// Phase-level add of one pair; returns false when the simulation failed.
bool phaseAdd(const logic::SyncLatchDesign& design, const Pair& p, Decoded& out,
              double* buildMs = nullptr, double* simMs = nullptr, double* decodeMs = nullptr) {
    core::PhaseSystem sys;
    std::optional<logic::PhaseSerialAdder> adder;
    const double tb = timeMs([&] {
        Span s("phlogon.buildPhaseSerialAdder");
        adder.emplace(logic::buildPhaseSerialAdder(sys, design, p.a, p.b));
    });
    const auto& ref = design.reference;
    core::PhaseSystem::Result res;
    const double ts = timeMs([&] {
        Span s("phase.simulate");
        res = sys.simulate(ref.f1, 0.0, static_cast<double>(p.a.size()) * adder->bitPeriod,
                           num::Vec{ref.phase0 + 0.02, ref.phase0 + 0.02}, 64, 8);
    });
    if (!res.ok) return false;
    const double td = timeMs([&] {
        Span s("phlogon.decodeSerialAdderRun");
        std::tie(out.sums, out.couts) = logic::decodeSerialAdderRun(sys, *adder, res, ref);
    });
    if (buildMs) *buildMs = tb;
    if (simMs) *simMs = ts;
    if (decodeMs) *decodeMs = td;
    return true;
}

/// Phase-logic value of circuit node `node` near `tc`: correlate one
/// reference cycle of its voltage against REF(bit = 1), as an oscilloscope
/// comparison against the reference would.
int decodeNode(const ckt::Netlist& nl, const an::TransientResult& res,
               const logic::PhaseReference& ref, const std::string& node, double tc) {
    const auto idx = static_cast<std::size_t>(nl.findNode(node));
    double corr = 0.0;
    for (int i = 0; i < 200; ++i) {
        const double t = tc - 1.0 / ref.f1 + i / 200.0 / ref.f1;
        const auto k = static_cast<std::size_t>(
            std::lower_bound(res.t.begin(), res.t.end(), t) - res.t.begin());
        const double v = res.x[std::min(k, res.t.size() - 1)][idx] - ref.vdd / 2.0;
        corr += v * std::cos(2.0 * std::numbers::pi * (ref.f1 * t - ref.dphiPeak + ref.phase1));
    }
    return corr > 0.0 ? 1 : 0;
}

class SerialAdderWorkload final : public Workload {
public:
    SerialAdderWorkload(const Context& ctx, bool spice) : ctx_(ctx), spice_(spice) {}

    void setup() override {
        // Phase level: the unloaded ring oscillator, designed at the paper's f1.
        const auto osc = logic::RingOscCharacterization::run(ckt::RingOscSpec{});
        phaseDesign_.emplace(
            logic::designSyncLatch(osc.model(), osc.outputUnknown(), kF1, kFsmSync));
        if (!spice_) return;
        // SPICE level: characterized WITH the loads the FSM hangs on each
        // latch; the system runs at the loaded oscillator's own f0.
        ckt::RingOscSpec loaded = spec_;
        loaded.outputLoadsOhms = logic::serialAdderLatchLoads();
        an::PssOptions popt = logic::RingOscCharacterization::defaultPssOptions();
        popt.freqHint = 10.2e3;
        const auto losc = logic::RingOscCharacterization::run(loaded, popt);
        spiceDesign_.emplace(
            logic::designSyncLatch(losc.model(), losc.outputUnknown(), losc.f0(), kFsmSync));
    }

    std::size_t tracedOps(double seconds) const override {
        return spice_ ? 1 : static_cast<std::size_t>(std::max(4.0, seconds * 6.0));
    }

    void run(const Pass& pass, Report& e2e, Report* layers) override {
        spice_ ? runSpice(pass, e2e, layers) : runPhase(pass, e2e, layers);
    }

private:
    void runPhase(const Pass& pass, Report& e2e, Report* layers) {
        OpClock clock;
        Samples buildMs, simMs, decodeMs;
        double busy = 0.0, cycles = 0.0;
        std::size_t done = 0;
        for (; pass.more(done, busy / std::max<std::size_t>(done, 1)); ++done) {
            const Pair p = makePair(ctx_.seed, done);
            Decoded d;
            double tb = 0, ts = 0, td = 0;
            bool ok;
            clock.begin();
            {
                Span span("bench.phaseAdd");
                ok = phaseAdd(*phaseDesign_, p, d, &tb, &ts, &td);
            }
            busy += clock.end() / 1e3;
            buildMs.add(tb);
            simMs.add(ts);
            decodeMs.add(td);
            cycles += static_cast<double>(p.a.size()) * logic::SerialAdderOptions{}.bitPeriodCycles;
            e2e.check(ok && matchesGolden(p, d, 0),
                      "phase-level pair " + std::to_string(done) + ": " +
                          (ok ? "bits differ from goldenSerialAdd" : "simulation failed"));
        }
        clock.finish();
        reportOps(e2e, "phase_add_ms", clock);
        e2e.info("phase_cycles_per_s", cycles / clock.correctedBusySeconds(), "cycles/s");
        if (!layers) return;
        // Fixed-step RK4: 4 right-hand sides per step over both latches; each
        // one evaluates the signal DAG once per distinct coupling delay
        // (SYNC at 0, gate writes at the coupling shift).
        const double steps = cycles * 64.0;
        const double groups = phaseDesign_->signalCouplingShift() != 0.0 ? 2.0 : 1.0;
        core::PhaseSystem probe;
        logic::buildPhaseSerialAdder(probe, *phaseDesign_, {0}, {0});
        layers->set("phase.simulate_ms", simMs.quantile(0.5), "ms");
        layers->set("phase.rhs_evals", steps * 4.0 * 2.0, "computed_count");
        layers->set("phase.signal_evals",
                    steps * 4.0 * groups * static_cast<double>(probe.signalCount()),
                    "computed_count");
        layers->set("phlogon.build_ms", buildMs.quantile(0.5), "ms");
        layers->set("phlogon.decode_ms", decodeMs.quantile(0.5), "ms");
        layers->timing("phase.simulate_ms", simMs);
    }

    void runSpice(const Pass& pass, Report& e2e, Report* layers) {
        OpClock clock;
        Samples buildMs, dcopMs, tranMs;
        num::SolverCounters work;
        double busy = 0.0, cycles = 0.0, unknowns = 0.0;
        std::size_t done = 0;
        for (; pass.more(done, busy / std::max<std::size_t>(done, 1)); ++done) {
            const Pair p = makePair(ctx_.seed, done);
            const auto& design = *spiceDesign_;
            const auto& ref = design.reference;
            ckt::Netlist nl;
            std::optional<logic::SerialAdderCircuit> sc;
            an::DcopResult dc;
            an::TransientResult tr;
            double tb = 0, tdc = 0, ttr = 0;
            clock.beginLong();
            {
                Span span("bench.spiceAdd");
                logic::SerialAdderOptions opt;
                opt.bitPeriodCycles = kSpiceSlotCycles;
                tb = timeMs([&] {
                    Span s("phlogon.buildSerialAdderCircuit");
                    sc.emplace(logic::buildSerialAdderCircuit(nl, design, spec_, p.a, p.b, opt));
                });
                const ckt::Dae dae(nl);
                tdc = timeMs([&] {
                    Span s("analysis.dcop");
                    dc = an::dcOperatingPoint(dae);
                });
                if (dc.ok) {
                    // Kick the two latches off their unstable DC point, in
                    // opposite directions (as the Figs. 19-20 bench does).
                    num::Vec x0 = dc.x;
                    for (const char* n : {"lat1.n1", "lat1.n2", "lat1.n3"})
                        x0[static_cast<std::size_t>(nl.findNode(n))] += 0.4;
                    for (const char* n : {"lat2.n2", "lat2.n3"})
                        x0[static_cast<std::size_t>(nl.findNode(n))] -= 0.4;
                    an::TransientOptions topt;
                    topt.dt = 1.0 / (ref.f1 * kSpiceStepsPerCycle);
                    topt.storeEvery = 4;
                    ttr = timeMs([&] {
                        Span s("analysis.transient");
                        tr = an::transient(dae, x0, 0.0,
                                           static_cast<double>(p.a.size()) * sc->bitPeriod, topt);
                    });
                }
            }
            busy += clock.end() / 1e3;
            buildMs.add(tb);
            dcopMs.add(tdc);
            tranMs.add(ttr);
            cycles += static_cast<double>(p.a.size()) * kSpiceSlotCycles;
            unknowns = static_cast<double>(nl.size());
            work += dc.counters;
            work += tr.counters;

            // Checks (untimed): golden with the decoded wake-up carry, then
            // the phase-level add of the same pair from slot 1 on (the
            // reset slot forces both machines' carry to 0 there).
            std::string why;
            if (!dc.ok || !tr.ok) {
                why = "analysis failed: " + (dc.ok ? tr.message : dc.message);
            } else {
                Decoded d;
                for (std::size_t k = 0; k < p.a.size(); ++k) {
                    const double tc = (static_cast<double>(k) + 0.45) * sc->bitPeriod;
                    d.sums.push_back(decodeNode(nl, tr, ref, sc->sumNode, tc));
                    d.couts.push_back(decodeNode(nl, tr, ref, sc->coutNode, tc));
                }
                const int carry0 = decodeNode(nl, tr, ref, sc->q2Node, 0.45 * sc->bitPeriod);
                Decoded ph;
                if (!matchesGolden(p, d, carry0))
                    why = "bits differ from goldenSerialAdd";
                else if (!phaseAdd(*phaseDesign_, p, ph))
                    why = "phase-level cross-check failed to simulate";
                else if (!std::equal(d.sums.begin() + 1, d.sums.end(), ph.sums.begin() + 1) ||
                         !std::equal(d.couts.begin() + 1, d.couts.end(), ph.couts.begin() + 1))
                    why = "SPICE-level bits differ from phase-level bits";
            }
            e2e.check(why.empty(), "SPICE-level pair " + std::to_string(done) + ": " + why);
        }
        clock.finish();
        reportOps(e2e, "spice_add_ms", clock);
        e2e.info("spice_cycles_per_s", cycles / clock.correctedBusySeconds(), "cycles/s");
        if (!layers) return;
        layers->set("circuit.unknowns", unknowns, "count");
        layers->set("phlogon.build_ms", buildMs.quantile(0.5), "ms");
        layers->set("analysis.dcop_ms", dcopMs.quantile(0.5), "ms");
        layers->set("analysis.transient_ms", tranMs.quantile(0.5), "ms");
        layers->set("analysis.steps", static_cast<double>(work.steps), "count");
        layers->set("analysis.rejected_steps", static_cast<double>(work.rejectedSteps), "count");
        layers->set("numeric.newton_iters", static_cast<double>(work.newtonIters), "count");
        layers->set("numeric.rhs_evals", static_cast<double>(work.rhsEvals), "count");
        layers->set("numeric.jac_evals", static_cast<double>(work.jacEvals), "count");
    }

    /// Decoded sums and couts of every slot against goldenSerialAdd started
    /// from `carry0`.
    static bool matchesGolden(const Pair& p, const Decoded& d, int carry0) {
        logic::Bits gc;
        const logic::Bits gs = logic::goldenSerialAdd(p.a, p.b, carry0, &gc);
        return d.sums == gs && d.couts == gc;
    }

    Context ctx_;
    bool spice_;
    ckt::RingOscSpec spec_;  ///< unloaded latch oscillator of the SPICE-level FSM
    std::optional<logic::SyncLatchDesign> phaseDesign_;
    std::optional<logic::SyncLatchDesign> spiceDesign_;
};

}  // namespace

std::unique_ptr<Workload> makeSerialAdder(const Context& ctx, bool spiceLevel) {
    return std::make_unique<SerialAdderWorkload>(ctx, spiceLevel);
}

}  // namespace perfbench
