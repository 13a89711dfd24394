// Workload "design": the paper's design-tool flow on seeded ring-oscillator
// SPICE decks.  One operation takes one deck from text to a designed and
// checked SHIL latch:
//
//   parseSpiceDeck -> dcOperatingPoint -> shootingPss -> extractPpvTimeDomain
//   -> PpvModel::build + designSyncLatch (at the deck's own f0)
//   -> Fig. 7 locking-range sweep -> Fig. 10 GAE bit write.
//
// Every deck is distinct (stage count, C, kp and vdd are drawn from the
// seed) and runs cold: the flow never touches the artifact cache.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "analysis/dcop.hpp"
#include "analysis/ppv.hpp"
#include "analysis/pss.hpp"
#include "circuit/dae.hpp"
#include "circuit/spice_parser.hpp"
#include "core/gae_sweep.hpp"
#include "core/gae_transient.hpp"
#include "phlogon/golden.hpp"
#include "phlogon/reference.hpp"
#include "workloads.hpp"

using namespace phlogon;

namespace perfbench {
namespace {

struct Deck {
    std::string text;
    double freqHint = 10e3;
    double vdd = 3.0;
    int bit = 1;  ///< bit the GAE write stores
};

/// Deck k of the seed's sequence.  The ranges keep every deck lockable at
/// its own f0 with the flow's fixed SYNC and write amplitudes (checked over
/// thousands of draws when the ranges were chosen).
Deck makeDeck(std::uint64_t seed, std::uint64_t k) {
    Rng rng(seed, 0xDEC0000 + k);
    Deck d;
    // Stage counts 3, 5 and 7 in turn: the paper's 3-stage prototype (the
    // library's default ring), the 5-stage variant of the repository's
    // custom_oscillator example, and the next odd ring, in equal shares.
    // Taking them in turn rather than drawing them keeps the shares exact,
    // so the latency quantiles do not move with a run's sampled mix.
    const int stages = 3 + 2 * static_cast<int>(k % 3);
    const double cap = rng.uniform(3.3e-9, 6.8e-9);
    d.vdd = rng.uniform(2.7, 3.3);
    const double kpn = 0.381e-3 * rng.uniform(0.8, 1.25);
    const double kpp = 0.238e-3 * rng.uniform(0.8, 1.25);
    d.bit = rng.bit();
    // The 3-stage, 4.7 nF ring runs near 10 kHz; f0 scales ~1/(stages * C).
    d.freqHint = 10e3 * (3.0 / stages) * (4.7e-9 / cap);

    char line[256];
    std::snprintf(line, sizeof line, "* seeded ring oscillator %llu/%llu\nVdd vdd 0 DC %.6g\n",
                  static_cast<unsigned long long>(seed), static_cast<unsigned long long>(k),
                  d.vdd);
    d.text = line;
    for (int s = 1; s <= stages; ++s) {
        const int in = s == 1 ? stages : s - 1;
        std::snprintf(line, sizeof line,
                      "M%dp n%d n%d vdd PMOS kp=%.6g vt0=0.82\n"
                      "M%dn n%d n%d 0 NMOS kp=%.6g vt0=0.70\n"
                      "C%d n%d 0 %.6g\n",
                      s, s, in, kpp, s, s, in, kpn, s, s, cap);
        d.text += line;
    }
    d.text += ".end\n";
    return d;
}

constexpr double kSyncAmp = 100e-6;   // paper's SYNC amplitude
constexpr double kWriteAmp = 150e-6;  // Fig. 10 data-write amplitude
constexpr double kWriteCycles = 120.0;

class DesignWorkload final : public Workload {
public:
    explicit DesignWorkload(const Context& ctx) : ctx_(ctx) {}

    void setup() override {
        // Decks are generated up front so the timed region starts from text.
        decks_.clear();
        for (std::uint64_t k = 0; k < kDecks; ++k) decks_.push_back(makeDeck(ctx_.seed, k));
        amps_.clear();
        for (int i = 1; i <= 12; ++i) amps_.push_back(25e-6 * i);
    }

    std::size_t tracedOps(double seconds) const override {
        return static_cast<std::size_t>(std::max(4.0, seconds * 8.0));
    }

    void run(const Pass& pass, Report& e2e, Report* layers) override {
        OpClock clock;
        Samples parseMs, dcopMs, pssMs, ppvMs, designMs, sweepMs, gaeMs, unknowns;
        num::SolverCounters work;
        double busy = 0.0;
        std::size_t done = 0;
        for (; pass.more(done, busy / std::max<std::size_t>(done, 1)); ++done) {
            const Deck& deck = decks_[done % decks_.size()];
            Outcome o;
            clock.begin();
            {
                Span span("bench.deck");
                runDeck(deck, o);
            }
            busy += clock.end() / 1e3;
            parseMs.add(o.parseMs);
            dcopMs.add(o.dcopMs);
            pssMs.add(o.pssMs);
            ppvMs.add(o.ppvMs);
            designMs.add(o.designMs);
            sweepMs.add(o.sweepMs);
            gaeMs.add(o.gaeMs);
            unknowns.add(o.unknowns);
            work += o.work;
            e2e.check(o.error.empty() && checkDeck(deck, o),
                      "deck " + std::to_string(done) + ": " +
                          (o.error.empty() ? "wrong answer" : o.error));
        }
        clock.finish();
        reportOps(e2e, "design_ms", clock);
        if (!layers) return;
        layers->set("circuit.parse_ms", parseMs.quantile(0.5), "ms");
        layers->set("circuit.unknowns", unknowns.quantile(0.5), "count");
        layers->set("analysis.dcop_ms", dcopMs.quantile(0.5), "ms");
        layers->set("analysis.pss_ms", pssMs.quantile(0.5), "ms");
        layers->set("analysis.ppv_ms", ppvMs.quantile(0.5), "ms");
        layers->set("analysis.steps", static_cast<double>(work.steps), "count");
        layers->set("analysis.rejected_steps", static_cast<double>(work.rejectedSteps), "count");
        layers->set("core.design_ms", designMs.quantile(0.5), "ms");
        layers->set("core.sweep_ms", sweepMs.quantile(0.5), "ms");
        layers->set("core.gae_ms", gaeMs.quantile(0.5), "ms");
        layers->set("numeric.newton_iters", static_cast<double>(work.newtonIters), "count");
        layers->set("numeric.rhs_evals", static_cast<double>(work.rhsEvals), "count");
        layers->set("numeric.jac_evals", static_cast<double>(work.jacEvals), "count");
        for (const auto& [name, s] : {std::pair{"analysis.pss_ms", &pssMs},
                                      std::pair{"core.sweep_ms", &sweepMs}})
            layers->timing(name, *s);
    }

private:
    static constexpr std::uint64_t kDecks = 4096;

    struct Outcome {
        std::string error;
        double parseMs = 0, dcopMs = 0, pssMs = 0, ppvMs = 0, designMs = 0, sweepMs = 0,
               gaeMs = 0;
        double unknowns = 0;
        /// Self work of this deck's circuit-level calls: the standalone
        /// dcop plus PssResult.counters (which already holds PSS's own
        /// nested dcop and warm-up transient — not added again).
        num::SolverCounters work;
        double f1 = 0;
        logic::PhaseReference ref;
        std::vector<core::LockingRangePoint> sweep;
        core::GaeTransientResult write;
    };

    void runDeck(const Deck& deck, Outcome& o) const {
        try {
            ckt::Netlist nl;
            o.parseMs = timeMs([&] {
                Span s("circuit.parse");
                ckt::parseSpiceDeck(deck.text, nl);
            });
            o.unknowns = static_cast<double>(nl.size());
            const ckt::Dae dae(nl);
            an::DcopResult dc;
            o.dcopMs = timeMs([&] {
                Span s("analysis.dcop");
                dc = an::dcOperatingPoint(dae);
            });
            if (!dc.ok) throw std::runtime_error("dcop: " + dc.message);
            an::PssOptions popt;
            popt.freqHint = deck.freqHint;
            an::PssResult pss;
            o.pssMs = timeMs([&] {
                Span s("analysis.pss");
                pss = an::shootingPss(dae, popt);
            });
            if (!pss.ok) throw std::runtime_error("pss: " + pss.message);
            o.work = dc.counters;
            o.work += pss.counters;
            an::PpvResult ppv;
            o.ppvMs = timeMs([&] {
                Span s("analysis.ppv");
                ppv = an::extractPpvTimeDomain(dae, pss);
            });
            if (!ppv.ok) throw std::runtime_error("ppv: " + ppv.message);

            std::optional<logic::SyncLatchDesign> design;
            o.designMs = timeMs([&] {
                Span s("core.design");
                auto model = core::PpvModel::build(
                    pss, ppv, static_cast<std::size_t>(nl.findNode("n1")), nl.unknownNames());
                const std::size_t out = model.outputUnknown();
                design.emplace(logic::designSyncLatch(std::move(model), out, pss.f0, kSyncAmp,
                                                      deck.vdd));
            });
            o.f1 = design->f1;
            o.ref = design->reference;
            o.sweepMs = timeMs([&] {
                Span s("core.sweep");
                o.sweep = core::lockingRangeVsAmplitudeExact(
                    design->model, core::Injection::tone(design->injUnknown, 1.0, 2), amps_);
            });
            const double start = o.ref.phaseForBit(1 - deck.bit) + 0.02;
            const std::vector<core::GaeSegment> sched{
                {0.0, {design->sync(), design->dataInjection(kWriteAmp, deck.bit)}}};
            o.gaeMs = timeMs([&] {
                Span s("core.gae");
                o.write = core::gaeTransient(design->model, o.f1, sched, start, 0.0,
                                             kWriteCycles / o.f1);
            });
        } catch (const std::exception& e) {
            o.error = e.what();
        }
    }

    /// Boolean golden: the GAE write must leave the latch holding the bit a
    /// golden D latch holds after the same write, and the Fig. 7 sweep must
    /// lock at the design's own f1 from the SYNC amplitude up.
    bool checkDeck(const Deck& deck, const Outcome& o) const {
        if (!o.write.ok) return false;
        logic::GoldenDLatch golden(1 - deck.bit);
        if (o.ref.decode(o.write.final()) != golden.update(deck.bit, 1)) return false;
        for (const auto& pt : o.sweep) {
            if (pt.amplitude < kSyncAmp * 0.999) continue;
            if (!pt.range.locks || pt.range.fLow > o.f1 || pt.range.fHigh < o.f1) return false;
        }
        return o.sweep.size() == amps_.size();
    }

    Context ctx_;
    std::vector<Deck> decks_;
    num::Vec amps_;
};

}  // namespace

std::unique_ptr<Workload> makeDesign(const Context& ctx) {
    return std::make_unique<DesignWorkload>(ctx);
}

}  // namespace perfbench
