// Workloads "fabric_adder16" and "fabric_shift1000": compiled phase-logic
// fabrics on the batched engine.
//
//   * registeredRippleAdder(16): 34 flip-flop latches behind a 16-bit ripple
//     adder, driven by two seeded 33-bit input vectors;
//   * shiftRegister(500): 1000 latches, driven by two seeded bits.
//
// Set-up characterizes the oscillator, designs the latch and compiles the
// fabric once (compileFabric bakes the input schedule in).  One operation
// integrates the whole schedule with PhaseSystem::simulateBatched and
// decodes it with decodeFabricRun.  Every slot is checked against
// LogicNetlist::step: the decoded outputs, and the bit every flip-flop's
// slave latch holds.

#include <optional>

#include "logic/compile.hpp"
#include "logic/workloads.hpp"
#include "phlogon/latch.hpp"
#include "phlogon/serial_adder.hpp"
#include "workloads.hpp"

using namespace phlogon;

namespace perfbench {
namespace {

constexpr double kF1 = 9.6e3;
constexpr double kFsmSync = 300e-6;
constexpr std::size_t kStepsPerCycle = 64;  // PhaseSystem default
constexpr std::size_t kStoreEvery = 64;  // one stored sample per cycle

class FabricWorkload final : public Workload {
public:
    FabricWorkload(const Context& ctx, bool shift) : ctx_(ctx), shift_(shift) {}

    void setup() override {
        const auto osc = logic::RingOscCharacterization::run(ckt::RingOscSpec{});
        const auto design =
            logic::designSyncLatch(osc.model(), osc.outputUnknown(), kF1, kFsmSync);
        const logic::LogicNetlist nl =
            shift_ ? logic::shiftRegister(500) : logic::registeredRippleAdder(16);
        Rng rng(ctx_.seed, shift_ ? 0xF1B0000 : 0xF1A0000);
        // Two clock slots: enough for a registered output (slot 1 shows slot
        // 0's sum) and a shifted bit; short runs give each measurement
        // several operations to take the median over.
        vectors_.assign(2, {});
        for (auto& v : vectors_)
            for (std::size_t i = 0; i < nl.inputs().size(); ++i) v.push_back(rng.bit());
        fab_.reset();
        compileMs_ = timeMs([&] {
            Span s("logic.compileFabric");
            fab_.emplace(logic::compileFabric(nl, design, vectors_));
        });
    }

    std::size_t tracedOps(double seconds) const override {
        return shift_ ? 1 : static_cast<std::size_t>(std::max(1.0, seconds / 1.5));
    }

    void run(const Pass& pass, Report& e2e, Report* layers) override {
        const logic::CompiledFabric& fab = *fab_;
        OpClock clock;
        Samples simMs, decodeMs;
        double busy = 0.0;
        std::size_t done = 0;
        for (; pass.more(done, busy / std::max<std::size_t>(done, 1)); ++done) {
            core::PhaseSystem::Result res;
            std::vector<std::vector<int>> decoded;
            double ts = 0, td = 0;
            clock.beginLong();
            {
                Span span("bench.fabricRun");
                ts = timeMs([&] {
                    Span s("phase.simulateBatched");
                    res = fab.sys.simulateBatched(fab.ref.f1, 0.0, fab.tEnd(), fab.initialDphi,
                                                  kStepsPerCycle, kStoreEvery);
                });
                if (res.ok) {
                    td = timeMs([&] {
                        Span s("logic.decodeFabricRun");
                        decoded = logic::decodeFabricRun(fab, res);
                    });
                }
            }
            busy += clock.end() / 1e3;
            simMs.add(ts);
            decodeMs.add(td);
            const std::string why = res.ok ? check(fab, res, decoded) : "simulation failed";
            e2e.check(why.empty(), "fabric run " + std::to_string(done) + ": " + why);
        }
        const double cycles = fab.tEnd() * fab.ref.f1;
        const double latches = static_cast<double>(fab.sys.latchCount());
        clock.finish();
        reportOps(e2e, shift_ ? "shift1000_run_ms" : "adder16_run_ms", clock);
        const double perS = static_cast<double>(done) / clock.correctedBusySeconds();
        if (shift_)
            e2e.info("fabric_latch_cycles_per_s", latches * cycles * perS, "latch-cycles/s");
        else
            e2e.info("adder16_cycles_per_s", cycles * perS, "cycles/s");
        if (!layers) return;
        // Fixed-step RK4 on the batched engine: 4 stages per step over every
        // latch lane; each stage runs one gate-network pass over all signals
        // per distinct coupling delay (delay groups, read from the library's
        // registry counter).
        const double steps = cycles * kStepsPerCycle * static_cast<double>(done);
        const double groups =
            static_cast<double>(counterValue("batch.fabric.delayGroups")) / done;
        layers->set(shift_ ? "phase.batched_ms.shift1000" : "phase.batched_ms.adder16",
                    simMs.quantile(0.5), "ms");
        layers->set("phase.rhs_evals", steps * 4.0 * latches, "computed_count");
        layers->set("phase.signal_evals",
                    steps * 4.0 * groups * static_cast<double>(fab.sys.signalCount()),
                    "computed_count");
        layers->set("logic.compile_ms", compileMs_, "ms");
        layers->set("logic.decode_ms", decodeMs.quantile(0.5), "ms");
    }

private:
    /// Slot-by-slot comparison with the netlist's own Boolean semantics.
    std::string check(const logic::CompiledFabric& fab, const core::PhaseSystem::Result& res,
                      const std::vector<std::vector<int>>& decoded) const {
        std::vector<int> state(fab.netlist.dffs().size(), 0);
        if (decoded.size() != vectors_.size()) return "decoded slot count differs";
        for (std::size_t k = 0; k < vectors_.size(); ++k) {
            const num::Vec ph = logic::dphiAt(res, fab.decodeTime(k));
            for (std::size_t i = 0; i < fab.dffs.size(); ++i)
                if (fab.ref.decode(ph[static_cast<std::size_t>(fab.dffs[i].slave)]) != state[i])
                    return "slot " + std::to_string(k) + ": flip-flop " + std::to_string(i) +
                           " holds the wrong bit";
            if (decoded[k] != fab.netlist.step(vectors_[k], state))
                return "slot " + std::to_string(k) + ": outputs differ from LogicNetlist::step";
        }
        return {};
    }

    Context ctx_;
    bool shift_;
    std::vector<std::vector<int>> vectors_;
    std::optional<logic::CompiledFabric> fab_;
    double compileMs_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> makeFabric(const Context& ctx, bool shiftRegister) {
    return std::make_unique<FabricWorkload>(ctx, shiftRegister);
}

}  // namespace perfbench
