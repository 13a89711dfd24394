#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

const std::vector<std::string>& workloadNames() {
    static const std::vector<std::string> kNames = {
        "design", "serial_adder_spice", "serial_adder_phase", "fabric_adder16",
        "fabric_shift1000", "service"};
    return kNames;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, const Context& ctx) {
    if (name == "design") return makeDesign(ctx);
    if (name == "serial_adder_spice") return makeSerialAdder(ctx, true);
    if (name == "serial_adder_phase") return makeSerialAdder(ctx, false);
    if (name == "fabric_adder16") return makeFabric(ctx, false);
    if (name == "fabric_shift1000") return makeFabric(ctx, true);
    if (name == "service") return makeService(ctx);
    throw std::invalid_argument("unknown workload " + name);
}

void reportOps(Report& e2e, const std::string& label, const OpClock& clock) {
    const Samples ms = clock.correctedMs();
    const Samples raw = clock.rawMs();
    e2e.set("op_ms_p50", ms.quantile(0.5), "ms");
    e2e.set("op_ms_p90", ms.quantile(0.9), "ms");
    e2e.set("ops_per_s", static_cast<double>(ms.size()) / clock.correctedBusySeconds(), "1/s");
    e2e.busySeconds = clock.correctedBusySeconds();
    e2e.timing(label, ms);
    e2e.timing(label + ".raw", raw);
    e2e.factor(label, clock.medianFactor(), clock.stolenMs());
}

}  // namespace perfbench
