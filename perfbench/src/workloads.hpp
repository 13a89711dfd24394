#pragma once
// The benchmark's workloads.  Each one owns its set-up (repeatable, timed
// as setup_s) and its operation loop.  run() records, for the operations a
// pass completes:
//   * the end-to-end figures every workload reports — op_ms_p50/p90 (host
//     time per operation) and ops_per_s;
//   * the per-layer figures of the layers it exercises (named
//     "<module>.<figure>"; main() reports the rest as zero);
//   * one correctness check per operation, made outside the timed region.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Context {
    std::uint64_t seed = 1;
    /// Scratch directory inside the checkout (service cache/checkpoints,
    /// trace files); run.py empties it before each run.
    std::filesystem::path workDir;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Build everything the timed region needs.  Called several times; each
    /// call replaces the previous state.
    virtual void setup() = 0;
    /// Run operations until `pass` says stop.  `layers` is null on untraced
    /// passes; on the traced pass it receives the per-layer figures.
    virtual void run(const Pass& pass, Report& e2e, Report* layers) = 0;
    /// Operation count of the traced pass for a --seconds budget; derived
    /// from the budget alone so traced work counters repeat exactly.
    virtual std::size_t tracedOps(double seconds) const = 0;
    /// Tear down anything that owns threads or files (the service daemon).
    virtual void teardown() {}
};

const std::vector<std::string>& workloadNames();
std::unique_ptr<Workload> makeWorkload(const std::string& name, const Context& ctx);

std::unique_ptr<Workload> makeDesign(const Context& ctx);
std::unique_ptr<Workload> makeSerialAdder(const Context& ctx, bool spiceLevel);
std::unique_ptr<Workload> makeFabric(const Context& ctx, bool shiftRegister);
std::unique_ptr<Workload> makeService(const Context& ctx);

/// Shared end-to-end bookkeeping from an OpClock: op_ms_p50, op_ms_p90 and
/// ops_per_s (operations over their summed busy time), all host-speed
/// corrected; the raw figures and the median factor are printed next to
/// them, and the corrected busy time goes to e2e.busySeconds.
void reportOps(Report& e2e, const std::string& label, const OpClock& clock);

}  // namespace perfbench
