// perfbench: the benchmark of record for the phlogon library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// --trace 0 sets up the workload several times (setup_s is the median),
// then measures it for --seconds with tracing and metrics off, and reports
// the end-to-end metrics.  --trace 1 runs a fixed operation count twice,
// untraced then traced, and reports the per-layer metrics: self time per
// module from the benchmark's spans plus the library's own, the registry's
// call-site counters, and the traced/untraced ratio of the operations'
// host-speed-corrected time.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
// is 0 only when every operation checked out.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "io/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace json = phlogon::io::json;

namespace {

constexpr int kSetupRepeats = 21;

/// Per-layer metrics reported by every traced run, in BENCHMARK.json order.
/// A layer a workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& perLayerMetrics() {
    static const std::vector<std::pair<std::string, std::string>> kList = {
        {"numeric.lu_factor_calls", "count"},
        {"numeric.lu_solve_calls", "count"},
        {"numeric.newton_iters", "count"},
        {"numeric.rhs_evals", "count"},
        {"numeric.jac_evals", "count"},
        {"circuit.parse_ms", "ms"},
        {"circuit.unknowns", "count"},
        {"analysis.dcop_ms", "ms"},
        {"analysis.pss_ms", "ms"},
        {"analysis.ppv_ms", "ms"},
        {"analysis.transient_ms", "ms"},
        {"analysis.steps", "count"},
        {"analysis.rejected_steps", "count"},
        {"core.design_ms", "ms"},
        {"core.sweep_ms", "ms"},
        {"core.gae_ms", "ms"},
        {"core.mc_ms_p50", "ms"},
        {"core.mc_trials_per_s", "1/s"},
        {"phase.simulate_ms", "ms"},
        {"phase.batched_ms.adder16", "ms"},
        {"phase.batched_ms.shift1000", "ms"},
        {"phase.rhs_evals", "computed_count"},
        {"phase.signal_evals", "computed_count"},
        {"logic.compile_ms", "ms"},
        {"logic.decode_ms", "ms"},
        {"phlogon.build_ms", "ms"},
        {"phlogon.decode_ms", "ms"},
        {"io.cache_hits", "count"},
        {"io.cache_misses", "count"},
        {"io.cache_hit_ratio", "ratio"},
        {"io.checkpoint_resumes", "count"},
        {"service.queue_wait_ms_p50", "ms"},
        {"service.queue_wait_ms_p95", "ms"},
        {"service.run_ms_p50.characterize-latch", "ms"},
        {"service.run_ms_p50.locking-range-sweep", "ms"},
        {"service.run_ms_p50.hold-error-mc", "ms"},
        {"service.run_ms_p50.fsm-transient", "ms"},
        {"service.overhead_ms_p50", "ms"},
        {"service.rejected", "count"},
        {"service.errors", "count"},
        {"obs.trace_overhead", "ratio"},
        {"self_ms.bench", "ms"},
        {"self_ms.circuit", "ms"},
        {"self_ms.analysis", "ms"},
        {"self_ms.numeric", "ms"},
        {"self_ms.core", "ms"},
        {"self_ms.phase", "ms"},
        {"self_ms.logic", "ms"},
        {"self_ms.phlogon", "ms"},
        {"self_ms.io", "ms"},
        {"self_ms.service", "ms"},
        {"self_ms.other", "ms"},
    };
    return kList;
}

/// Module a span-name prefix belongs to.  The benchmark names its own spans
/// "<module>.<call>"; the library's spans use their own prefixes.
std::string moduleOfPrefix(const std::string& prefix) {
    static const std::map<std::string, std::string> kMap = {
        {"bench", "bench"},      {"circuit", "circuit"},     {"analysis", "analysis"},
        {"dcop", "analysis"},    {"pss", "analysis"},        {"ppv", "analysis"},
        {"transient", "analysis"}, {"hb", "analysis"},       {"numeric", "numeric"},
        {"pool", "numeric"},     {"core", "core"},           {"gae", "core"},
        {"noise", "core"},       {"phase", "phase"},         {"logic", "logic"},
        {"fabric", "logic"},     {"phlogon", "phlogon"},     {"latch", "phlogon"},
        {"io", "io"},            {"cache", "io"},            {"checkpoint", "io"},
        {"service", "service"},
    };
    const auto it = kMap.find(prefix);
    return it == kMap.end() ? "other" : it->second;
}

/// Runs see the library's defaults — no engine, cache, trace, metrics or
/// log setting inherited from the caller's environment — except for the
/// library's worker pool, pinned to one thread (kLibraryThreads).  On the
/// shared 4-vCPU reference host the hypervisor steals vCPUs from busy
/// guests, and a lockstep parallel loop waits for its slowest (stolen)
/// thread: one clock slot of the 1000-latch fabric took 6.5-11.0 s at the
/// default 4 threads against 6.6-7.5 s at 1 (alternating runs), so the
/// default's figures jump between runs by more than any bound could
/// allow.  Results are bitwise identical at any thread count.
constexpr const char* kLibraryThreads = "1";

void pinEnvironment() {
    for (const char* v : {"PHLOGON_SIMD", "PHLOGON_CACHE_DIR", "PHLOGON_CACHE_MAX_MB",
                          "PHLOGON_TRACE", "PHLOGON_METRICS", "PHLOGON_LOG",
                          "PHLOGON_LOG_LEVEL"})
        ::unsetenv(v);
    ::setenv("PHLOGON_THREADS", kLibraryThreads, 1);
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
};

Args parseArgs(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v) != 0;
        else if (k == "--workdir")
            a.workDir = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (a.workload.empty()) throw std::invalid_argument("--workload is required");
    if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    return a;
}

/// Median set-up time over kSetupRepeats set-ups, host-speed corrected
/// like every end-to-end time (see SpeedReference).
double setupMedian(Workload& w, Report& e2e) {
    OpClock clock;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (i > 0) w.teardown();
        clock.begin(3);
        w.setup();
        clock.end();
    }
    clock.finish(3);
    e2e.timing("setup_ms", clock.correctedMs());
    e2e.timing("setup_ms.raw", clock.rawMs());
    e2e.factor("setup_ms", clock.medianFactor());
    return clock.correctedMs().quantile(0.5) / 1e3;
}

void printMetric(const std::string& name, const Metric& m) {
    std::printf("metric %-40s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    pinEnvironment();
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    const auto& names = workloadNames();
    if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }

    Context ctx;
    ctx.seed = args.seed;
    ctx.workDir = std::filesystem::absolute(args.workDir);
    std::filesystem::create_directories(ctx.workDir);

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::printf("env nproc=%u library_threads=%s compiler=\"%s\" build=%s\n",
                std::thread::hardware_concurrency(), kLibraryThreads, __VERSION__,
                PERFBENCH_BUILD_TYPE);

    Report e2e;
    Report layers;
    try {
        auto w = makeWorkload(args.workload, ctx);
        const double setupS = setupMedian(*w, e2e);
        if (!args.trace) {
            w->run(Pass::forSeconds(args.seconds), e2e, nullptr);
            w->teardown();
            e2e.set("setup_s", setupS, "s");
            e2e.set("peak_rss_mb", peakRssMb(), "MB");
        } else {
            const std::size_t ops = w->tracedOps(args.seconds);
            Report untraced;
            w->run(Pass::forOps(ops), untraced, nullptr);
            w->teardown();
            w->setup();

            beginTrace(ctx.workDir / ("trace-" + args.workload + ".json"));
            w->run(Pass::forOps(ops), e2e, &layers);
            w->teardown();
            const std::map<std::string, double> selfMs = endTraceSelfMs();

            e2e.attempted += untraced.attempted;
            e2e.failed += untraced.failed;
            e2e.failures.insert(e2e.failures.end(), untraced.failures.begin(),
                                untraced.failures.end());
            // Call-site counters of both LU tiers (dense and sparse), so a
            // change of the default tier moves work between the terms
            // rather than out of the figure.
            layers.set("numeric.lu_factor_calls",
                       static_cast<double>(counterValue("lu.factor.calls") +
                                           counterValue("sparse.lu.factor.calls") +
                                           counterValue("sparse.lu.refactor.calls")),
                       "count");
            layers.set("numeric.lu_solve_calls",
                       static_cast<double>(counterValue("lu.solve.calls") +
                                           counterValue("sparse.lu.solve.calls")),
                       "count");
            layers.set("obs.trace_overhead", e2e.busySeconds / untraced.busySeconds, "ratio");
            std::map<std::string, double> byModule;
            for (const auto& [prefix, ms] : selfMs) byModule[moduleOfPrefix(prefix)] += ms;
            for (const auto& [module, ms] : byModule) layers.set("self_ms." + module, ms, "ms");
            std::printf("traced ops=%zu untraced_s=%.4f traced_s=%.4f\n", ops,
                        untraced.busySeconds, e2e.busySeconds);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    // Assemble the reported set: end-to-end metrics untraced, the fixed
    // per-layer list traced.
    json::Value metrics = json::Value::object();
    auto emit = [&](const std::string& name, const Metric& m) {
        if (!std::isfinite(m.value)) throw std::runtime_error("non-finite metric " + name);
        printMetric(name, m);
        json::Value v = json::Value::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        metrics.set(name, v);
    };
    try {
        if (!args.trace) {
            for (const auto& [name, m] : e2e.metrics) emit(name, m);
        } else {
            for (const auto& [name, m] : layers.metrics) {
                const auto& list = perLayerMetrics();
                if (std::none_of(list.begin(), list.end(),
                                 [&](const auto& p) { return p.first == name; }))
                    throw std::runtime_error("per-layer metric not in the fixed list: " + name);
            }
            for (const auto& [name, unit] : perLayerMetrics()) {
                Metric m{0.0, unit};
                for (const auto& [n, v] : layers.metrics)
                    if (n == name) m = v;
                emit(name, m);
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    for (const std::string& line : e2e.infoLines) std::printf("%s\n", line.c_str());
    for (const std::string& line : e2e.timingLines) std::printf("%s\n", line.c_str());
    for (const std::string& line : layers.timingLines) std::printf("%s\n", line.c_str());
    for (const std::string& f : e2e.failures) std::printf("FAILED %s\n", f.c_str());

    const bool correct = e2e.attempted > 0 && e2e.failed == 0;
    std::printf("error_rate %.6g (%llu of %llu operations failed)\n",
                e2e.attempted ? static_cast<double>(e2e.failed) / e2e.attempted : 1.0,
                static_cast<unsigned long long>(e2e.failed),
                static_cast<unsigned long long>(e2e.attempted));
    json::Value out = json::Value::object();
    out.set("correct", correct);
    out.set("attempted", e2e.attempted);
    out.set("failed", e2e.failed);
    out.set("metrics", metrics);
    std::printf("%s\n", json::dump(out).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
