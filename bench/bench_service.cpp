// Service saturation bench: an in-process phlogond on a temp Unix socket,
// hammered by closed-loop client threads running the mixed analysis
// workload (characterize-latch / locking-range-sweep / hold-error-mc /
// fsm-transient), swept over worker-thread counts.
//
// Reported per worker count: throughput (req/s), latency quantiles
// (p50/p95/p99 ms), and the artifact-cache hit rate — all requests after
// the warm-up share one content-addressed cache, so the steady state is
// the cache-hit path and the sweep isolates queue/dispatch scaling.
// Results land in bench_out/service.json (atomic publication, see
// common.cpp); the CI service-saturation job asserts zero failed requests
// and a nonzero hit rate on the smoke variant.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/json.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"

using namespace phlogon;
namespace json = io::json;
namespace fs = std::filesystem;

namespace {

bool smokeMode() { return std::getenv("PHLOGON_BENCH_SMOKE") != nullptr; }

bench::JsonReport& jsonOut() {
    static bench::JsonReport r;
    return r;
}

/// The request mix.  Parameters are shrunk so the post-warm-up cost per
/// request is dominated by dispatch + the cached-characterization path,
/// not by hours of Monte-Carlo — this bench measures the service, the
/// physics benches measure the physics.  fsm-transient runs the daemon's
/// default 40-cycle slots, and its reply must report every bit written.
struct MixEntry {
    const char* type;
    const char* params;
    int weight;
};

const std::vector<MixEntry>& requestMix() {
    static const std::vector<MixEntry> kMix{
        {"characterize-latch", "{}", 4},
        {"locking-range-sweep", "{\"ampCount\": 4}", 2},
        {"hold-error-mc", "{\"trials\": 8, \"chunk\": 8, \"holdCycles\": 5}", 1},
        {"fsm-transient", "{\"bits\": [1, 0]}", 1},
    };
    return kMix;
}

/// A reply passes when it is ok and, for fsm-transient, every bit was
/// written into the latch.
bool replyPassed(const std::string& type, const json::ParseResult& r) {
    if (!r.ok || !r.value.fieldBool("ok", false)) return false;
    if (type != "fsm-transient") return true;
    const json::Value* job = r.value.field("job");
    const json::Value* result = job ? job->field("result") : nullptr;
    return result && result->fieldBool("allWritten", false);
}

struct ClientStats {
    std::vector<double> latMs;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
};

/// Closed-loop client: one connection, `count` requests drawn round-robin
/// by weight from the mix, each waited for synchronously.
ClientStats runClient(const std::string& socketPath, int count, unsigned threadIdx) {
    ClientStats st;
    const int fd = svc::connectUnix(socketPath);
    if (fd < 0) {
        st.failed = static_cast<std::uint64_t>(count);
        return st;
    }
    std::vector<const MixEntry*> schedule;
    for (const MixEntry& e : requestMix())
        for (int w = 0; w < e.weight; ++w) schedule.push_back(&e);
    std::uint64_t id = static_cast<std::uint64_t>(threadIdx) * 1000000ull;
    for (int k = 0; k < count; ++k) {
        const MixEntry& e = *schedule[static_cast<std::size_t>(k) % schedule.size()];
        const std::string payload = "{\"type\": \"" + std::string(e.type) +
                                    "\", \"id\": " + std::to_string(++id) +
                                    ", \"params\": " + e.params + "}";
        const auto t0 = std::chrono::steady_clock::now();
        const std::string reply = svc::roundTrip(fd, payload);
        const double ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count();
        if (!replyPassed(e.type, json::parse(reply))) {
            ++st.failed;
            continue;
        }
        st.latMs.push_back(ms);
        ++st.ok;
    }
    ::close(fd);
    return st;
}

double quantile(std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double idx = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

struct RunRow {
    std::size_t workers = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
    double wallS = 0.0;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    double cacheHitRate = 0.0;
};

std::string benchSocket(std::size_t workers) {
    return "/tmp/phlogon_bench_" + std::to_string(::getpid()) + "_w" + std::to_string(workers) +
           ".sock";
}

RunRow runSaturation(std::size_t workers, int clientThreads, int perThread,
                     const fs::path& cacheDir, const fs::path& ckptDir) {
    RunRow row;
    row.workers = workers;
    svc::DaemonOptions opt;
    opt.socketPath = benchSocket(workers);
    opt.queue.workers = workers;
    opt.cacheDir = cacheDir;
    opt.checkpointDir = ckptDir;
    svc::Daemon daemon(opt);
    if (!daemon.start()) {
        std::printf("  [ERROR: daemon start failed: %s]\n", daemon.lastError().c_str());
        row.failed = static_cast<std::uint64_t>(clientThreads * perThread);
        return row;
    }

    std::vector<ClientStats> stats(static_cast<std::size_t>(clientThreads));
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> pool;
        for (int t = 0; t < clientThreads; ++t)
            pool.emplace_back([&, t] {
                stats[static_cast<std::size_t>(t)] =
                    runClient(opt.socketPath, perThread, static_cast<unsigned>(t + 1));
            });
        for (std::thread& th : pool) th.join();
    }
    row.wallS = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

    std::vector<double> lat;
    for (const ClientStats& s : stats) {
        row.ok += s.ok;
        row.failed += s.failed;
        lat.insert(lat.end(), s.latMs.begin(), s.latMs.end());
    }
    std::sort(lat.begin(), lat.end());
    row.p50 = quantile(lat, 0.50);
    row.p95 = quantile(lat, 0.95);
    row.p99 = quantile(lat, 0.99);

    // The per-run cache hit rate (this daemon instance's ArtifactCache
    // counters): with a warmed cache directory it should be ~1.
    const json::ParseResult status =
        json::parse(daemon.dispatch("{\"type\": \"status\", \"id\": 0}"));
    if (status.ok)
        if (const json::Value* s = status.value.field("status"))
            if (const json::Value* c = s->field("cache"))
                row.cacheHitRate = c->fieldNumber("hitRate", 0.0);

    daemon.stop(svc::JobQueue::Shutdown::Drain);
    return row;
}

/// One request of each mix type through a throwaway daemon so the shared
/// cache directory is populated before any timed run.
void warmCache(const fs::path& cacheDir, const fs::path& ckptDir) {
    svc::DaemonOptions opt;
    opt.socketPath = benchSocket(0);
    opt.queue.workers = 2;
    opt.cacheDir = cacheDir;
    opt.checkpointDir = ckptDir;
    svc::Daemon daemon(opt);
    if (!daemon.start()) return;
    const auto t0 = std::chrono::steady_clock::now();
    for (const MixEntry& e : requestMix()) {
        const std::string payload = "{\"type\": \"" + std::string(e.type) +
                                    "\", \"id\": 0, \"params\": " + e.params + "}";
        if (!replyPassed(e.type, json::parse(daemon.dispatch(payload))))
            std::printf("  [WARN: warm-up %s failed]\n", e.type);
    }
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    std::printf("warm-up: one request per type, cold cache: %.0f ms total\n\n", ms);
    daemon.stop(svc::JobQueue::Shutdown::Drain);
}

}  // namespace

int main() {
    bench::banner("Service", "phlogond saturation: req/s and latency quantiles vs workers");
    const bool smoke = smokeMode();
    const std::vector<std::size_t> workerCounts =
        smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
    const int clientThreads = smoke ? 2 : 4;
    const int perThread = smoke ? 4 : 12;
    std::printf("closed-loop clients: %d thread(s) x %d requests, mix "
                "char:4 sweep:2 mc:1 fsm:1%s\n\n",
                clientThreads, perThread, smoke ? "  [smoke]" : "");

    const fs::path cacheDir = fs::temp_directory_path() / "phlogon_bench_service_cache";
    const fs::path ckptDir = fs::temp_directory_path() / "phlogon_bench_service_ckpt";
    fs::remove_all(cacheDir);
    fs::remove_all(ckptDir);
    warmCache(cacheDir, ckptDir);

    std::printf("  %8s %8s %8s %10s %9s %9s %9s %9s\n", "workers", "ok", "failed", "req/s",
                "p50 ms", "p95 ms", "p99 ms", "hitRate");
    std::uint64_t totalFailed = 0;
    for (const std::size_t w : workerCounts) {
        const RunRow row = runSaturation(w, clientThreads, perThread, cacheDir, ckptDir);
        const double rate = row.wallS > 0 ? static_cast<double>(row.ok) / row.wallS : 0.0;
        std::printf("  %8zu %8llu %8llu %10.1f %9.2f %9.2f %9.2f %9.2f\n", row.workers,
                    static_cast<unsigned long long>(row.ok),
                    static_cast<unsigned long long>(row.failed), rate, row.p50, row.p95, row.p99,
                    row.cacheHitRate);
        totalFailed += row.failed;
        jsonOut().addRow("saturation", {{"workers", static_cast<double>(row.workers)},
                                        {"requests", static_cast<double>(row.ok + row.failed)},
                                        {"failed", static_cast<double>(row.failed)},
                                        {"reqPerSec", rate},
                                        {"p50Ms", row.p50},
                                        {"p95Ms", row.p95},
                                        {"p99Ms", row.p99},
                                        {"cacheHitRate", row.cacheHitRate}});
    }
    jsonOut().set("config", "clientThreads", clientThreads);
    jsonOut().set("config", "requestsPerThread", perThread);
    jsonOut().set("config", "smoke", smoke ? 1.0 : 0.0);
    if (jsonOut().write("service")) std::printf("\n[exported bench_out/service.json]\n");

    fs::remove_all(cacheDir);
    fs::remove_all(ckptDir);
    if (totalFailed > 0) {
        std::fprintf(stderr, "bench_service: %llu request(s) failed\n",
                     static_cast<unsigned long long>(totalFailed));
        return 1;
    }
    return 0;
}
