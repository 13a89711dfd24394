// Workload "service": an in-process phlogond (svc::Daemon on an ephemeral
// loopback TCP port, 1 worker) serving a closed loop of 1 client
// connection.  Each run starts the daemon with an empty artifact cache and
// checkpoint directory, so early requests miss the cache (and store to it)
// and later ones hit it.
//
// One worker and one client, not two of each: with two, consecutive runs
// on the shared 4-vCPU reference host moved throughput between 684 and
// 1143 req/s and p50 latency between 1.45 and 2.03 ms (host-speed
// corrected), while one of each, alternated with them, stayed within 3 %.
//
// The request stream is seeded.  Its mix is that of the repository's
// service bench (bench/bench_service.cpp, requestMix):
// characterize-latch : locking-range-sweep : hold-error-mc : fsm-transient
// = 4 : 2 : 1 : 1, taken round-robin as that bench does.  Its sizes are the daemon's own request defaults
// (src/service/jobs.cpp: 8 sweep amplitudes; 60 trials of 30 hold cycles;
// 3 bits in 40-cycle FSM slots), sent explicitly so the checks know what
// to expect, with one exception: hold-error-mc runs its 60 trials as one
// chunk (one checkpoint file per job, not four).  Creating a file in the
// checkpoint directory took 0.1-0.7 ms on the reference host's ext4, and
// at four files per job the Monte-Carlo figures tracked the file system's
// state, not the engine.  The service bench's smaller sizes are not used:
// its 10-cycle FSM slots do not write the latch (allWritten=false at every
// spec; that bench checks only "ok").
//
// Beyond the defaults: the spec is drawn from a table of nine that lock at
// the daemon's default f1 and SYNC amplitude; every hold-error-mc request
// draws its own Monte-Carlo seed, so the engine runs its trials in every
// one; fsm-transient bits are drawn, and one fsm-transient in four repeats
// the previous one, so with 8 patterns x 9 specs most fsm-transient
// requests resume from a finished checkpoint (io.checkpoint_resumes); and
// one request in 16 is deliberately invalid and must come back as a typed
// error.
//
// The host-speed reference is sampled between requests, while the daemon
// is idle, once every kSegment requests.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "io/json.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "workloads.hpp"

using namespace phlogon;
namespace json = io::json;

namespace perfbench {
namespace {

constexpr std::size_t kWorkers = 1;
constexpr std::size_t kSegment = 32;  ///< requests between reference samples
constexpr double kRequestsPerSecond = 400.0;
constexpr int kWarmupPings = 16;
// Request sizes: the daemon's defaults, but one Monte-Carlo chunk per job
// (see the top of this file).
constexpr std::size_t kAmpCount = 8;
constexpr std::size_t kTrials = 60;
constexpr int kHoldCycles = 30;
constexpr int kFsmBits = 3;
constexpr int kSlotCycles = 40;

/// Oscillator specs the stream draws from: the daemon's default 3-stage
/// ring and eight neighbours (C or vdd moved by at most 0.7 %), each checked
/// to characterize and to write bit sequences at the daemon's default
/// f1 = 9.6 kHz and SYNC amplitude (100 uA).  Not every neighbour does:
/// cap = 4.65 nF or vdd = 3.02 V already fail designSyncLatch with "0
/// stable phases".  Nine specs = nine characterizations the cache keeps.
const char* const kSpecs[] = {
    R"("stages": 3, "cap": 4.7e-9, "vdd": 3.0)",   R"("stages": 3, "cap": 4.67e-9, "vdd": 3.0)",
    R"("stages": 3, "cap": 4.68e-9, "vdd": 3.0)",  R"("stages": 3, "cap": 4.69e-9, "vdd": 3.0)",
    R"("stages": 3, "cap": 4.71e-9, "vdd": 3.0)",  R"("stages": 3, "cap": 4.72e-9, "vdd": 3.0)",
    R"("stages": 3, "cap": 4.73e-9, "vdd": 3.0)",  R"("stages": 3, "cap": 4.7e-9, "vdd": 2.99)",
    R"("stages": 3, "cap": 4.7e-9, "vdd": 3.01)",
};
constexpr std::size_t kSpecCount = sizeof kSpecs / sizeof kSpecs[0];
/// Warm-up spec: locks like the table's, but is not in it, so the warm-up
/// characterization leaves every spec of the stream a cache miss.
constexpr const char* kWarmupSpec = R"("stages": 3, "cap": 4.7e-9, "vdd": 3.005)";

const char* const kTypes[] = {"characterize-latch", "locking-range-sweep", "hold-error-mc",
                              "fsm-transient"};
/// kTypes indices, weights 4 : 2 : 1 : 1 (bench_service's requestMix).
constexpr int kSchedule[] = {0, 0, 0, 0, 1, 1, 2, 3};
constexpr std::size_t kScheduleLength = sizeof kSchedule / sizeof kSchedule[0];

struct Request {
    std::string type;     ///< request type ("" for a deliberately invalid one)
    std::string payload;  ///< framed JSON
    std::vector<int> bits;  ///< fsm-transient: bits to write
};

/// The seed's request stream, in order.  Request j's type follows from j;
/// its spec, seed and bits are drawn from its own generator.  A repeated
/// fsm-transient copies the previous one, which has completed (the loop is
/// closed), so it resumes.
class Stream {
public:
    explicit Stream(std::uint64_t seed) : seed_(seed) {}
    std::uint64_t nextIndex() const { return next_; }

    Request pop() {
        const std::uint64_t j = next_++;
        Rng rng(seed_, 0x5E50000 + j);
        Request r;
        const std::string id = std::to_string(j + 1);
        if (j % 16 == 15) {  // deliberately invalid: 1 in 16
            r.payload = rng.bit() ? R"({"type": "characterize-latch", "id": )" + id +
                                        R"(, "params": {"stages": 4}})"
                                  : R"({"type": "no-such-request", "id": )" + id + "}";
            return r;
        }
        // Valid requests take the types round-robin by weight, as the
        // service bench does, so every run has the mix's exact shares.
        r.type = kTypes[kSchedule[(j - j / 16) % kScheduleLength]];
        std::string params = kSpecs[rng.below(kSpecCount)];
        if (r.type == "locking-range-sweep") {
            params += R"(, "ampCount": )" + std::to_string(kAmpCount);
        } else if (r.type == "hold-error-mc") {
            params += R"(, "trials": )" + std::to_string(kTrials) + R"(, "chunk": )" +
                      std::to_string(kTrials) + R"(, "holdCycles": )" +
                      std::to_string(kHoldCycles) + R"(, "seed": )" +
                      std::to_string(1 + rng.below(1ull << 40));
        } else if (r.type == "fsm-transient") {
            if (rng.below(4) == 0 && !lastFsm_.empty()) {  // repeat: 1 in 4
                params = lastFsm_;
                r.bits = lastFsmBits_;
            } else {
                params += R"(, "slotCycles": )" + std::to_string(kSlotCycles) + R"(, "bits": [)";
                for (int i = 0; i < kFsmBits; ++i) {
                    r.bits.push_back(rng.bit());
                    params += (i ? ", " : "") + std::to_string(r.bits.back());
                }
                params += "]";
                lastFsm_ = params;
                lastFsmBits_ = r.bits;
            }
        }
        r.payload = R"({"type": ")" + r.type + R"(", "id": )" + id + R"(, "params": {)" +
                    params + "}}";
        return r;
    }

private:
    std::uint64_t seed_;
    std::uint64_t next_ = 0;
    std::string lastFsm_;
    std::vector<int> lastFsmBits_;
};

struct Reply {
    std::string type;
    std::size_t segment = 0;
    double rtMs = 0, queuedMs = 0, runMs = 0;
    double resumedFrom = 0;  ///< trials / slots a resumed job found done
    bool rejected = false;
    bool error = false;  ///< typed error to a valid request
    std::string why;     ///< empty = checked out
};

/// Check one reply against what its request asked for.
Reply examine(const Request& req, const std::string& raw) {
    Reply out;
    out.type = req.type;
    const json::ParseResult parsed = json::parse(raw);
    if (raw.empty() || !parsed.ok) {
        out.why = "no parseable reply";
        return out;
    }
    const json::Value& v = parsed.value;
    const bool ok = v.fieldBool("ok", false);
    std::string code;
    if (const json::Value* e = v.field("error")) code = e->fieldString("code", "");
    if (req.type.empty()) {
        if (ok || (code != "bad-params" && code != "unknown-type"))
            out.why = "invalid request not answered with a typed error";
        return out;
    }
    if (!ok) {
        out.rejected = code == "queue-full";
        out.error = !out.rejected;
        out.why = req.type + " failed: " + code;
        return out;
    }
    const json::Value* job = v.field("job");
    const json::Value* res = job ? job->field("result") : nullptr;
    if (!res) {
        out.why = req.type + ": reply without a result";
        return out;
    }
    out.queuedMs = job->fieldNumber("queuedMs", 0.0);
    out.runMs = job->fieldNumber("runMs", 0.0);
    out.resumedFrom = res->fieldNumber("resumedFrom", 0.0);
    if (req.type == "characterize-latch") {
        const double p1 = res->fieldNumber("phase1", -1.0), p0 = res->fieldNumber("phase0", -1.0);
        if (p1 < 0.0 || p0 < 0.0) out.why = "characterize-latch: no lock phases";
    } else if (req.type == "locking-range-sweep") {
        // Fig. 7 shape: the oscillator locks at every amplitude of the sweep
        // and the locking range widens with the amplitude.
        const json::Value* pts = res->field("points");
        bool widens = pts && pts->isArray() && pts->arr->size() == kAmpCount;
        double width = 0.0;
        for (std::size_t i = 0; widens && i < pts->arr->size(); ++i) {
            const json::Value& pt = (*pts->arr)[i];
            const double w = pt.fieldNumber("width", -1.0);
            widens = pt.fieldBool("locks", false) && w > width;
            width = w;
        }
        if (!widens) out.why = "locking-range-sweep: range does not lock and widen";
    } else if (req.type == "hold-error-mc") {
        if (res->fieldNumber("trialsDone", -1.0) != static_cast<double>(kTrials) ||
            res->fieldNumber("errors", -1.0) < 0.0)
            out.why = "hold-error-mc: trials not completed";
    } else if (req.type == "fsm-transient") {
        const json::Value* dec = res->field("decoded");
        bool same = res->fieldBool("allWritten", false) && dec && dec->isArray() &&
                    dec->arr->size() == req.bits.size();
        for (std::size_t i = 0; same && i < req.bits.size(); ++i)
            same = (*dec->arr)[i].numberOr(-1.0) == req.bits[i];
        if (!same) out.why = "fsm-transient: allWritten=false or bits differ";
    }
    return out;
}

/// Host-speed factor of segment s from the reference samples around it
/// (cal[s] was taken before it, cal[s+1] after): a window of up to six.
double segmentFactor(const std::vector<double>& cal, std::size_t s) {
    const std::size_t lo = s >= 2 ? s - 2 : 0;
    const std::size_t hi = std::min(s + 3, cal.size() - 1);
    Samples w;
    for (std::size_t i = lo; i <= hi; ++i) w.add(cal[i]);
    return SpeedReference::kReferenceMs / w.quantile(0.5);
}

class ServiceWorkload final : public Workload {
public:
    explicit ServiceWorkload(const Context& ctx) : ctx_(ctx) {
        // The closed loop is sequential (the client waits for each reply),
        // so the client, the daemon's threads (they inherit this affinity)
        // and the reference kernel share one vCPU: a request's hand-offs
        // are same-vCPU switches, and the kernel sees the vCPU the requests
        // run on.
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(std::max(0, sched_getcpu()), &set);
        sched_setaffinity(0, sizeof set, &set);
    }
    ~ServiceWorkload() override { teardown(); }

    void setup() override {
        teardown();
        const std::filesystem::path dir = ctx_.workDir / "service";
        std::filesystem::remove_all(dir);
        svc::DaemonOptions opt;
        opt.tcpPort = 0;
        opt.queue.workers = kWorkers;
        opt.cacheDir = dir / "cache";
        opt.checkpointDir = dir / "checkpoints";
        std::filesystem::create_directories(opt.checkpointDir);
        daemon_ = std::make_unique<svc::Daemon>(opt);
        if (!daemon_->start()) throw std::runtime_error("daemon: " + daemon_->lastError());
        fd_ = svc::connectTcp(daemon_->tcpPort());
        if (fd_ < 0) throw std::runtime_error("cannot connect to the daemon");
        for (int i = 0; i < kWarmupPings; ++i) {
            const json::ParseResult pong = json::parse(svc::roundTrip(fd_, R"({"type": "ping"})"));
            if (!pong.ok || !pong.value.fieldBool("ok", false))
                throw std::runtime_error("daemon did not answer ping");
        }
        // Warm-up: one characterization of a spec outside the stream's
        // table, so the daemon's job path has run once and the cache
        // directory exists, while every spec of the stream still misses.
        const std::string warm = svc::roundTrip(
            fd_, std::string(R"({"type": "characterize-latch", "params": {)") + kWarmupSpec +
                         "}}");
        if (const json::ParseResult r = json::parse(warm); !r.ok || !r.value.fieldBool("ok", false))
            throw std::runtime_error("daemon warm-up request failed: " + warm);
    }

    void teardown() override {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
        if (daemon_) daemon_->stop(svc::JobQueue::Shutdown::Drain);
        daemon_.reset();
        std::filesystem::remove_all(ctx_.workDir / "service");
    }

    std::size_t tracedOps(double seconds) const override {
        return static_cast<std::size_t>(std::max(64.0, seconds * 300.0));
    }

    void run(const Pass& pass, Report& e2e, Report* layers) override {
        const io::CacheStats cache0 = daemon_->cache().stats();
        // Requests per run are capped at kRequestsPerSecond x the budget, so
        // a fast host does not serve more requests (and retain more job
        // records) than a slow one; on the reference host the cap, not the
        // deadline, ends the run.
        const double budget = budgetSeconds(pass);
        const std::size_t maxOps =
            std::isfinite(budget)
                ? std::min(pass.maxOps, static_cast<std::size_t>(kRequestsPerSecond * budget))
                : pass.maxOps;

        // Segments of kSegment requests; the reference is sampled before
        // each segment and after the last, while no request is in flight.
        std::vector<double> cal;
        std::vector<double> busy;  // per segment, seconds
        std::vector<Reply> replies;
        Stream stream(ctx_.seed);
        for (std::size_t seg = 0;; ++seg) {
            cal.push_back(SpeedReference::sampleMs(1));
            if (seg > 0 && (stream.nextIndex() >= maxOps || !pass.more(stream.nextIndex(), 0.0)))
                break;
            const double t0 = nowSeconds();
            for (std::size_t k = 0; k < kSegment && stream.nextIndex() < maxOps; ++k) {
                const Request req = stream.pop();
                std::string raw;
                const double rt = timeMs([&] {
                    Span s("bench.request");
                    raw = svc::roundTrip(fd_, req.payload);
                });
                replies.push_back(examine(req, raw));
                replies.back().rtMs = rt;
                replies.back().segment = seg;
            }
            busy.push_back(nowSeconds() - t0);
        }
        const io::CacheStats cache1 = daemon_->cache().stats();

        Samples rtMs, rawMs, queueMs, overheadMs, mcMs, mcRate, factors;
        std::map<std::string, Samples> runMs;
        std::vector<double> perSegment(busy.size(), 0.0);
        double resumes = 0, rejected = 0, errors = 0, correctedMs = 0;
        std::size_t n = 0;
        for (const Reply& r : replies) {
            ++n;
            perSegment[r.segment] += 1.0;
            e2e.check(r.why.empty(), "request " + std::to_string(n) + ": " + r.why);
            const double ms = r.rtMs * segmentFactor(cal, r.segment);
            rtMs.add(ms);
            rawMs.add(r.rtMs);
            correctedMs += ms;
            resumes += r.resumedFrom > 0.0;
            rejected += r.rejected;
            errors += r.error;
            if (r.type.empty() || !r.why.empty()) continue;
            queueMs.add(r.queuedMs);
            overheadMs.add(r.rtMs - r.queuedMs - r.runMs);
            // Run times of engine work only: a resumed job reloads a
            // finished checkpoint and runs nothing.
            if (r.resumedFrom > 0.0) continue;
            runMs[r.type].add(r.runMs);
            if (r.type == "hold-error-mc" && r.runMs > 0.0) {
                mcMs.add(r.runMs);
                mcRate.add(static_cast<double>(kTrials) / (r.runMs / 1e3));
            }
        }
        // Closed loop: a segment's throughput is its requests over its busy
        // time, corrected by the segment's factor; the run reports the
        // median over segments (the cold-cache start does not swing it).
        Samples rate;
        for (std::size_t s = 0; s < busy.size(); ++s) {
            if (perSegment[s] > 0.0 && busy[s] > 0.0)
                rate.add(perSegment[s] / busy[s] / segmentFactor(cal, s));
            factors.add(segmentFactor(cal, s));
        }
        e2e.set("op_ms_p50", rtMs.quantile(0.5), "ms");
        e2e.set("op_ms_p90", rtMs.quantile(0.9), "ms");
        e2e.set("ops_per_s", rate.quantile(0.5), "1/s");
        e2e.busySeconds = correctedMs / 1e3;
        e2e.timing("svc_ms", rtMs);
        e2e.timing("svc_ms.raw", rawMs);
        e2e.timing("svc_segment_req_per_s", rate);
        e2e.factor("svc_ms", factors.quantile(0.5));
        e2e.info("svc_ms_p95", rtMs.quantile(0.95), "ms");
        if (!layers) return;
        const double hits = static_cast<double>(cache1.hits - cache0.hits);
        const double misses = static_cast<double>(cache1.misses - cache0.misses);
        layers->set("io.cache_hits", hits, "count");
        layers->set("io.cache_misses", misses, "count");
        layers->set("io.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
                    "ratio");
        layers->set("io.checkpoint_resumes", resumes, "count");
        layers->set("core.mc_ms_p50", mcMs.quantile(0.5), "ms");
        layers->set("core.mc_trials_per_s", mcRate.quantile(0.5), "1/s");
        layers->set("service.queue_wait_ms_p50", queueMs.quantile(0.5), "ms");
        layers->set("service.queue_wait_ms_p95", queueMs.quantile(0.95), "ms");
        for (const char* type : kTypes)
            layers->set(std::string("service.run_ms_p50.") + type, runMs[type].quantile(0.5),
                        "ms");
        layers->set("service.overhead_ms_p50", overheadMs.quantile(0.5), "ms");
        layers->set("service.rejected", rejected, "count");
        layers->set("service.errors", errors, "count");
        layers->timing("service.queue_wait_ms", queueMs);
        layers->timing("service.overhead_ms", overheadMs);
        layers->timing("core.mc_ms", mcMs);
    }

private:
    Context ctx_;
    std::unique_ptr<svc::Daemon> daemon_;
    int fd_ = -1;
};

}  // namespace

std::unique_ptr<Workload> makeService(const Context& ctx) {
    return std::make_unique<ServiceWorkload>(ctx);
}

}  // namespace perfbench
