#pragma once
// Shared pieces of the benchmark harness: the seeded input generator, raw
// timing samples with their quantiles, the metric report, and the traced-run
// helpers (spans around library calls, per-prefix self time, registry
// counters).  Every workload drives the library only through its public
// entry points and times each call from outside.

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded generator
// ---------------------------------------------------------------------------

/// SplitMix64: every input of a run (decks, operands, input vectors, the
/// request stream) is drawn from one of these, seeded from --seed and a
/// per-purpose stream tag, so the same seed always yields the same inputs.
class Rng {
public:
    Rng(std::uint64_t seed, std::uint64_t stream);
    std::uint64_t next();
    /// Uniform in [0, 1).
    double uniform();
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
    /// Uniform integer in [0, n).
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    int bit() { return static_cast<int>(next() >> 63); }

private:
    std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

inline double nowSeconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Wall time of `fn()` in milliseconds.
template <class Fn>
double timeMs(Fn&& fn) {
    const double t0 = nowSeconds();
    fn();
    return (nowSeconds() - t0) * 1e3;
}

/// Raw samples of one timing.  Every quantile the benchmark reports is
/// computed here from the samples themselves (linear interpolation between
/// order statistics), so it always lies within [min, max].
class Samples {
public:
    void add(double v) { v_.push_back(v); }
    std::size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    double quantile(double q) const;
    double min() const;
    double max() const;
    double sum() const;
    const std::vector<double>& values() const { return v_; }

private:
    std::vector<double> v_;
};

// ---------------------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------------------

/// Shared virtual hosts drift between fast and slow phases lasting seconds
/// (up to 1.6x apart on the 4-vCPU reference host), which would swamp any
/// library change.  Each timed operation is therefore bracketed
/// by a short, fixed, benchmark-owned reference kernel — a recursive
/// evaluation of a 120-node signal DAG through std::function leaves, the
/// same kind of work the library's hot paths do — and its wall time is
/// scaled by kReferenceMs / (kernel time measured beside it).  The kernel
/// never calls the library, so a library change cannot move it.  Reported
/// times are thus "wall time on a host where the kernel takes
/// kReferenceMs"; the raw wall times are printed alongside.
class SpeedReference {
public:
    /// Median of `reps` kernel runs, in ms.
    static double sampleMs(int reps = 1);
    /// Kernel time on this repository's reference host (4-vCPU KVM guest,
    /// Intel Xeon, fast phase).
    static constexpr double kReferenceMs = 1.10;
};

/// Samples the reference kernel every 50 ms while a multi-second operation
/// runs.  For the operation's duration its thread is pinned to the vCPU it
/// started on, and every sample runs on that vCPU (the host's slow phases
/// are per physical core), so the correction sees the phase the operation
/// actually ran in.  The monitored thread is stopped while the kernel runs
/// (a signal parks it on a semaphore), so the kernel never time-shares with
/// the library and the library's own load cannot slow it; the stopped time
/// is reported by pausedMs().  The hypervisor's steal on that vCPU (time it
/// was runnable but not running, /proc/stat) is reported by stolenMs(): the
/// kernel's median does not see steal, which comes in chunks of
/// milliseconds.  Both are left out of the operation's time.  One monitor
/// at a time.
class SpeedMonitor {
public:
    SpeedMonitor();  ///< pins and starts monitoring the calling thread
    ~SpeedMonitor();
    SpeedMonitor(const SpeedMonitor&) = delete;
    SpeedMonitor& operator=(const SpeedMonitor&) = delete;
    /// Stop, join, restore the thread's affinity, and return every sample
    /// taken (ms).
    std::vector<double> stop();
    /// Total time the monitored thread was stopped for samples (ms).
    double pausedMs() const;
    /// Steal on the monitored vCPU between start and stop() (ms).
    double stolenMs() const { return stolenMs_; }

private:
    void loop();
    int cpu_;  ///< vCPU the monitored thread is pinned to
    pthread_t targetThread_;
    cpu_set_t savedAffinity_;
    double steal0Ms_ = 0.0;
    double stolenMs_ = 0.0;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;             ///< guarded by mu_
    std::vector<double> samples_;       ///< written by the monitor thread only
    std::thread thread_;
};

/// Per-operation clock: raw wall time of each operation plus the reference
/// kernel sampled before it (and once more after the last one).  An
/// operation's correction factor uses the kernel samples of its neighbours
/// (a window of five), which tracks the host's phase while averaging out
/// the kernel's own jitter.  Long operations are monitored instead
/// (beginLong): their factor comes from the samples taken while they ran.
class OpClock {
public:
    /// Sample the reference, then start timing.  `reps` kernel runs are
    /// taken per sample; 0 reuses the previous sample (for
    /// sub-millisecond operations).
    void begin(int reps = 1);
    /// Start timing a multi-second operation under a SpeedMonitor.
    void beginLong();
    /// Stop timing; returns the raw wall time in ms (for a long operation,
    /// without the time the monitor stopped it for or the host stole).
    double end();
    /// Take the closing reference sample (call once after the last op).
    void finish(int reps = 1);
    Samples rawMs() const;
    Samples correctedMs() const;
    /// Corrected sum of operation times, in seconds.
    double correctedBusySeconds() const;
    /// Median correction factor over all operations (printed next to the
    /// corrected figures, so a shift in the factor itself is visible).
    double medianFactor() const;
    std::size_t size() const { return raw_.size(); }
    /// Steal left out of the long operations' raw times, in ms.
    double stolenMs() const { return stolenMs_; }

private:
    double factor(std::size_t op) const;
    std::vector<double> raw_;
    std::vector<double> cal_;  ///< cal_[i] before op i; cal_[n] after the last
    std::vector<double> longCal_;  ///< per op: monitored median, or 0
    std::unique_ptr<SpeedMonitor> monitor_;
    double stolenMs_ = 0.0;
    double t0_ = 0.0;
};

// ---------------------------------------------------------------------------
// Run plan: how many operations a pass runs
// ---------------------------------------------------------------------------

/// Untraced runs measure for a wall-clock budget; the traced run and the
/// self-test run a fixed operation count so that work counters repeat
/// exactly.  A pass always completes at least one operation, and starts
/// another only while at least half of one (`opSeconds`, the mean so far)
/// still fits before the deadline — so multi-second operations do not
/// double a run's length.
struct Pass {
    double deadline = std::numeric_limits<double>::infinity();  ///< nowSeconds() limit
    std::size_t maxOps = std::numeric_limits<std::size_t>::max();
    bool more(std::size_t done, double opSeconds) const {
        return done == 0 || (done < maxOps && nowSeconds() + 0.5 * opSeconds < deadline);
    }
    static Pass forSeconds(double seconds) {
        Pass p;
        p.deadline = nowSeconds() + seconds;
        return p;
    }
    static Pass forOps(std::size_t n) {
        Pass p;
        p.maxOps = n;
        return p;
    }
};

/// Seconds left in a time-bounded pass (infinity for a fixed-count pass).
inline double budgetSeconds(const Pass& p) { return p.deadline - nowSeconds(); }

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Ordered name -> metric map, plus the correctness tally every workload
/// keeps: an operation is attempted once and either checks out or fails.
struct Report {
    std::vector<std::pair<std::string, Metric>> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure descriptions
    /// Host-speed-corrected time the pass's operations took, in seconds
    /// (traced / untraced gives obs.trace_overhead).
    double busySeconds = 0.0;

    void set(const std::string& name, double value, const std::string& unit);
    /// Record one checked operation; `what` describes a failure.
    void check(bool ok, const std::string& what);
    /// Timing block printed for the self-test: n, min, p50, p90, max.
    void timing(const std::string& name, const Samples& s);
    /// Median host-speed factor behind a corrected timing block, and the
    /// steal taken out of its raw times.
    void factor(const std::string& name, double median, double stolenMs = 0.0);
    /// Named figure printed for the reader but not part of the JSON result
    /// (the workload-specific names of the generic end-to-end metrics).
    void info(const std::string& name, double value, const std::string& unit);
    std::vector<std::string> timingLines;
    std::vector<std::string> infoLines;
};

// ---------------------------------------------------------------------------
// Traced-run helpers
// ---------------------------------------------------------------------------

/// Benchmark-side span around one library call.  Names follow the
/// "<module>.<call>" convention so self time aggregates by module prefix.
/// `name` must be a string literal (the tracer keeps the pointer).
using Span = phlogon::obs::SpanScope;

/// Start/stop tracing plus registry metrics for the traced pass; the trace
/// is written to `path` and summarized into self time per span-name prefix.
void beginTrace(const std::filesystem::path& path);
/// Stops tracing, writes the file, and returns self milliseconds per
/// span-name prefix (the text before the first dot), computed the way
/// `phlogon_trace summarize` computes self time.
std::map<std::string, double> endTraceSelfMs();
/// Current value of a registry counter (0 when never touched).
std::uint64_t counterValue(const std::string& name);

/// Peak resident set size of this process in MiB.
double peakRssMb();

}  // namespace perfbench
