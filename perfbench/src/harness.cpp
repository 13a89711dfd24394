#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <semaphore.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace_read.hpp"

namespace perfbench {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 0xD1B54A32D192ED03ull)) {
    next();
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

double Samples::quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double idx = std::clamp(q, 0.0, 1.0) * static_cast<double>(s.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return s[lo] + (s[hi] - s[lo]) * frac;
}

double Samples::min() const { return v_.empty() ? 0.0 : *std::min_element(v_.begin(), v_.end()); }
double Samples::max() const { return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end()); }
double Samples::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

namespace {

/// Reference kernel: 16 tone leaves and 104 tanh-clipped weighted-sum gates
/// (three fan-ins each), the last eight evaluated recursively with a
/// per-stage memo, 4 stages x 80 steps.  Deterministic topology.
struct DagNode {
    std::function<double(double)> leaf;
    std::vector<std::pair<int, double>> in;
};

const std::vector<DagNode>& referenceDag() {
    static const std::vector<DagNode> dag = [] {
        std::vector<DagNode> d;
        Rng rng(0x5EED, 0xDA6);
        for (int i = 0; i < 16; ++i) {
            const double ph = 0.1 * i;
            d.push_back({[ph](double t) { return std::cos(6.283185307179586 * (9600.0 * t + ph)); },
                         {}});
        }
        for (int i = 16; i < 120; ++i) {
            DagNode n;
            for (int k = 0; k < 3; ++k)
                n.in.push_back({static_cast<int>(rng.below(static_cast<std::uint64_t>(i))),
                                rng.uniform(-1.0, 1.0)});
            d.push_back(std::move(n));
        }
        return d;
    }();
    return dag;
}

double evalDag(const std::vector<DagNode>& dag, int id, double t, std::vector<double>& memo,
               std::vector<int>& stamp, int cur) {
    if (stamp[id] == cur) return memo[id];
    const DagNode& n = dag[id];
    double v = 0.0;
    if (n.leaf) {
        v = n.leaf(t);
    } else {
        for (const auto& [j, w] : n.in) v += w * evalDag(dag, j, t, memo, stamp, cur);
        v = std::tanh(v);
    }
    stamp[id] = cur;
    memo[id] = v;
    return v;
}

volatile double g_sink = 0.0;

/// Scratch of one kernel run, allocated before the kernel is timed (the
/// monitor runs it while another thread is stopped, possibly inside the
/// allocator, so the timed part must not allocate).
struct KernelScratch {
    std::vector<double> memo;
    std::vector<int> stamp;
    KernelScratch() : memo(referenceDag().size()), stamp(referenceDag().size()) {}
};

double runReferenceKernel(KernelScratch& k) {
    const auto& dag = referenceDag();
    std::fill(k.stamp.begin(), k.stamp.end(), -1);
    double s = 0.0;
    int cur = 0;
    const int n = static_cast<int>(dag.size());
    for (int step = 0; step < 80; ++step)
        for (int stage = 0; stage < 4; ++stage) {
            ++cur;
            for (int root = n - 8; root < n; ++root)
                s += evalDag(dag, root, 1e-5 * step + 1e-6 * stage, k.memo, k.stamp, cur);
        }
    return s;
}

/// Wall time of one kernel run, in ms.
double timeKernelMs(KernelScratch& k) {
    const double t0 = nowSeconds();
    g_sink = runReferenceKernel(k);
    return (nowSeconds() - t0) * 1e3;
}

double medianOf(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace

double SpeedReference::sampleMs(int reps) {
    KernelScratch k;
    std::vector<double> t;
    for (int r = 0; r < std::max(1, reps); ++r) t.push_back(timeKernelMs(k));
    return medianOf(t);
}

namespace {

// The monitored thread parks in this handler while the monitor samples the
// kernel: it posts `parked`, waits for `resume`, and adds the time it spent
// to `pausedNs`.  Only async-signal-safe calls (clock_gettime, sem_*).
constexpr int kPauseSignal = SIGUSR1;
sem_t g_parked;
sem_t g_resume;
std::atomic<std::int64_t> g_pausedNs{0};

std::int64_t monotonicNs() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void parkHandler(int) {
    const int savedErrno = errno;
    const std::int64_t t0 = monotonicNs();
    sem_post(&g_parked);
    while (sem_wait(&g_resume) != 0 && errno == EINTR) {
    }
    g_pausedNs.fetch_add(monotonicNs() - t0, std::memory_order_relaxed);
    errno = savedErrno;
}

void installParkHandler() {
    static const bool installed = [] {
        sem_init(&g_parked, 0, 0);
        sem_init(&g_resume, 0, 0);
        struct sigaction sa {};
        sa.sa_handler = parkHandler;
        sa.sa_flags = SA_RESTART;
        sigemptyset(&sa.sa_mask);
        return sigaction(kPauseSignal, &sa, nullptr) == 0;
    }();
    if (!installed) throw std::runtime_error("cannot install the speed monitor's handler");
}

}  // namespace

namespace {

/// Cumulative steal time of `cpu` in ms (the eighth field of its
/// /proc/stat line), or 0 when unreadable.
double stealMsOf(int cpu) {
    std::ifstream in("/proc/stat");
    const std::string tag = "cpu" + std::to_string(cpu) + " ";
    for (std::string line; std::getline(in, line);) {
        if (line.compare(0, tag.size(), tag) != 0) continue;
        std::istringstream fields(line.substr(tag.size()));
        double v = 0.0;
        for (int i = 0; i < 8 && fields >> v; ++i) {
        }
        return v * 1e3 / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
    return 0.0;
}

void pinTo(pthread_t thread, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(thread, sizeof set, &set);
}

}  // namespace

SpeedMonitor::SpeedMonitor() : cpu_(std::max(0, sched_getcpu())), targetThread_(pthread_self()) {
    installParkHandler();
    pthread_getaffinity_np(targetThread_, sizeof savedAffinity_, &savedAffinity_);
    pinTo(targetThread_, cpu_);
    g_pausedNs.store(0, std::memory_order_relaxed);
    steal0Ms_ = stealMsOf(cpu_);
    thread_ = std::thread([this] { loop(); });
}

SpeedMonitor::~SpeedMonitor() { stop(); }

std::vector<double> SpeedMonitor::stop() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
        thread_.join();
        stolenMs_ = stealMsOf(cpu_) - steal0Ms_;
        pthread_setaffinity_np(targetThread_, sizeof savedAffinity_, &savedAffinity_);
    }
    return samples_;
}

double SpeedMonitor::pausedMs() const {
    return static_cast<double>(g_pausedNs.load(std::memory_order_relaxed)) / 1e6;
}

void SpeedMonitor::loop() {
    KernelScratch scratch;
    pinTo(pthread_self(), cpu_);
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            if (cv_.wait_for(lk, std::chrono::milliseconds(50), [this] { return stopping_; }))
                return;
        }
        // Park the monitored thread, time the kernel on its vCPU, release.
        if (pthread_kill(targetThread_, kPauseSignal) != 0) continue;
        while (sem_wait(&g_parked) != 0 && errno == EINTR) {
        }
        const double ms = timeKernelMs(scratch);
        sem_post(&g_resume);
        samples_.push_back(ms);
    }
}

void OpClock::begin(int reps) {
    cal_.resize(raw_.size());
    cal_.push_back(reps > 0 || cal_.empty() ? SpeedReference::sampleMs(reps) : cal_.back());
    t0_ = nowSeconds();
}

void OpClock::beginLong() {
    begin(3);
    monitor_ = std::make_unique<SpeedMonitor>();
}

double OpClock::end() {
    const double wallMs = (nowSeconds() - t0_) * 1e3;
    longCal_.resize(raw_.size());
    if (monitor_) {
        std::vector<double> s = monitor_->stop();
        raw_.push_back(wallMs - monitor_->pausedMs() - monitor_->stolenMs());
        stolenMs_ += monitor_->stolenMs();
        monitor_.reset();
        s.push_back(cal_.back());
        longCal_.push_back(medianOf(s));
    } else {
        raw_.push_back(wallMs);
        longCal_.push_back(0.0);
    }
    return raw_.back();
}

void OpClock::finish(int reps) {
    cal_.resize(raw_.size());
    cal_.push_back(SpeedReference::sampleMs(reps));
}

double OpClock::factor(std::size_t op) const {
    if (longCal_[op] > 0.0) return SpeedReference::kReferenceMs / longCal_[op];
    // Samples bracketing ops op-2 .. op+2: cal_[op-2] .. cal_[op+3].
    const std::size_t lo = op >= 2 ? op - 2 : 0;
    const std::size_t hi = std::min(op + 3, cal_.size() - 1);
    std::vector<double> w(cal_.begin() + static_cast<long>(lo),
                          cal_.begin() + static_cast<long>(hi) + 1);
    return SpeedReference::kReferenceMs / medianOf(w);
}

Samples OpClock::rawMs() const {
    Samples s;
    for (double v : raw_) s.add(v);
    return s;
}

Samples OpClock::correctedMs() const {
    Samples s;
    for (std::size_t i = 0; i < raw_.size(); ++i) s.add(raw_[i] * factor(i));
    return s;
}

double OpClock::correctedBusySeconds() const { return correctedMs().sum() / 1e3; }

double OpClock::medianFactor() const {
    std::vector<double> f;
    for (std::size_t i = 0; i < raw_.size(); ++i) f.push_back(factor(i));
    return f.empty() ? 1.0 : medianOf(f);
}

void Report::set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : metrics) {
        if (n == name) {
            m = {value, unit};
            return;
        }
    }
    metrics.push_back({name, {value, unit}});
}

void Report::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

void Report::timing(const std::string& name, const Samples& s) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "timing %s n=%zu min=%.6g p50=%.6g p90=%.6g max=%.6g",
                  name.c_str(), s.size(), s.min(), s.quantile(0.5), s.quantile(0.9), s.max());
    timingLines.push_back(buf);
}

void Report::factor(const std::string& name, double median, double stolenMs) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "factor %s median=%.6g stolen_ms=%.6g", name.c_str(), median,
                  stolenMs);
    timingLines.push_back(buf);
}

void Report::info(const std::string& name, double value, const std::string& unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "named %-40s %.6g %s", name.c_str(), value, unit.c_str());
    infoLines.push_back(buf);
}

void beginTrace(const std::filesystem::path& path) {
    phlogon::obs::MetricsRegistry::instance().reset();
    phlogon::obs::setMetricsEnabled(true);
    phlogon::obs::Tracer::instance().start(path.string());
}

std::map<std::string, double> endTraceSelfMs() {
    auto& tracer = phlogon::obs::Tracer::instance();
    tracer.stop();
    phlogon::obs::setMetricsEnabled(false);
    if (!tracer.write()) throw std::runtime_error("could not write trace " + tracer.path());
    const phlogon::obs::ParsedTrace trace = phlogon::obs::readChromeTraceFile(tracer.path());
    if (!trace.ok) throw std::runtime_error("unreadable trace: " + trace.error);
    if (trace.droppedEvents) throw std::runtime_error("trace dropped events");

    // Same nesting reconstruction as `phlogon_trace summarize`: spans sorted
    // parent-first per thread, each span's duration charged against its
    // parent's self time.
    std::map<std::string, double> selfUs;
    for (const std::int64_t tid : trace.spanThreadIds()) {
        const std::vector<phlogon::obs::ParsedEvent> spans = trace.spansForThread(tid);
        struct Open {
            const phlogon::obs::ParsedEvent* span;
            double childUs = 0.0;
        };
        std::vector<Open> stack;
        auto close = [&](const Open& o) {
            const std::string& n = o.span->name;
            selfUs[n.substr(0, n.find('.'))] += std::max(0.0, o.span->durUs - o.childUs);
        };
        for (const phlogon::obs::ParsedEvent& e : spans) {
            while (!stack.empty() &&
                   e.tsUs >= stack.back().span->tsUs + stack.back().span->durUs) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty()) stack.back().childUs += e.durUs;
            stack.push_back({&e});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    std::map<std::string, double> selfMs;
    for (const auto& [prefix, us] : selfUs) selfMs[prefix] = us / 1e3;
    return selfMs;
}

std::uint64_t counterValue(const std::string& name) {
    return phlogon::obs::MetricsRegistry::instance().counter(name).value();
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
