#pragma once
// Bounded priority job queue feeding a fixed worker set.
//
// The queue is the daemon's admission-control point: submissions past
// maxDepth are *rejected* with a retry-after hint rather than buffered, so
// a saturated daemon sheds load at the cheapest possible place (one queue
// probe) instead of accumulating unbounded work.  Ordering is by
// (priority desc, id asc) — strict priority, FIFO within a class.
//
// Workers are plain std::threads owned by the queue.  Job bodies do their
// heavy lifting through the library's existing entry points, whose inner
// loops fan out on the process-global num::ThreadPool; concurrent run()
// calls from several workers are safe (the pool serializes them), so the
// worker count trades per-job latency against cross-job concurrency
// without oversubscribing cores.
//
// Cancellation is cooperative: cancel() flips a per-job stop flag that
// long-running bodies poll at chunk boundaries (after writing a
// checkpoint), so a cancelled job always leaves a resumable snapshot.
// shutdown(Checkpoint) applies the same mechanism to every in-flight job
// at once — the SIGTERM path of the daemon.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/json.hpp"

namespace phlogon::svc {

enum class JobState { Queued, Running, Done, Failed, Cancelled };

std::string jobStateName(JobState s);

/// Chrome-trace flow correlation id linking the connection thread's flow
/// start to the worker thread's finish: FNV-1a over (traceId, jobId), so
/// both sides derive the same id from data they each already hold, with no
/// extra coordination.  Content-keyed on purpose — a resumed job in a
/// restarted daemon (new pid, new tids) gets a *new* job id and therefore a
/// new flow, while its spans still join the old trace via args.traceId.
inline std::uint64_t jobFlowId(const std::string& traceId, std::uint64_t jobId) {
    std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
    auto mix = [&h](unsigned char c) {
        h ^= c;
        h *= 1099511628211ull;  // FNV prime
    };
    for (char c : traceId) mix(static_cast<unsigned char>(c));
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(jobId >> (8 * i)));
    return h ? h : 1;  // 0 is the "no flow" sentinel in TraceEvent
}

/// Progress observer: (job id, done, total), called on the worker thread
/// each time the body reports progress, with no queue lock held.
using ProgressHook = std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>;

/// Handle a running job body polls and reports through.
class JobContext {
public:
    /// True once cancel() or a checkpointing shutdown wants the body to
    /// write its snapshot and return.  Poll between chunks.
    bool shouldStop() const { return stop_->load(std::memory_order_relaxed); }
    /// Body sets this before returning early on shouldStop(); the job then
    /// finishes as Cancelled-with-checkpoint instead of Done.
    void markStoppedEarly() { stoppedEarly_ = true; }
    bool stoppedEarly() const { return stoppedEarly_; }
    /// Coarse progress for list-jobs (chunks, trials, slots — body's pick).
    void setProgress(std::uint64_t done, std::uint64_t total) {
        done_->store(done, std::memory_order_relaxed);
        total_->store(total, std::memory_order_relaxed);
        if (onProgress_) (*onProgress_)(id_, done, total);
    }

private:
    friend class JobQueue;
    const std::atomic<bool>* stop_ = nullptr;
    std::atomic<std::uint64_t>* done_ = nullptr;
    std::atomic<std::uint64_t>* total_ = nullptr;
    const ProgressHook* onProgress_ = nullptr;
    std::uint64_t id_ = 0;
    bool stoppedEarly_ = false;
};

/// A job body: computes a JSON result.  Exceptions fail the job with the
/// exception message; returning after shouldStop() with markStoppedEarly()
/// ends it as Cancelled.
using JobBody = std::function<io::json::Value(JobContext&)>;

struct JobSnapshot {
    std::uint64_t id = 0;
    std::string type;
    std::string traceId;  ///< client-supplied correlation id; may be empty
    int priority = 0;
    JobState state = JobState::Queued;
    io::json::Value result;  ///< null until Done (or partial on Cancelled)
    std::string error;       ///< set when Failed
    std::uint64_t progressDone = 0;
    std::uint64_t progressTotal = 0;
    double queuedMs = 0.0;   ///< time spent waiting for a worker
    double runMs = 0.0;      ///< execution time (0 until started)
    bool terminal() const {
        return state == JobState::Done || state == JobState::Failed ||
               state == JobState::Cancelled;
    }
};

struct SubmitResult {
    bool accepted = false;
    std::uint64_t id = 0;       ///< valid when accepted
    int retryAfterMs = 0;       ///< backoff hint when rejected (queue full)
};

struct QueueStats {
    std::uint64_t submitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::size_t depth = 0;    ///< queued, not yet running
    std::size_t running = 0;
};

class JobQueue {
public:
    struct Options {
        std::size_t workers = 2;
        std::size_t maxDepth = 64;   ///< queued-job bound (running excluded)
        int retryAfterMs = 200;      ///< hint attached to rejections
        /// Lifecycle hooks (daemon feeds its windowed latency histograms and
        /// slow-job log from these).  Invoked from worker threads with no
        /// queue lock held; must not call back into the queue.
        std::function<void(const JobSnapshot&)> onJobStarted;
        std::function<void(const JobSnapshot&)> onJobFinished;
        /// Runs inside JobContext::setProgress, so a body's next
        /// shouldStop() poll already sees a cancel() issued from here.
        /// Unlike the lifecycle hooks it may call cancel().
        ProgressHook onProgress;
    };

    enum class Shutdown {
        Drain,       ///< run every queued job to completion, then stop
        Checkpoint,  ///< cancel queued jobs, checkpoint-and-stop running ones
    };

    JobQueue() : JobQueue(Options{}) {}
    explicit JobQueue(const Options& opt);
    ~JobQueue();
    JobQueue(const JobQueue&) = delete;
    JobQueue& operator=(const JobQueue&) = delete;

    /// Admit a job or reject with the retry-after hint.  Rejections and
    /// post-shutdown submissions never block.  `traceId` (optional) is the
    /// client's correlation id: the worker installs it as the ambient trace
    /// context while the body runs, so every span/instant/log record the job
    /// emits carries it.
    SubmitResult submit(const std::string& type, int priority, JobBody body,
                        const std::string& traceId = std::string());

    /// Snapshot by id; nullopt for unknown ids (never submitted — finished
    /// jobs stay queryable for the queue's lifetime).
    std::optional<JobSnapshot> find(std::uint64_t id) const;
    std::vector<JobSnapshot> list() const;

    /// Block until the job reaches a terminal state; returns its snapshot.
    std::optional<JobSnapshot> wait(std::uint64_t id);

    /// Queued jobs become Cancelled immediately; running jobs get their
    /// stop flag set and finish at the next poll.  False for unknown ids or
    /// jobs already terminal.
    bool cancel(std::uint64_t id);

    /// Stop the queue (idempotent).  Joins all workers before returning.
    void shutdown(Shutdown mode);

    QueueStats stats() const;
    std::size_t workers() const { return threads_.size(); }

private:
    struct Record {
        std::uint64_t id = 0;
        std::string type;
        std::string traceId;
        int priority = 0;
        JobState state = JobState::Queued;
        JobBody body;
        io::json::Value result;
        std::string error;
        std::atomic<bool> stop{false};
        std::atomic<std::uint64_t> progressDone{0};
        std::atomic<std::uint64_t> progressTotal{0};
        std::chrono::steady_clock::time_point submitted;
        std::chrono::steady_clock::time_point started;
        std::chrono::steady_clock::time_point finished;
    };

    void workerLoop();
    JobSnapshot snapshotLocked(const Record& r) const;

    Options opt_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;    ///< no further submissions
    bool abandonQueued_ = false;  ///< workers must not start queued jobs
    std::map<std::uint64_t, std::shared_ptr<Record>> jobs_;
    /// (-priority, id): set order = pop order.
    std::set<std::pair<int, std::uint64_t>> ready_;
    std::uint64_t nextId_ = 1;
    std::size_t running_ = 0;
    QueueStats stats_;
    std::vector<std::thread> threads_;
};

}  // namespace phlogon::svc
