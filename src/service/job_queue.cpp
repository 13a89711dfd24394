#include "service/job_queue.hpp"

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace phlogon::svc {

namespace {
double msBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}
}  // namespace

std::string jobStateName(JobState s) {
    switch (s) {
        case JobState::Queued: return "queued";
        case JobState::Running: return "running";
        case JobState::Done: return "done";
        case JobState::Failed: return "failed";
        case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

JobQueue::JobQueue(const Options& opt) : opt_(opt) {
    if (opt_.workers == 0) opt_.workers = 1;
    threads_.reserve(opt_.workers);
    for (std::size_t i = 0; i < opt_.workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

JobQueue::~JobQueue() { shutdown(Shutdown::Checkpoint); }

SubmitResult JobQueue::submit(const std::string& type, int priority, JobBody body,
                              const std::string& traceId) {
    SubmitResult res;
    std::shared_ptr<Record> rec;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
            res.retryAfterMs = opt_.retryAfterMs;
            ++stats_.rejected;
            return res;
        }
        if (ready_.size() >= opt_.maxDepth) {
            res.retryAfterMs = opt_.retryAfterMs;
            ++stats_.rejected;
            PHLOGON_COUNT_METRIC("service.queue.rejected");
            PHLOGON_LOG_WARN("service.queue.full", {"type", type},
                             {"depth", static_cast<std::uint64_t>(ready_.size())});
            return res;
        }
        rec = std::make_shared<Record>();
        rec->id = nextId_++;
        rec->type = type;
        rec->traceId = traceId;
        rec->priority = priority;
        rec->body = std::move(body);
        rec->submitted = std::chrono::steady_clock::now();
        jobs_.emplace(rec->id, rec);
        ready_.emplace(-priority, rec->id);
        ++stats_.submitted;
        res.accepted = true;
        res.id = rec->id;
    }
    PHLOGON_COUNT_METRIC("service.queue.submitted");
    cv_.notify_one();
    return res;
}

void JobQueue::workerLoop() {
    for (;;) {
        std::shared_ptr<Record> rec;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
            if (ready_.empty()) return;  // stopping_ and nothing left to run
            if (abandonQueued_) {
                // Checkpoint shutdown: flush the backlog as Cancelled.
                while (!ready_.empty()) {
                    auto it = ready_.begin();
                    auto& r = *jobs_.at(it->second);
                    ready_.erase(it);
                    r.state = JobState::Cancelled;
                    r.finished = std::chrono::steady_clock::now();
                    ++stats_.cancelled;
                }
                cv_.notify_all();
                continue;
            }
            auto it = ready_.begin();
            rec = jobs_.at(it->second);
            ready_.erase(it);
            rec->state = JobState::Running;
            rec->started = std::chrono::steady_clock::now();
            ++running_;
        }

        // Re-establish the submitting client's trace context on this worker
        // thread: every span/instant/log the body emits inherits it.
        obs::TraceContext jobCtx;
        jobCtx.jobId = rec->id;
#ifndef PHLOGON_NO_OBS
        if (obs::traceEnabled() && !rec->traceId.empty())
            jobCtx.traceRef = obs::Tracer::instance().internTraceId(rec->traceId);
#endif
        obs::TraceContextScope traceScope(jobCtx.traceRef, jobCtx.jobId);

#ifndef PHLOGON_NO_OBS
        if (obs::traceEnabled()) {
            // Queue-wait span with explicit endpoints (submit -> start): the
            // record's clocks are the trace clock, so this back-dates cleanly.
            const auto toNs = [](std::chrono::steady_clock::time_point t) {
                return std::chrono::duration_cast<std::chrono::nanoseconds>(
                           t.time_since_epoch())
                    .count();
            };
            obs::Tracer::instance().recordSpan("service.queueWait", toNs(rec->submitted),
                                               toNs(rec->started));
        }
#endif

        if (opt_.onJobStarted) {
            JobSnapshot snap;
            {
                std::lock_guard<std::mutex> lock(mu_);
                snap = snapshotLocked(*rec);
            }
            opt_.onJobStarted(snap);
        }
        PHLOGON_LOG_DEBUG("service.job.start", {"job", rec->id}, {"type", rec->type},
                          {"traceId", rec->traceId});

        JobContext ctx;
        ctx.stop_ = &rec->stop;
        ctx.done_ = &rec->progressDone;
        ctx.total_ = &rec->progressTotal;
        if (opt_.onProgress) ctx.onProgress_ = &opt_.onProgress;
        ctx.id_ = rec->id;
        io::json::Value result;
        std::string error;
        bool failed = false;
        {
            OBS_SPAN("service.job");
#ifndef PHLOGON_NO_OBS
            // Bind the connection thread's flow start to this slice.
            if (obs::traceEnabled() && !rec->traceId.empty())
                obs::Tracer::instance().recordFlow(
                    "service.job.dispatch", jobFlowId(rec->traceId, rec->id), false);
#endif
            try {
                result = rec->body(ctx);
            } catch (const std::exception& e) {
                failed = true;
                error = e.what();
            } catch (...) {
                failed = true;
                error = "unknown exception";
            }
        }

        JobSnapshot finishedSnap;
        {
            std::lock_guard<std::mutex> lock(mu_);
            rec->finished = std::chrono::steady_clock::now();
            rec->result = result;
            rec->error = error;
            if (failed) {
                rec->state = JobState::Failed;
                ++stats_.failed;
            } else if (ctx.stoppedEarly()) {
                rec->state = JobState::Cancelled;
                ++stats_.cancelled;
            } else {
                rec->state = JobState::Done;
                ++stats_.completed;
            }
            rec->body = nullptr;  // release captures promptly
            --running_;
            PHLOGON_ADD_METRIC("service.job.ms",
                               static_cast<std::uint64_t>(msBetween(rec->started, rec->finished)));
            finishedSnap = snapshotLocked(*rec);
        }
        PHLOGON_COUNT_METRIC(failed ? "service.job.failed" : "service.job.finished");
        if (failed) {
            PHLOGON_LOG_ERROR("service.job.failed", {"job", rec->id}, {"type", rec->type},
                              {"traceId", rec->traceId}, {"error", error});
        } else {
            PHLOGON_LOG_INFO("service.job.done", {"job", rec->id}, {"type", rec->type},
                             {"traceId", rec->traceId},
                             {"state", jobStateName(finishedSnap.state)},
                             {"queuedMs", finishedSnap.queuedMs},
                             {"runMs", finishedSnap.runMs});
        }
        if (opt_.onJobFinished) opt_.onJobFinished(finishedSnap);
        cv_.notify_all();
    }
}

JobSnapshot JobQueue::snapshotLocked(const Record& r) const {
    JobSnapshot s;
    s.id = r.id;
    s.type = r.type;
    s.traceId = r.traceId;
    s.priority = r.priority;
    s.state = r.state;
    s.result = r.result;
    s.error = r.error;
    s.progressDone = r.progressDone.load(std::memory_order_relaxed);
    s.progressTotal = r.progressTotal.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    switch (r.state) {
        case JobState::Queued: s.queuedMs = msBetween(r.submitted, now); break;
        case JobState::Running:
            s.queuedMs = msBetween(r.submitted, r.started);
            s.runMs = msBetween(r.started, now);
            break;
        default:
            // Terminal.  A job cancelled straight out of the queue has no
            // started time; count its whole life as queued.
            if (r.started.time_since_epoch().count() == 0) {
                s.queuedMs = msBetween(r.submitted, r.finished);
            } else {
                s.queuedMs = msBetween(r.submitted, r.started);
                s.runMs = msBetween(r.started, r.finished);
            }
            break;
    }
    return s;
}

std::optional<JobSnapshot> JobQueue::find(std::uint64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    return snapshotLocked(*it->second);
}

std::vector<JobSnapshot> JobQueue::list() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobSnapshot> out;
    out.reserve(jobs_.size());
    for (const auto& [id, rec] : jobs_) out.push_back(snapshotLocked(*rec));
    return out;
}

std::optional<JobSnapshot> JobQueue::wait(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    const std::shared_ptr<Record> rec = it->second;
    cv_.wait(lock, [&] {
        return rec->state == JobState::Done || rec->state == JobState::Failed ||
               rec->state == JobState::Cancelled;
    });
    return snapshotLocked(*rec);
}

bool JobQueue::cancel(std::uint64_t id) {
    bool notify = false;
    bool ok = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = jobs_.find(id);
        if (it == jobs_.end()) return false;
        Record& r = *it->second;
        switch (r.state) {
            case JobState::Queued:
                ready_.erase({-r.priority, r.id});
                r.state = JobState::Cancelled;
                r.finished = std::chrono::steady_clock::now();
                ++stats_.cancelled;
                notify = ok = true;
                break;
            case JobState::Running:
                r.stop.store(true, std::memory_order_relaxed);
                ok = true;
                break;
            default:
                break;  // already terminal
        }
    }
    if (notify) cv_.notify_all();
    if (ok) PHLOGON_COUNT_METRIC("service.job.cancelRequests");
    return ok;
}

void JobQueue::shutdown(Shutdown mode) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        if (mode == Shutdown::Checkpoint) {
            abandonQueued_ = true;
            // Running jobs: checkpoint at the next poll and come home.
            for (auto& [id, rec] : jobs_)
                if (rec->state == JobState::Running)
                    rec->stop.store(true, std::memory_order_relaxed);
        }
    }
    cv_.notify_all();
    for (std::thread& t : threads_)
        if (t.joinable()) t.join();
    threads_.clear();
    // Workers are gone; anything still marked queued (possible when zero
    // workers ever woke) is flushed here so waiters can't hang.
    bool flushed = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        while (!ready_.empty()) {
            auto it = ready_.begin();
            auto& r = *jobs_.at(it->second);
            ready_.erase(it);
            r.state = JobState::Cancelled;
            r.finished = std::chrono::steady_clock::now();
            ++stats_.cancelled;
            flushed = true;
        }
    }
    if (flushed) cv_.notify_all();
}

QueueStats JobQueue::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    QueueStats s = stats_;
    s.depth = ready_.size();
    s.running = running_;
    return s;
}

}  // namespace phlogon::svc
