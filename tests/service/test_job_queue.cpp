// JobQueue: admission control, priority ordering, cooperative
// cancellation, drain-vs-checkpoint shutdown.

#include "service/job_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace phlogon;
namespace json = io::json;

namespace {

json::Value numResult(double v) {
    json::Value r = json::Value::object();
    r.set("v", json::Value::number(v));
    return r;
}

/// A gate the test opens to release job bodies blocked on it.
struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    void release() {
        std::lock_guard<std::mutex> lk(mu);
        open = true;
        cv.notify_all();
    }
    void wait() {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return open; });
    }
};

}  // namespace

TEST(JobQueue, RunsJobToCompletion) {
    svc::JobQueue q;
    const svc::SubmitResult s =
        q.submit("t", 0, [](svc::JobContext&) { return numResult(42.0); });
    ASSERT_TRUE(s.accepted);
    const auto snap = q.wait(s.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, svc::JobState::Done);
    EXPECT_DOUBLE_EQ(snap->result.fieldNumber("v", 0), 42.0);
    EXPECT_GE(snap->runMs, 0.0);
    q.shutdown(svc::JobQueue::Shutdown::Drain);
}

TEST(JobQueue, ExceptionFailsJobWithMessage) {
    svc::JobQueue q;
    const auto s = q.submit("t", 0, [](svc::JobContext&) -> json::Value {
        throw std::runtime_error("boom");
    });
    const auto snap = q.wait(s.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, svc::JobState::Failed);
    EXPECT_EQ(snap->error, "boom");
    EXPECT_EQ(q.stats().failed, 1u);
    q.shutdown(svc::JobQueue::Shutdown::Drain);
}

TEST(JobQueue, PriorityOrdersBacklogFifoWithinClass) {
    svc::JobQueue::Options opt;
    opt.workers = 1;
    svc::JobQueue q(opt);
    Gate gate;
    std::mutex mu;
    std::vector<int> order;
    // Plug the single worker so the backlog builds up.
    const auto plug = q.submit("plug", 0, [&](svc::JobContext&) {
        gate.wait();
        return numResult(0);
    });
    const auto enqueue = [&](int tag, int prio) {
        return q
            .submit("t", prio,
                    [&, tag](svc::JobContext&) {
                        std::lock_guard<std::mutex> lk(mu);
                        order.push_back(tag);
                        return numResult(tag);
                    })
            .id;
    };
    // Submission order: low, high, low, high — execution must be
    // priority-major, FIFO within a class.
    const auto a = enqueue(1, 0);
    const auto b = enqueue(2, 5);
    const auto c = enqueue(3, 0);
    const auto d = enqueue(4, 5);
    gate.release();
    for (const auto id : {a, b, c, d}) q.wait(id);
    q.wait(plug.id);
    EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
    q.shutdown(svc::JobQueue::Shutdown::Drain);
}

TEST(JobQueue, BoundedDepthRejectsWithRetryAfter) {
    svc::JobQueue::Options opt;
    opt.workers = 1;
    opt.maxDepth = 2;
    opt.retryAfterMs = 123;
    svc::JobQueue q(opt);
    Gate gate;
    const auto plug = q.submit("plug", 0, [&](svc::JobContext&) {
        gate.wait();
        return numResult(0);
    });
    ASSERT_TRUE(plug.accepted);
    // Wait until the plug actually occupies the worker, so depth counts
    // only queued jobs.
    while (q.stats().running == 0) std::this_thread::yield();
    EXPECT_TRUE(q.submit("t", 0, [](svc::JobContext&) { return numResult(1); }).accepted);
    EXPECT_TRUE(q.submit("t", 0, [](svc::JobContext&) { return numResult(2); }).accepted);
    const svc::SubmitResult rejected =
        q.submit("t", 0, [](svc::JobContext&) { return numResult(3); });
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.retryAfterMs, 123);
    EXPECT_EQ(q.stats().rejected, 1u);
    gate.release();
    q.shutdown(svc::JobQueue::Shutdown::Drain);
    EXPECT_EQ(q.stats().completed, 3u);
}

TEST(JobQueue, CancelQueuedJobNeverRuns) {
    svc::JobQueue::Options opt;
    opt.workers = 1;
    svc::JobQueue q(opt);
    Gate gate;
    std::atomic<bool> ran{false};
    const auto plug = q.submit("plug", 0, [&](svc::JobContext&) {
        gate.wait();
        return numResult(0);
    });
    while (q.stats().running == 0) std::this_thread::yield();
    const auto victim = q.submit("t", 0, [&](svc::JobContext&) {
        ran = true;
        return numResult(1);
    });
    EXPECT_TRUE(q.cancel(victim.id));
    gate.release();
    q.wait(plug.id);
    const auto snap = q.wait(victim.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, svc::JobState::Cancelled);
    EXPECT_FALSE(ran);
    EXPECT_FALSE(q.cancel(victim.id));  // already terminal
    EXPECT_FALSE(q.cancel(99999));      // unknown id
    q.shutdown(svc::JobQueue::Shutdown::Drain);
}

TEST(JobQueue, CancelRunningJobStopsCooperatively) {
    svc::JobQueue q;
    std::atomic<bool> started{false};
    const auto s = q.submit("t", 0, [&](svc::JobContext& ctx) {
        started = true;
        while (!ctx.shouldStop()) std::this_thread::yield();
        ctx.markStoppedEarly();
        return numResult(-1);  // the "partial checkpointed result"
    });
    while (!started) std::this_thread::yield();
    EXPECT_TRUE(q.cancel(s.id));
    const auto snap = q.wait(s.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, svc::JobState::Cancelled);
    // The partial result the body returned is preserved.
    EXPECT_DOUBLE_EQ(snap->result.fieldNumber("v", 0), -1.0);
    q.shutdown(svc::JobQueue::Shutdown::Drain);
}

TEST(JobQueue, DrainShutdownRunsBacklog) {
    svc::JobQueue::Options opt;
    opt.workers = 1;
    svc::JobQueue q(opt);
    Gate gate;
    q.submit("plug", 0, [&](svc::JobContext&) {
        gate.wait();
        return numResult(0);
    });
    std::atomic<int> ran{0};
    for (int i = 0; i < 5; ++i)
        q.submit("t", 0, [&](svc::JobContext&) {
            ++ran;
            return numResult(1);
        });
    gate.release();
    q.shutdown(svc::JobQueue::Shutdown::Drain);
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(q.stats().completed, 6u);
    // Post-shutdown submissions are rejected, not blocked.
    EXPECT_FALSE(q.submit("t", 0, [](svc::JobContext&) { return numResult(9); }).accepted);
}

TEST(JobQueue, CheckpointShutdownCancelsBacklogAndStopsRunning) {
    svc::JobQueue::Options opt;
    opt.workers = 1;
    svc::JobQueue q(opt);
    std::atomic<bool> started{false};
    std::atomic<bool> sawStop{false};
    const auto running = q.submit("long", 0, [&](svc::JobContext& ctx) {
        started = true;
        while (!ctx.shouldStop()) std::this_thread::yield();
        sawStop = true;
        ctx.markStoppedEarly();
        return numResult(1);
    });
    while (!started) std::this_thread::yield();
    std::atomic<bool> backlogRan{false};
    const auto queued = q.submit("queued", 0, [&](svc::JobContext&) {
        backlogRan = true;
        return numResult(2);
    });
    q.shutdown(svc::JobQueue::Shutdown::Checkpoint);
    EXPECT_TRUE(sawStop);
    EXPECT_FALSE(backlogRan);
    EXPECT_EQ(q.find(running.id)->state, svc::JobState::Cancelled);
    EXPECT_EQ(q.find(queued.id)->state, svc::JobState::Cancelled);
}

TEST(JobQueue, ProgressVisibleInSnapshots) {
    svc::JobQueue q;
    Gate gate;
    std::atomic<bool> progressed{false};
    const auto s = q.submit("t", 0, [&](svc::JobContext& ctx) {
        ctx.setProgress(3, 10);
        progressed = true;
        gate.wait();
        return numResult(1);
    });
    while (!progressed) std::this_thread::yield();
    const auto snap = q.find(s.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->progressDone, 3u);
    EXPECT_EQ(snap->progressTotal, 10u);
    EXPECT_EQ(snap->state, svc::JobState::Running);
    gate.release();
    q.wait(s.id);
    EXPECT_EQ(q.list().size(), 1u);
    q.shutdown(svc::JobQueue::Shutdown::Drain);
}

TEST(JobQueue, ProgressHookCancelLandsOnThatChunkBoundary) {
    // A cancel issued from onProgress is seen by the body's very next
    // shouldStop() poll: the job stops after exactly the reported chunk.
    svc::JobQueue* queue = nullptr;
    svc::JobQueue::Options opt;
    opt.workers = 1;
    std::vector<std::uint64_t> seen;
    opt.onProgress = [&](std::uint64_t job, std::uint64_t done, std::uint64_t total) {
        seen.push_back(done);
        EXPECT_EQ(total, 10u);
        if (done == 3) queue->cancel(job);
    };
    svc::JobQueue q(opt);
    queue = &q;
    const auto s = q.submit("t", 0, [](svc::JobContext& ctx) {
        std::uint64_t done = 0;
        while (done < 10 && !ctx.shouldStop()) ctx.setProgress(++done, 10);
        if (done < 10) ctx.markStoppedEarly();
        return numResult(static_cast<double>(done));
    });
    const auto snap = q.wait(s.id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->state, svc::JobState::Cancelled);
    EXPECT_DOUBLE_EQ(snap->result.fieldNumber("v", 0), 3.0);
    EXPECT_EQ(snap->progressDone, 3u);
    q.shutdown(svc::JobQueue::Shutdown::Drain);
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}
