#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "numeric/parallel.hpp"
#include "obs/trace_read.hpp"

namespace phlogon::obs {
namespace {

namespace fs = std::filesystem;

// ---- parser unit tests (no tracer involved) -------------------------------

TEST(TraceRead, ParsesHandWrittenChromeTrace) {
    const std::string json = R"({
      "displayTimeUnit": "ms",
      "traceEvents": [
        {"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"main"}},
        {"name":"pss.shoot","cat":"pss","ph":"X","ts":10.0,"dur":100.0,"pid":1,"tid":0},
        {"name":"pss.warmup","cat":"pss","ph":"X","ts":20.0,"dur":30.0,"pid":1,"tid":0},
        {"name":"cache.hit","cat":"cache","ph":"i","s":"t","ts":55.5,"pid":1,"tid":0}
      ],
      "otherData": {"droppedEvents": 3}
    })";
    const ParsedTrace t = parseChromeTrace(json);
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(t.events.size(), 3u);  // metadata filtered into `threads`
    EXPECT_EQ(t.threads.at(0), "main");
    EXPECT_EQ(t.droppedEvents, 3u);

    const auto spans = t.spansForThread(0);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "pss.shoot");  // parent sorts before child
    EXPECT_EQ(spans[1].name, "pss.warmup");
    EXPECT_EQ(spans[0].cat, "pss");
    EXPECT_TRUE(t.spansProperlyNested());
}

TEST(TraceRead, AcceptsBareEventArray) {
    const std::string json =
        R"([{"name":"a.b","ph":"X","ts":0.0,"dur":1.0,"pid":1,"tid":4}])";
    const ParsedTrace t = parseChromeTrace(json);
    ASSERT_TRUE(t.ok) << t.error;
    ASSERT_EQ(t.events.size(), 1u);
    EXPECT_EQ(t.events[0].tid, 4);
    EXPECT_EQ(t.spanThreadIds(), std::vector<std::int64_t>{4});
}

TEST(TraceRead, RejectsMalformedJson) {
    EXPECT_FALSE(parseChromeTrace("").ok);
    EXPECT_FALSE(parseChromeTrace("{\"traceEvents\": [").ok);
    EXPECT_FALSE(parseChromeTrace("{\"noEvents\": 1}").ok);
    EXPECT_FALSE(parseChromeTrace("[{\"name\": }]").ok);
}

TEST(TraceRead, DetectsImproperNesting) {
    // Two spans overlap without containment: [0,10) and [5,15).
    const std::string json = R"([
      {"name":"a.x","ph":"X","ts":0.0,"dur":10.0,"pid":1,"tid":0},
      {"name":"a.y","ph":"X","ts":5.0,"dur":10.0,"pid":1,"tid":0}
    ])";
    const ParsedTrace t = parseChromeTrace(json);
    ASSERT_TRUE(t.ok) << t.error;
    std::string why;
    EXPECT_FALSE(t.spansProperlyNested(&why));
    EXPECT_FALSE(why.empty());
}

#ifndef PHLOGON_NO_OBS

// ---- golden end-to-end: record -> write -> parse --------------------------

class TraceGolden : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test name: ctest runs each case as its own, possibly parallel, process.
        path_ = fs::temp_directory_path() /
                (std::string("phlogon_trace_test_") +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".json");
        fs::remove(path_);
        Tracer::instance().start(path_.string());
    }
    void TearDown() override {
        Tracer::instance().stop();
        fs::remove(path_);
    }
    fs::path path_;
};

int countByName(const ParsedTrace& t, const std::string& name) {
    int n = 0;
    for (const ParsedEvent& e : t.events)
        if (e.name == name) ++n;
    return n;
}

TEST_F(TraceGolden, NestedSpansRoundTrip) {
    {
        OBS_SPAN("test.outer");
        {
            OBS_SPAN("test.inner");
            OBS_INSTANT("test.marker");
        }
        { OBS_SPAN("test.inner"); }
    }
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());

    const ParsedTrace t = readChromeTraceFile(path_);
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(t.droppedEvents, 0u);
    EXPECT_EQ(countByName(t, "test.outer"), 1);
    EXPECT_EQ(countByName(t, "test.inner"), 2);
    EXPECT_EQ(countByName(t, "test.marker"), 1);

    std::string why;
    EXPECT_TRUE(t.spansProperlyNested(&why)) << why;

    // All spans recorded from the main thread share one tid, labeled "main",
    // and the children lie inside the parent.
    const auto tids = t.spanThreadIds();
    ASSERT_EQ(tids.size(), 1u);
    EXPECT_EQ(t.threads.at(tids[0]), "main");
    const auto spans = t.spansForThread(tids[0]);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].name, "test.outer");
    for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].tsUs, spans[0].tsUs);
        EXPECT_LE(spans[i].tsUs + spans[i].durUs, spans[0].tsUs + spans[0].durUs + 1e-3);
    }

    // Category is the prefix before the first dot.
    for (const ParsedEvent& e : t.events) EXPECT_EQ(e.cat, "test");
}

TEST_F(TraceGolden, SpansFromParallelWorkersCarryConsistentTids) {
    num::parallelFor(
        64, [](std::size_t) { OBS_SPAN("test.task"); }, 4);
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());

    const ParsedTrace t = readChromeTraceFile(path_);
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(countByName(t, "test.task"), 64);
    std::string why;
    EXPECT_TRUE(t.spansProperlyNested(&why)) << why;

    // Every tid carrying spans is internally consistent: each task span on a
    // worker tid nests inside that thread's pool.drain span.  (How many
    // workers actually claimed tasks depends on scheduling; the caller's tid
    // participates too.)
    for (const std::int64_t tid : t.spanThreadIds()) {
        const auto spans = t.spansForThread(tid);
        const bool hasDrain =
            std::any_of(spans.begin(), spans.end(),
                        [](const ParsedEvent& e) { return e.name == "pool.drain"; });
        const bool hasTask =
            std::any_of(spans.begin(), spans.end(),
                        [](const ParsedEvent& e) { return e.name == "test.task"; });
        EXPECT_TRUE(hasDrain || !hasTask)
            << "tid " << tid << " has task spans outside any pool.drain";
    }

    // Worker threads that recorded events are named in the metadata.
    for (const auto& [tid, name] : t.threads)
        EXPECT_TRUE(name == "main" || name.rfind("pool-worker-", 0) == 0) << name;
}

TEST_F(TraceGolden, StartClearsPreviousEvents) {
    { OBS_SPAN("test.before"); }
    EXPECT_GE(Tracer::instance().eventCount(), 1u);
    Tracer::instance().start(path_.string());
    EXPECT_EQ(Tracer::instance().eventCount(), 0u);
    { OBS_SPAN("test.after"); }
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());
    const ParsedTrace t = readChromeTraceFile(path_);
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(countByName(t, "test.before"), 0);
    EXPECT_EQ(countByName(t, "test.after"), 1);
}

TEST(TraceDisabled, SpansAreNotRecordedWhenOff) {
    Tracer::instance().stop();
    const std::size_t before = Tracer::instance().eventCount();
    { OBS_SPAN("test.ignored"); }
    OBS_INSTANT("test.ignored_instant");
    EXPECT_EQ(Tracer::instance().eventCount(), before);
}

// ---- trace context, flows, merge ------------------------------------------

TEST_F(TraceGolden, ContextStampsSpansAndInstantsWithTraceIdAndJob) {
    const std::uint32_t ref = Tracer::instance().internTraceId("ctx-run-1");
    ASSERT_NE(ref, 0u);
    // Interning is stable: same string, same reference.
    EXPECT_EQ(Tracer::instance().internTraceId("ctx-run-1"), ref);
    {
        TraceContextScope scope(ref, 42);
        OBS_SPAN("test.ctx");
        OBS_INSTANT("test.ctx_marker");
    }
    { OBS_SPAN("test.noctx"); }  // scope restored: unstamped
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());

    const ParsedTrace t = readChromeTraceFile(path_);
    ASSERT_TRUE(t.ok) << t.error;
    for (const ParsedEvent& e : t.events) {
        if (e.name == "test.ctx" || e.name == "test.ctx_marker") {
            EXPECT_EQ(e.traceId, "ctx-run-1") << e.name;
            EXPECT_EQ(e.jobId, 42u) << e.name;
        }
        if (e.name == "test.noctx") {
            EXPECT_TRUE(e.traceId.empty());
            EXPECT_EQ(e.jobId, 0u);
        }
    }
    const auto stamped = t.spansForTraceId("ctx-run-1");
    ASSERT_EQ(stamped.size(), 1u);
    EXPECT_EQ(stamped[0].name, "test.ctx");
}

TEST_F(TraceGolden, ContextScopesNestAndRestore) {
    const std::uint32_t outer = Tracer::instance().internTraceId("nest-outer");
    const std::uint32_t inner = Tracer::instance().internTraceId("nest-inner");
    ASSERT_NE(outer, inner);
    {
        TraceContextScope a(outer, 1);
        {
            TraceContextScope b(inner, 2);
            OBS_SPAN("test.nested_inner");
        }
        // b destroyed: outer context restored.
        OBS_SPAN("test.nested_outer");
    }
    EXPECT_EQ(currentTraceContext().traceRef, 0u);
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());
    const ParsedTrace t = readChromeTraceFile(path_);
    ASSERT_TRUE(t.ok) << t.error;
    EXPECT_EQ(t.spansForTraceId("nest-inner").size(), 1u);
    EXPECT_EQ(t.spansForTraceId("nest-outer").size(), 1u);
}

TEST_F(TraceGolden, FlowEventsRoundTripWithMatchingIds) {
    const std::uint32_t ref = Tracer::instance().internTraceId("flow-run");
    const std::uint64_t flowId = 0xdeadbeefcafeull;
    {
        TraceContextScope scope(ref, 7);
        Tracer::instance().recordFlow("test.flow", flowId, true);
        {
            OBS_SPAN("test.flow_consumer");
            Tracer::instance().recordFlow("test.flow", flowId, false);
        }
    }
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());
    const ParsedTrace t = readChromeTraceFile(path_);
    ASSERT_TRUE(t.ok) << t.error;

    const auto flows = t.flowsForTraceId("flow-run");
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].ph, "s");
    EXPECT_EQ(flows[1].ph, "f");
    EXPECT_EQ(flows[0].flowId, flowId);
    EXPECT_EQ(flows[1].flowId, flowId);
    // The finish binds to its enclosing slice (Chrome's bp:"e" semantics).
    EXPECT_EQ(flows[1].bindingPoint, "e");
}

TEST_F(TraceGolden, MergePreservesArgsFlowsAndRemapsTids) {
    // First trace: one stamped span + a flow start.
    const std::uint32_t ref = Tracer::instance().internTraceId("merge-run");
    {
        TraceContextScope scope(ref, 3);
        OBS_SPAN("test.first_half");
        Tracer::instance().recordFlow("test.handoff", 99, true);
    }
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());
    const fs::path pathB = fs::path(path_).replace_extension(".b.json");
    fs::remove(pathB);

    // Second trace (a "restarted daemon"): same traceId string re-interned in
    // a fresh collection, plus the matching flow finish.
    Tracer::instance().start(pathB.string());
    const std::uint32_t ref2 = Tracer::instance().internTraceId("merge-run");
    {
        TraceContextScope scope(ref2, 8);
        OBS_SPAN("test.second_half");
        Tracer::instance().recordFlow("test.handoff", 99, false);
    }
    Tracer::instance().stop();
    ASSERT_TRUE(Tracer::instance().write());

    std::string error;
    const std::string merged = mergeChromeTraces({path_, pathB}, &error);
    ASSERT_FALSE(merged.empty()) << error;
    const ParsedTrace t = parseChromeTrace(merged);
    ASSERT_TRUE(t.ok) << t.error;

    // Both halves join the one trace id; their tids are disjoint.  (Each
    // file's timestamps are rebased at write time, so match by name, not
    // by ts order.)
    const auto spans = t.spansForTraceId("merge-run");
    ASSERT_EQ(spans.size(), 2u);
    const ParsedEvent* first = nullptr;
    const ParsedEvent* second = nullptr;
    for (const ParsedEvent& e : spans) {
        if (e.name == "test.first_half") first = &e;
        if (e.name == "test.second_half") second = &e;
    }
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(first->jobId, 3u);
    EXPECT_EQ(second->jobId, 8u);
    EXPECT_NE(first->tid, second->tid);

    const auto flows = t.flowsForTraceId("merge-run");
    ASSERT_EQ(flows.size(), 2u);
    EXPECT_EQ(flows[0].flowId, 99u);
    EXPECT_EQ(flows[1].flowId, 99u);

    // Thread names survive with a per-input suffix.
    bool sawSuffixed = false;
    for (const auto& [tid, name] : t.threads)
        if (name.find('[') != std::string::npos) sawSuffixed = true;
    EXPECT_TRUE(sawSuffixed);

    std::string why;
    const std::string err = mergeChromeTraces({fs::path("/no/such/trace.json")}, &why);
    EXPECT_TRUE(err.empty());
    EXPECT_FALSE(why.empty());
    fs::remove(pathB);
}

#endif  // PHLOGON_NO_OBS

}  // namespace
}  // namespace phlogon::obs
