// Structured logger: record shape, level gating, ring-overflow accounting
// and — the load-bearing part — per-event rate limiting.  A burst past the
// budget collapses into one synthetic {"event":...,"suppressed":k} record,
// driven here by an injected clock so window rolls are deterministic.

#include "obs/log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/json.hpp"

namespace phlogon::obs {
namespace {

namespace fs = std::filesystem;
namespace json = io::json;

#ifndef PHLOGON_NO_OBS

class LogFile : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test name: ctest runs each case as its own, possibly parallel, process.
        path_ = fs::temp_directory_path() /
                (std::string("phlogon_log_test_") +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".jsonl");
        fs::remove(path_);
    }
    void TearDown() override {
        Logger::instance().setClockForTest(nullptr);
        Logger::instance().disable();
        Logger::instance().flush();
        fs::remove(path_);
    }

    void configure(std::uint64_t rateLimit = 64,
                   LogLevel threshold = LogLevel::Debug) {
        Logger::Options opt;
        opt.path = path_.string();
        opt.threshold = threshold;
        opt.rateLimit = rateLimit;
        opt.rateWindowNs = 1'000'000'000;
        Logger::instance().configure(opt);
    }

    /// Parse every line of the sink as JSON.
    std::vector<json::Value> lines() {
        Logger::instance().flush();
        std::ifstream in(path_);
        std::vector<json::Value> out;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty()) continue;
            const json::ParseResult r = json::parse(line);
            EXPECT_TRUE(r.ok) << "unparseable log line: " << line;
            if (r.ok) out.push_back(r.value);
        }
        return out;
    }

    static int countEvent(const std::vector<json::Value>& recs, const std::string& ev) {
        int n = 0;
        for (const json::Value& r : recs)
            if (r.fieldString("event", "") == ev) ++n;
        return n;
    }

    fs::path path_;
};

TEST_F(LogFile, RecordsAreOneJsonObjectPerLineWithTypedFields) {
    configure();
    PHLOGON_LOG_INFO("test.shape", {"job", std::uint64_t(17)}, {"ms", 412.75},
                     {"type", "hold-error-mc"}, {"cached", true});
    PHLOGON_LOG_ERROR("test.failed", {"error", std::string("bad \"quote\"\nline")});
    const auto recs = lines();
    ASSERT_EQ(recs.size(), 2u);

    EXPECT_EQ(recs[0].fieldString("lvl", ""), "info");
    EXPECT_EQ(recs[0].fieldString("event", ""), "test.shape");
    EXPECT_GT(recs[0].fieldNumber("ts", 0.0), 1e9);  // unix seconds, not zero
    EXPECT_DOUBLE_EQ(recs[0].fieldNumber("job", -1), 17.0);
    EXPECT_DOUBLE_EQ(recs[0].fieldNumber("ms", -1), 412.75);
    EXPECT_EQ(recs[0].fieldString("type", ""), "hold-error-mc");
    EXPECT_TRUE(recs[0].fieldBool("cached", false));

    // Strings with quotes/newlines survive the quoting round-trip.
    EXPECT_EQ(recs[1].fieldString("lvl", ""), "error");
    EXPECT_EQ(recs[1].fieldString("error", ""), "bad \"quote\"\nline");
}

TEST_F(LogFile, ThresholdGatesLowerLevels) {
    configure(64, LogLevel::Warn);
    EXPECT_FALSE(logEnabled(LogLevel::Debug));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_TRUE(logEnabled(LogLevel::Error));
    PHLOGON_LOG_DEBUG("test.gated");
    PHLOGON_LOG_INFO("test.gated");
    PHLOGON_LOG_WARN("test.kept");
    PHLOGON_LOG_ERROR("test.kept");
    const auto recs = lines();
    EXPECT_EQ(countEvent(recs, "test.gated"), 0);
    EXPECT_EQ(countEvent(recs, "test.kept"), 2);
}

TEST_F(LogFile, BurstCollapsesIntoSuppressedRecord) {
    configure(/*rateLimit=*/5);
    std::int64_t now = 0;
    Logger::instance().setClockForTest([&now] { return now; });

    // 30 identical events inside one window: 5 written, 25 suppressed.
    const std::uint64_t before = Logger::instance().suppressedRecords();
    for (int i = 0; i < 30; ++i)
        PHLOGON_LOG_WARN("test.burst", {"i", i});
    // An unrelated event is not affected by the hot one's budget.
    PHLOGON_LOG_WARN("test.other");

    // Roll the window: the pending suppression summary is emitted.
    now += 2'000'000'000;
    PHLOGON_LOG_WARN("test.burst", {"i", 30});

    const auto recs = lines();
    EXPECT_EQ(countEvent(recs, "test.other"), 1);
    // 5 in the first window + 1 after the roll + the suppression summary.
    EXPECT_EQ(countEvent(recs, "test.burst"), 7);
    EXPECT_EQ(Logger::instance().suppressedRecords() - before, 25u);

    bool sawSummary = false;
    for (const json::Value& r : recs) {
        if (r.fieldString("event", "") == "test.burst" &&
            r.fieldNumber("suppressed", 0.0) > 0.0) {
            sawSummary = true;
            EXPECT_DOUBLE_EQ(r.fieldNumber("suppressed", 0.0), 25.0);
            EXPECT_EQ(r.fieldString("lvl", ""), "warn");
        }
    }
    EXPECT_TRUE(sawSummary);
}

TEST_F(LogFile, FlushEmitsPendingSuppressionWithoutWindowRoll) {
    configure(/*rateLimit=*/2);
    std::int64_t now = 0;
    Logger::instance().setClockForTest([&now] { return now; });
    for (int i = 0; i < 7; ++i)
        PHLOGON_LOG_INFO("test.flush", {"i", i});
    const auto recs = lines();  // flush() inside
    EXPECT_EQ(countEvent(recs, "test.flush"), 3);  // 2 written + 1 summary
    double suppressed = 0.0;
    for (const json::Value& r : recs) suppressed += r.fieldNumber("suppressed", 0.0);
    EXPECT_DOUBLE_EQ(suppressed, 5.0);
}

TEST_F(LogFile, DistinctEventsHaveIndependentBudgets) {
    configure(/*rateLimit=*/3);
    std::int64_t now = 0;
    Logger::instance().setClockForTest([&now] { return now; });
    for (int i = 0; i < 10; ++i) {
        PHLOGON_LOG_INFO("test.a");
        PHLOGON_LOG_INFO("test.b");
    }
    const auto recs = lines();
    EXPECT_EQ(countEvent(recs, "test.a"), 4);  // 3 + summary
    EXPECT_EQ(countEvent(recs, "test.b"), 4);
}

#endif  // PHLOGON_NO_OBS

}  // namespace
}  // namespace phlogon::obs
