#include "viz/writers.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace phlogon::viz {
namespace {

namespace fs = std::filesystem;

class WritersTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test name: ctest runs each case as its own, possibly parallel, process.
        dir_ = fs::temp_directory_path() /
               (std::string("phlogon_viz_test_") +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    fs::path dir_;

    static std::string slurp(const fs::path& p) {
        std::ifstream in(p);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }
};

TEST_F(WritersTest, CsvLayout) {
    Chart c("Title, with comma", "x", "y");
    c.add("a", {1.0, 2.0}, {3.0, 4.0});
    c.add("b", {5.0}, {6.0});
    writeCsv(c, dir_ / "out.csv");
    const std::string s = slurp(dir_ / "out.csv");
    EXPECT_NE(s.find("# Title  with comma"), std::string::npos);  // sanitized
    EXPECT_NE(s.find("a_x,a_y,b_x,b_y"), std::string::npos);
    EXPECT_NE(s.find("1,3,5,6"), std::string::npos);
    EXPECT_NE(s.find("2,4,,"), std::string::npos);  // padded short series
}

TEST_F(WritersTest, CsvCreatesDirectories) {
    Chart c("t", "", "");
    c.add("a", {1.0}, {2.0});
    writeCsv(c, dir_ / "deep" / "nested" / "f.csv");
    EXPECT_TRUE(fs::exists(dir_ / "deep" / "nested" / "f.csv"));
}

TEST_F(WritersTest, GnuplotScriptReferencesCsvColumns) {
    Chart c("T", "xs", "ys");
    c.add("alpha", {1.0}, {2.0});
    c.add("beta", {1.0}, {2.0});
    writeGnuplot(c, dir_ / "f.gp", "f.csv");
    const std::string s = slurp(dir_ / "f.gp");
    EXPECT_NE(s.find("using 1:2"), std::string::npos);
    EXPECT_NE(s.find("using 3:4"), std::string::npos);
    EXPECT_NE(s.find("'alpha'"), std::string::npos);
    EXPECT_NE(s.find("set xlabel 'xs'"), std::string::npos);
}

TEST_F(WritersTest, ExportChartWritesBothFiles) {
    Chart c("T", "", "");
    c.add("a", {1.0}, {2.0});
    exportChart(c, dir_, "fig1");
    EXPECT_TRUE(fs::exists(dir_ / "fig1.csv"));
    EXPECT_TRUE(fs::exists(dir_ / "fig1.gp"));
}

}  // namespace
}  // namespace phlogon::viz
