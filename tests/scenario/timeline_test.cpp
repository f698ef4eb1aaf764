#include "scenario/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace ulpmc::scenario {
namespace {

Timeline parse(const std::string& text) {
    std::istringstream in(text);
    return parse_timeline(in);
}

TEST(Timeline, ParsesHeadersPhasesAndDefaults) {
    const Timeline tl = parse(
        "# comment\n"
        "block_period_s 1.5\n"
        "battery_j 2.5\n"
        "\n"
        "phase quiet 100\n"
        "phase storm 50 lambda=1e-6 ble=down ble_loss=0.25 harvest_uw=80 arrhythmia=1\n");
    EXPECT_DOUBLE_EQ(tl.block_period_s, 1.5);
    EXPECT_DOUBLE_EQ(tl.battery_j, 2.5);
    ASSERT_EQ(tl.phases.size(), 2u);
    const Phase& q = tl.phases[0];
    EXPECT_EQ(q.name, "quiet");
    EXPECT_DOUBLE_EQ(q.duration_s, 100);
    EXPECT_DOUBLE_EQ(q.lambda, 0);
    EXPECT_TRUE(q.ble_up);
    EXPECT_DOUBLE_EQ(q.ble_loss, 0);
    EXPECT_FALSE(q.arrhythmia);
    const Phase& s = tl.phases[1];
    EXPECT_DOUBLE_EQ(s.lambda, 1e-6);
    EXPECT_FALSE(s.ble_up);
    EXPECT_DOUBLE_EQ(s.ble_loss, 0.25);
    EXPECT_DOUBLE_EQ(s.harvest_uw, 80);
    EXPECT_TRUE(s.arrhythmia);
    EXPECT_DOUBLE_EQ(tl.total_s(), 150);
}

TEST(Timeline, PhaseIndexCyclesTheScript) {
    const Timeline tl = parse("phase a 10\nphase b 20\n");
    EXPECT_EQ(tl.phase_index_at(0), 0u);
    EXPECT_EQ(tl.phase_index_at(9.9), 0u);
    EXPECT_EQ(tl.phase_index_at(10), 1u);
    EXPECT_EQ(tl.phase_index_at(29.9), 1u);
    // --days runs the schedule on repeat: pass 2 and beyond re-enter a.
    EXPECT_EQ(tl.phase_index_at(30), 0u);
    EXPECT_EQ(tl.phase_index_at(65), 0u);
    EXPECT_EQ(tl.phase_index_at(75), 1u);
}

TEST(Timeline, RejectsCorruptScripts) {
    // A corrupt timeline must never silently configure a device: every
    // defect throws with the offending line.
    EXPECT_THROW(parse(""), TimelineError);                            // no phases
    EXPECT_THROW(parse("block_period_s 2.0\n"), TimelineError);        // no phases
    EXPECT_THROW(parse("phase a\n"), TimelineError);                   // no duration
    EXPECT_THROW(parse("phase a 0\n"), TimelineError);                 // zero duration
    EXPECT_THROW(parse("phase a -5\n"), TimelineError);                // negative
    EXPECT_THROW(parse("phase a ten\n"), TimelineError);               // not a number
    EXPECT_THROW(parse("phase a 10 lambda=-1\n"), TimelineError);      // negative rate
    EXPECT_THROW(parse("phase a 10 ble=sideways\n"), TimelineError);   // bad enum
    EXPECT_THROW(parse("phase a 10 ble_loss=1.5\n"), TimelineError);   // out of range
    EXPECT_THROW(parse("phase a 10 volume=11\n"), TimelineError);      // unknown key
    EXPECT_THROW(parse("warp_factor 9\nphase a 10\n"), TimelineError); // unknown directive
    EXPECT_THROW(parse("battery_j 1\nbattery_j 2\nphase a 10\n"),
                 TimelineError); // duplicate header
    EXPECT_THROW(parse("phase a 1e400\n"), TimelineError);             // not finite
}

TEST(Timeline, ErrorsNameTheLine) {
    try {
        parse("block_period_s 2.0\nphase a 10 lambda=oops\n");
        FAIL() << "expected TimelineError";
    } catch (const TimelineError& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

TEST(Timeline, LoadErrorsNameThePathOnce) {
    const std::string corrupt = ::testing::TempDir() + "corrupt_timeline.txt";
    std::ofstream(corrupt) << "phase a 10 lambda=oops\n";
    for (const std::string& path : {std::string("/nonexistent/timeline.txt"), corrupt}) {
        try {
            load_timeline(path);
            FAIL() << "expected TimelineError for " << path;
        } catch (const TimelineError& e) {
            const std::string what = e.what();
            EXPECT_EQ(what.rfind(path + ": ", 0), 0u) << what;
            EXPECT_EQ(what.find(path, path.size()), std::string::npos) << what;
        }
    }
    std::remove(corrupt.c_str());
}

} // namespace
} // namespace ulpmc::scenario
