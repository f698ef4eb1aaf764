// Timeline parser robustness fuzzing: seeded mutations of the committed
// timelines (bench/timelines/*.txt) — truncations, bit flips, line
// splices and hostile number tokens — must either be rejected with a
// TimelineError naming the line (or "timeline has no phases"), or parse
// into a timeline whose every value is inside the documented bounds. An
// accepted timeline's block count is either at least one or rejected
// through the same TimelineError; never a crash or an undefined
// conversion.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scenario/engine.hpp"
#include "scenario/timeline.hpp"

namespace ulpmc::scenario {
namespace {

std::vector<std::string> corpus() {
    std::vector<std::string> texts;
    for (const char* name : {"smoke.txt", "fleet_smoke.txt", "week.txt"}) {
        std::ifstream in(std::string(ULPMC_SOURCE_DIR) + "/bench/timelines/" + name);
        EXPECT_TRUE(in.good()) << name;
        std::ostringstream bytes;
        bytes << in.rdbuf();
        texts.push_back(bytes.str());
    }
    return texts;
}

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
}

/// "line N: ..." with N >= 1.
bool names_a_line(const std::string& msg) {
    if (msg.rfind("line ", 0) != 0) return false;
    std::size_t i = 5;
    while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i]))) ++i;
    return i > 5 && msg[5] != '0' && i < msg.size() && msg[i] == ':';
}

struct Tally {
    unsigned accepted = 0;
    unsigned rejected = 0;
};

void check(const std::string& text, const std::string& what, Tally& tally) {
    std::istringstream in(text);
    Timeline tl;
    try {
        tl = parse_timeline(in);
    } catch (const TimelineError& e) {
        const std::string msg = e.what();
        EXPECT_TRUE(names_a_line(msg) || msg == "timeline has no phases") << what << ": " << msg;
        ++tally.rejected;
        return;
    }
    ++tally.accepted;
    EXPECT_TRUE(std::isfinite(tl.block_period_s) && tl.block_period_s > 0) << what;
    EXPECT_TRUE(std::isfinite(tl.battery_j) && tl.battery_j > 0) << what;
    ASSERT_FALSE(tl.phases.empty()) << what;
    for (const Phase& p : tl.phases) {
        EXPECT_FALSE(p.name.empty()) << what;
        EXPECT_TRUE(std::isfinite(p.duration_s) && p.duration_s > 0) << what;
        EXPECT_TRUE(std::isfinite(p.lambda) && p.lambda >= 0) << what;
        EXPECT_TRUE(p.ble_loss >= 0 && p.ble_loss <= 1) << what;
        EXPECT_TRUE(std::isfinite(p.harvest_uw) && p.harvest_uw >= 0) << what;
    }
    EXPECT_LT(tl.phase_index_at(0), tl.phases.size()) << what;
    // One pass of the script, and a day of it on repeat.
    for (const double days : {0.0, 1.0}) {
        try {
            EXPECT_GE(lifetime_blocks(tl, days), 1u) << what;
        } catch (const TimelineError& e) {
            EXPECT_FALSE(std::string(e.what()).empty()) << what;
        }
    }
}

TEST(TimelineFuzz, TruncationsAreRejectedOrInBounds) {
    Tally tally;
    const auto texts = corpus();
    for (std::size_t t = 0; t < texts.size(); ++t)
        for (std::size_t n = 0; n <= texts[t].size(); ++n)
            check(texts[t].substr(0, n),
                  "file " + std::to_string(t) + " cut at " + std::to_string(n), tally);
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(TimelineFuzz, BitFlipsAreRejectedOrInBounds) {
    Rng rng(1618);
    Tally tally;
    const auto texts = corpus();
    for (int iter = 0; iter < 3000; ++iter) {
        std::string text = texts[rng.below(static_cast<unsigned>(texts.size()))];
        const unsigned flips = 1 + rng.below(3);
        std::string what = "iter " + std::to_string(iter) + " flips";
        for (unsigned f = 0; f < flips; ++f) {
            const std::size_t at = rng.below(static_cast<unsigned>(text.size()));
            const unsigned bit = rng.below(8);
            text[at] = static_cast<char>(static_cast<unsigned char>(text[at]) ^ (1u << bit));
            what += " " + std::to_string(at) + ":" + std::to_string(bit);
        }
        check(text, what, tally);
    }
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(TimelineFuzz, LineSplicesAreRejectedOrInBounds) {
    // Whole lines and half lines of every corpus file, dropped,
    // duplicated and glued together in random order.
    Rng rng(2236);
    Tally tally;
    std::vector<std::string> pool;
    for (const std::string& text : corpus())
        for (const std::string& line : lines_of(text)) pool.push_back(line);
    for (int iter = 0; iter < 2000; ++iter) {
        std::string text;
        const unsigned n = rng.below(8);
        for (unsigned i = 0; i < n; ++i) {
            const std::string& a = pool[rng.below(static_cast<unsigned>(pool.size()))];
            if (rng.below(3) == 0) {
                const std::string& b = pool[rng.below(static_cast<unsigned>(pool.size()))];
                text += a.substr(0, rng.below(static_cast<unsigned>(a.size()) + 1));
                text += b.substr(rng.below(static_cast<unsigned>(b.size()) + 1));
            } else {
                text += a;
            }
            text += '\n';
        }
        check(text, "splice " + std::to_string(iter) + ":\n" + text, tally);
    }
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

TEST(TimelineFuzz, HostileNumberTokensAreRejectedOrInBounds) {
    // Every number of every corpus line, in turn, replaced by each token.
    const char* tokens[] = {"-1", "+3", " 7", "inf", "nan", "1e309", "1e300", "0x10"};
    Tally tally;
    for (const std::string& text : corpus()) {
        const auto lines = lines_of(text);
        for (std::size_t l = 0; l < lines.size(); ++l) {
            const std::string& line = lines[l];
            for (std::size_t at = 0; at < line.size(); ++at) {
                // A number starts at a digit after a blank or '='.
                if (!std::isdigit(static_cast<unsigned char>(line[at])) || at == 0 ||
                    (line[at - 1] != ' ' && line[at - 1] != '='))
                    continue;
                std::size_t end = at;
                while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
                for (const char* token : tokens) {
                    std::string mutated;
                    for (std::size_t k = 0; k < lines.size(); ++k)
                        mutated += (k == l ? line.substr(0, at) + token + line.substr(end)
                                           : lines[k]) +
                                   "\n";
                    check(mutated, "line " + std::to_string(l + 1) + " col " +
                                       std::to_string(at) + " token '" + token + "'",
                          tally);
                }
            }
        }
    }
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

} // namespace
} // namespace ulpmc::scenario
