#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace ulpmc::cli {
namespace {

constexpr const char* kUsage = "usage: tool [--seed N] [--threads N] [--fast] FILE\n";

/// A driver-shaped parser over a few binders, run on one argv.
struct Invocation {
    std::uint64_t seed = 1;
    unsigned threads = 0;
    double days = 0;
    bool fast = false;
    std::string file;
    std::string json;
    unsigned dump_addr = 0, dump_len = 0;
    std::optional<int> rc;
    std::string out, err;
    bool dump_given = false;

    explicit Invocation(std::initializer_list<const char*> args) {
        Parser p(kUsage);
        p.positional(file, "input file");
        p.u64("--seed", seed);
        p.count("--threads", threads, 0, 1024);
        p.positive("--days", days, "expected a positive number");
        p.flag("--fast", fast);
        p.text("--json", json);
        p.option2("--dump",
                  [&](const std::string& a, const std::string& l) {
                      return parse_count(a, 0, 100, dump_addr) && parse_count(l, 1, 100, dump_len);
                  },
                  "expected ADDR LEN");
        std::vector<const char*> argv = {"tool"};
        argv.insert(argv.end(), args);
        std::ostringstream o, e;
        rc = p.parse(static_cast<int>(argv.size()), argv.data(), o, e);
        out = o.str();
        err = e.str();
        dump_given = p.given("--dump");
    }
};

void expect_usage_error(const Invocation& r, const std::string& line) {
    ASSERT_TRUE(r.rc.has_value());
    EXPECT_EQ(*r.rc, 2);
    EXPECT_EQ(r.err, line + "\n");
    EXPECT_EQ(r.out, "");
}

TEST(Cli, BindsEveryKindOfOption) {
    const Invocation r({"in.txt", "--seed", "42", "--fast", "--threads", "1024", "--days",
                        "0.5", "--json", "-", "--dump", "7", "3"});
    EXPECT_FALSE(r.rc.has_value());
    EXPECT_EQ(r.err, "");
    EXPECT_EQ(r.file, "in.txt");
    EXPECT_EQ(r.seed, 42u);
    EXPECT_EQ(r.threads, 1024u);
    EXPECT_EQ(r.days, 0.5);
    EXPECT_TRUE(r.fast);
    EXPECT_EQ(r.json, "-");
    EXPECT_TRUE(r.dump_given);
    EXPECT_EQ(r.dump_addr, 7u);
    EXPECT_EQ(r.dump_len, 3u);
}

TEST(Cli, AbsentOptionsKeepTheirDefaults) {
    const Invocation r({});
    EXPECT_FALSE(r.rc.has_value());
    EXPECT_EQ(r.seed, 1u);
    EXPECT_FALSE(r.fast);
    EXPECT_FALSE(r.dump_given);
    EXPECT_EQ(r.file, "");
}

TEST(Cli, HelpPrintsTheUsageOnStdoutAndStops) {
    for (const char* help : {"--help", "-h"}) {
        const Invocation r({"--seed", "3", help, "--no-such-option"});
        ASSERT_TRUE(r.rc.has_value());
        EXPECT_EQ(*r.rc, 0);
        EXPECT_EQ(r.out, kUsage);
        EXPECT_EQ(r.err, "");
    }
}

TEST(Cli, RejectsADuplicateOption) {
    expect_usage_error(Invocation({"--seed", "1", "--seed", "2"}), "--seed: duplicate option");
    expect_usage_error(Invocation({"--fast", "--fast"}), "--fast: duplicate option");
    // The repeat is caught before its missing value.
    expect_usage_error(Invocation({"--seed", "1", "--seed"}), "--seed: duplicate option");
}

TEST(Cli, RejectsAValueMissingAtTheEnd) {
    expect_usage_error(Invocation({"--seed"}), "--seed requires a value");
    expect_usage_error(Invocation({"--dump", "7"}), "--dump requires two values");
}

TEST(Cli, AValueIsTakenVerbatimEvenWithALeadingDash) {
    const Invocation r({"--json", "--fast"});
    EXPECT_FALSE(r.rc.has_value());
    EXPECT_EQ(r.json, "--fast");
    EXPECT_FALSE(r.fast);
}

TEST(Cli, RejectsAnUnknownOption) {
    expect_usage_error(Invocation({"--sed", "1"}), "--sed: unknown option");
    expect_usage_error(Invocation({"-"}), "-: unknown option");
}

TEST(Cli, RejectsAnExtraPositionalArgument) {
    expect_usage_error(Invocation({"a.txt", "--fast", "b.txt"}),
                       "more than one input file given ('a.txt' and 'b.txt')");
}

TEST(Cli, APositionalArgumentIsUnknownToADriverWithoutOne) {
    Parser p(kUsage);
    const char* argv[] = {"tool", "stray"};
    std::ostringstream o, e;
    EXPECT_EQ(p.parse(2, argv, o, e), 2);
    EXPECT_EQ(e.str(), "stray: unknown option\n");
}

TEST(Cli, NumberBindersRejectSignsSpacesOverflowAndRange) {
    for (const char* bad : {"-1", "+3", " 7", "7 ", "", "0x10", "18446744073709551616", "1e3"})
        expect_usage_error(Invocation({"--seed", bad}), "--seed: not a number");
    for (const char* bad : {"1025", "-0", "+1", " 1", "4294967296"})
        expect_usage_error(Invocation({"--threads", bad}),
                           "--threads: expected a count in [0, 1024]");
    for (const char* bad : {"0", "-1", "+1", " 1", "inf", "nan", "1e400"})
        expect_usage_error(Invocation({"--days", bad}), "--days: expected a positive number");
    expect_usage_error(Invocation({"--dump", "101", "1"}), "--dump: expected ADDR LEN");
    expect_usage_error(Invocation({"--dump", "0", "0"}), "--dump: expected ADDR LEN");
}

TEST(Cli, NumberBindersAcceptTheirBounds) {
    EXPECT_EQ(Invocation({"--seed", "18446744073709551615"}).seed, 18446744073709551615ull);
    EXPECT_EQ(Invocation({"--threads", "0"}).threads, 0u);
    EXPECT_EQ(Invocation({"--days", "1e-9"}).days, 1e-9);
}

TEST(Cli, PositiveAndRealBinders) {
    std::uint64_t devices = 5;
    double fraction = 0;
    Parser p(kUsage);
    p.positive("--devices", devices);
    p.real("--baseline", fraction, 0, 1, "expected a fraction in [0, 1]");
    std::ostringstream o, e;
    const char* zero[] = {"tool", "--devices", "0"};
    EXPECT_EQ(p.parse(3, zero, o, e), 2);
    EXPECT_EQ(e.str(), "--devices: expected a positive count\n");

    Parser q(kUsage);
    q.real("--baseline", fraction, 0, 1, "expected a fraction in [0, 1]");
    std::ostringstream e2;
    const char* over[] = {"tool", "--baseline", "1.5"};
    EXPECT_EQ(q.parse(3, over, o, e2), 2);
    EXPECT_EQ(e2.str(), "--baseline: expected a fraction in [0, 1]\n");

    Parser r(kUsage);
    r.real("--baseline", fraction, 0, 1, "expected a fraction in [0, 1]");
    const char* edge[] = {"tool", "--baseline", "1"};
    EXPECT_FALSE(r.parse(3, edge, o, e).has_value());
    EXPECT_EQ(fraction, 1.0);
}

TEST(Cli, BindUsesTheCallersParseFunction) {
    int mode = 0;
    Parser p(kUsage);
    p.bind("--mode", mode,
           [](const std::string& v, int& out) {
               if (v != "a" && v != "b") return false;
               out = v == "a" ? 1 : 2;
               return true;
           },
           "expected a or b");
    std::ostringstream o, e;
    const char* ok[] = {"tool", "--mode", "b"};
    EXPECT_FALSE(p.parse(3, ok, o, e).has_value());
    EXPECT_EQ(mode, 2);
    EXPECT_TRUE(p.given("--mode"));
    EXPECT_FALSE(p.given("--other"));

    Parser q(kUsage);
    q.bind("--mode", mode, [](const std::string&, int&) { return false; }, "expected a or b");
    const char* bad[] = {"tool", "--mode", "c"};
    EXPECT_EQ(q.parse(3, bad, o, e), 2);
    EXPECT_EQ(e.str(), "--mode: expected a or b\n");
}

} // namespace
} // namespace ulpmc::cli
