// Kill-and-resume through the ulpmc-life and ulpmc-fleet binaries
// (DESIGN.md §9.6), registered as the `lifetime_resume` and
// `fleet_resume` ctests (label smoke). Each journaled run is SIGKILLed
// (or, once, SIGTERMed: graceful preemption must exit 3) as soon as its
// journal holds a work frame (polled with read_journal, never timed by
// sleep), half a frame is appended so the torn-tail path always runs,
// and the run is resumed on a different thread count: the resumed
// JSON (and ULPF store, for the fleet) must be byte-identical to an
// uninterrupted run. A resume under a different spec must exit 2 with one
// stderr line and leave the journal byte-identical.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/journal.hpp"
#include "fleet/fleet.hpp"

namespace ulpmc {
namespace {

/// ulpmc-life's chunk frame kind ("CHNK").
constexpr std::uint32_t kChunkFrame = 0x4B4E4843u;

std::string slurp(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
}

class ResumeCli : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (std::filesystem::temp_directory_path() /
                ("ulpmc_resume_cli_" +
                 std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                   .string();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string at(const std::string& name) const { return dir_ + "/" + name; }

    /// Starts `args` with stdout discarded and stderr captured to err.log.
    pid_t spawn(std::vector<std::string> args) const {
        std::vector<char*> argv;
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        const std::string err = at("err.log");
        const pid_t pid = fork();
        if (pid == 0) {
            const int out = open("/dev/null", O_WRONLY);
            const int fd = open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0666);
            if (out >= 0) dup2(out, 1);
            if (fd >= 0) dup2(fd, 2);
            execv(argv[0], argv.data());
            _exit(127);
        }
        return pid;
    }

    /// Runs `args` to completion; returns the exit code, stderr in `err`.
    int run(const std::vector<std::string>& args, std::string* err = nullptr) const {
        const pid_t pid = spawn(args);
        int st = 0;
        waitpid(pid, &st, 0);
        if (err) *err = slurp(at("err.log"));
        return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    }

    /// Starts `args`, sends `sig` once `journal` holds a frame of `kind`,
    /// then appends half a frame as a kill mid-append would leave it.
    void kill_after_first(const std::vector<std::string>& args, const std::string& journal,
                          std::uint32_t kind, int sig = SIGKILL) const {
        const pid_t pid = spawn(args);
        bool seen = false;
        int st = 0;
        while (!seen && waitpid(pid, &st, WNOHANG) == 0) {
            try {
                for (const JournalFrame& fr : read_journal(journal).frames)
                    seen = seen || fr.kind == kind;
            } catch (const JournalError&) {
                // not created yet
            }
            if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (seen) {
            kill(pid, sig);
            waitpid(pid, &st, 0);
        }
        ASSERT_TRUE(seen) << "the run exited before journaling any work";
        if (sig == SIGKILL)
            EXPECT_TRUE(WIFSIGNALED(st)) << "the run finished before the kill landed";
        else
            EXPECT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 3) << "preemption exits 3";
        std::ofstream(journal, std::ios::binary | std::ios::app).write("CHNK\x10\x00", 6);
    }

    /// A resume under a different spec: exit 2, one stderr line, and the
    /// (torn) journal left exactly as it was.
    void expect_refused(const std::vector<std::string>& args, const std::string& journal) const {
        const std::string before = slurp(journal);
        std::string err;
        EXPECT_EQ(run(args, &err), 2) << err;
        EXPECT_NE(err.find("written by a different run"), std::string::npos) << err;
        EXPECT_EQ(err.find('\n'), err.size() - 1) << "one diagnostic line: " << err;
        EXPECT_EQ(slurp(journal), before) << "a refused resume must not touch the journal";
    }

    std::string dir_;
};

TEST_F(ResumeCli, LifeKillThenResumeIsByteIdentical) {
    auto life = [&](const char* seed, std::vector<std::string> extra) {
        std::vector<std::string> a = {ULPMC_LIFE_BIN, "--timeline",
                                      ULPMC_SOURCE_DIR "/bench/timelines/smoke.txt",
                                      "--seed", seed, "--policy", "both"};
        a.insert(a.end(), extra.begin(), extra.end());
        return a;
    };
    ASSERT_EQ(run(life("7", {"--threads", "1", "--json", at("whole.json")})), 0);

    const std::string jnl = at("life.jnl");
    kill_after_first(life("7", {"--threads", "2", "--journal", jnl}), jnl, kChunkFrame);
    expect_refused(life("8", {"--resume", jnl}), jnl);

    std::string err;
    ASSERT_EQ(
        run(life("7", {"--threads", "4", "--resume", jnl, "--json", at("resumed.json")}), &err),
        0)
        << err;
    EXPECT_NE(err.find("dropping torn frame"), std::string::npos) << err;
    EXPECT_EQ(slurp(at("resumed.json")), slurp(at("whole.json")));
}

TEST_F(ResumeCli, FleetKillThenResumeOnOtherThreadsIsByteIdentical) {
    // Unsharded and SIGKILLed, then shard 0/2 and SIGTERMed: the journal
    // binds the shard key, and a resumed shard must reproduce its own
    // artifacts too.
    for (const std::string shard : {"", "0/2"}) {
        SCOPED_TRACE("shard '" + shard + "'");
        auto with = [&](std::vector<std::string> extra) {
            std::vector<std::string> a = {ULPMC_FLEET_BIN, "--timeline",
                                          ULPMC_SOURCE_DIR "/bench/timelines/fleet_smoke.txt",
                                          "--devices", "96", "--cohorts", "3"};
            if (!shard.empty()) a.insert(a.end(), {"--shard", shard});
            a.insert(a.end(), extra.begin(), extra.end());
            return a;
        };
        ASSERT_EQ(run(with({"--threads", "4", "--json", at("whole.json"), "--store",
                            at("whole.ulpf")})),
                  0);

        const std::string jnl = at("fleet.jnl");
        std::filesystem::remove(jnl);
        kill_after_first(with({"--threads", "2", "--journal", jnl}), jnl,
                         fleet::kFleetRecordFrame, shard.empty() ? SIGKILL : SIGTERM);
        expect_refused(with({"--seed", "99", "--resume", jnl}), jnl);

        std::string err;
        ASSERT_EQ(run(with({"--threads", "4", "--resume", jnl, "--json", at("resumed.json"),
                            "--store", at("resumed.ulpf")}),
                      &err),
                  0)
            << err;
        EXPECT_NE(err.find("dropping torn frame"), std::string::npos) << err;
        EXPECT_NE(err.find("resuming with"), std::string::npos) << err;
        EXPECT_EQ(slurp(at("resumed.json")), slurp(at("whole.json")));
        EXPECT_EQ(slurp(at("resumed.ulpf")), slurp(at("whole.ulpf")));
    }
}

} // namespace
} // namespace ulpmc
