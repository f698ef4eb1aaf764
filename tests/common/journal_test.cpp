// CRC-framed run journal + atomic file replacement (DESIGN.md §9.6):
// frames round-trip, a torn tail (the signature a SIGKILL mid-append
// leaves) is truncated to the clean prefix instead of poisoning the
// resume, a corrupt frame stops the replay at the last durable point,
// re-opening at clean_bytes drops the tail so append continues the
// chain, a read from any frame boundary sees exactly the tail frames,
// the shared resume path (open_run_journal) binds, refuses, drops and
// skips as the protocol says, and write_file_atomic never exposes a
// half-written artifact.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "common/atomic_file.hpp"
#include "common/journal.hpp"

namespace ulpmc {
namespace {

class JournalTest : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = (std::filesystem::temp_directory_path() /
                 ("ulpmc_journal_test_" +
                  std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                    .string();
        std::remove(path_.c_str());
    }
    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

std::vector<std::uint8_t> bytes(std::initializer_list<int> v) {
    std::vector<std::uint8_t> out;
    for (const int b : v) out.push_back(static_cast<std::uint8_t>(b));
    return out;
}

std::uint64_t file_size(const std::string& p) {
    return static_cast<std::uint64_t>(std::filesystem::file_size(p));
}

TEST_F(JournalTest, FramesRoundTrip) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA, 0xBB}));
        w.append(2, {});
        w.append(7, bytes({1, 2, 3, 4, 5}));
    }
    const JournalContents c = read_journal(path_);
    EXPECT_FALSE(c.torn_tail);
    EXPECT_EQ(c.clean_bytes, file_size(path_));
    ASSERT_EQ(c.frames.size(), 3u);
    EXPECT_EQ(c.frames[0].kind, 1u);
    EXPECT_EQ(c.frames[0].payload, bytes({0xAA, 0xBB}));
    EXPECT_EQ(c.frames[1].kind, 2u);
    EXPECT_TRUE(c.frames[1].payload.empty());
    EXPECT_EQ(c.frames[2].kind, 7u);
    EXPECT_EQ(c.frames[2].payload.size(), 5u);
}

TEST_F(JournalTest, MissingJournalThrows) {
    EXPECT_THROW(read_journal(path_), JournalError);
}

TEST_F(JournalTest, TornTailIsReportedAndTheCleanPrefixSurvives) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, bytes({0xBB, 0xCC}));
    }
    const std::uint64_t full = file_size(path_);
    // SIGKILL mid-append: the last frame loses its tail bytes.
    std::filesystem::resize_file(path_, full - 3);
    const JournalContents c = read_journal(path_);
    EXPECT_TRUE(c.torn_tail);
    ASSERT_EQ(c.frames.size(), 1u);
    EXPECT_EQ(c.frames[0].kind, 1u);
    EXPECT_EQ(c.clean_bytes, full - (4 + 4 + 2 + 4)) << "prefix ends before frame 2";
}

TEST_F(JournalTest, CorruptFrameStopsTheReplayAtTheLastDurablePoint) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, bytes({0xBB}));
        w.append(3, bytes({0xCC}));
    }
    // Flip one payload bit inside the SECOND frame.
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t frame1 = 4 + 4 + 1 + 4;
    f.seekp(static_cast<std::streamoff>(frame1 + 8));
    const char corrupt = static_cast<char>(0xBB ^ 0x04);
    f.write(&corrupt, 1);
    f.close();

    const JournalContents c = read_journal(path_);
    EXPECT_TRUE(c.torn_tail);
    ASSERT_EQ(c.frames.size(), 1u) << "frame 3 is unreachable past the corrupt frame";
    EXPECT_EQ(c.clean_bytes, frame1);
}

TEST_F(JournalTest, ReopenAtCleanBytesDropsTheTailAndContinuesTheChain) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, bytes({0xBB}));
    }
    std::filesystem::resize_file(path_, file_size(path_) - 1); // torn tail
    const JournalContents before = read_journal(path_);
    ASSERT_TRUE(before.torn_tail);
    ASSERT_EQ(before.frames.size(), 1u);
    {
        JournalWriter w(path_, before.clean_bytes); // resume: drop the tail
        w.append(5, bytes({0xDD}));
    }
    const JournalContents after = read_journal(path_);
    EXPECT_FALSE(after.torn_tail);
    ASSERT_EQ(after.frames.size(), 2u);
    EXPECT_EQ(after.frames[0].kind, 1u);
    EXPECT_EQ(after.frames[1].kind, 5u);
    EXPECT_EQ(after.frames[1].payload, bytes({0xDD}));
}

TEST_F(JournalTest, TruncationAtEveryByteOfTheFinalFrameKeepsTheSameCleanPrefix) {
    // A crash can cut the in-flight frame at ANY byte — mid-header,
    // mid-payload, mid-CRC. Whatever the cut point, the reader must
    // report exactly the same clean prefix (never more, never less) and
    // JournalWriter(path, clean_bytes) must round-trip: drop the stump,
    // append, and leave a journal with no torn tail.
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA, 0xBB, 0xCC}));
        w.append(2, bytes({0x10, 0x20}));
        w.append(9, bytes({1, 2, 3, 4, 5, 6, 7}));
    }
    const std::uint64_t full = file_size(path_);
    const std::uint64_t final_frame = 4 + 4 + 7 + 4;
    const std::uint64_t prefix = full - final_frame;
    // Keep the original bytes so every truncation starts from the same file.
    std::vector<char> original(full);
    {
        std::ifstream f(path_, std::ios::binary);
        f.read(original.data(), static_cast<std::streamsize>(full));
    }
    for (std::uint64_t cut = prefix; cut < full; ++cut) {
        {
            std::ofstream f(path_, std::ios::binary | std::ios::trunc);
            f.write(original.data(), static_cast<std::streamsize>(cut));
        }
        const JournalContents c = read_journal(path_);
        EXPECT_EQ(c.clean_bytes, prefix) << "cut at byte " << cut;
        EXPECT_EQ(c.torn_tail, cut != prefix) << "cut at byte " << cut;
        ASSERT_EQ(c.frames.size(), 2u) << "cut at byte " << cut;
        // Round-trip: reopen at the clean prefix and append a new frame.
        {
            JournalWriter w(path_, c.clean_bytes);
            w.append(5, bytes({0xEE}));
        }
        const JournalContents after = read_journal(path_);
        EXPECT_FALSE(after.torn_tail) << "cut at byte " << cut;
        ASSERT_EQ(after.frames.size(), 3u) << "cut at byte " << cut;
        EXPECT_EQ(after.frames[2].kind, 5u) << "cut at byte " << cut;
        EXPECT_EQ(after.frames[2].payload, bytes({0xEE})) << "cut at byte " << cut;
    }
}

TEST_F(JournalTest, TrailingGarbageAfterIntactFramesIsATornTail) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
    }
    std::ofstream f(path_, std::ios::app | std::ios::binary);
    f.write("\x01\x02", 2);
    f.close();
    const JournalContents c = read_journal(path_);
    EXPECT_TRUE(c.torn_tail);
    EXPECT_EQ(c.frames.size(), 1u);
}

TEST_F(JournalTest, ReadFromAnyFrameBoundaryReturnsExactlyTheTailFrames) {
    {
        JournalWriter w(path_);
        w.append(1, bytes({0xAA}));
        w.append(2, {});
        w.append(3, bytes({1, 2, 3}));
        w.append(4, bytes({9, 9}));
    }
    std::filesystem::resize_file(path_, file_size(path_) - 2); // torn last frame
    const JournalContents all = read_journal(path_);
    ASSERT_EQ(all.frames.size(), 3u);
    std::uint64_t boundary = 0;
    for (std::size_t i = 0; i <= all.frames.size(); ++i) {
        const JournalContents tail = read_journal(path_, boundary);
        ASSERT_EQ(tail.frames.size(), all.frames.size() - i) << "from " << boundary;
        for (std::size_t j = 0; j < tail.frames.size(); ++j) {
            EXPECT_EQ(tail.frames[j].kind, all.frames[i + j].kind);
            EXPECT_EQ(tail.frames[j].payload, all.frames[i + j].payload);
        }
        EXPECT_EQ(tail.clean_bytes, all.clean_bytes) << "clean_bytes is absolute";
        EXPECT_EQ(tail.file_bytes, file_size(path_));
        EXPECT_TRUE(tail.torn_tail);
        if (i < all.frames.size()) boundary += 12 + all.frames[i].payload.size();
    }
    // Past the end (the file shrank under a reader): nothing, and
    // file_bytes < clean_bytes says so.
    const JournalContents past = read_journal(path_, all.file_bytes + 100);
    EXPECT_TRUE(past.frames.empty());
    EXPECT_LT(past.file_bytes, past.clean_bytes);
}

/// The resume path as a tool uses it: CHNK-like frames (kind 7) are
/// replayed into `got`, anything else is an unknown kind.
class RunJournalTest : public JournalTest {
protected:
    static constexpr std::uint32_t kWork = 7;
    const std::vector<std::uint8_t> meta_ = bytes({'r', 'u', 'n', 1});

    RunJournal open(bool resume, const std::vector<std::uint8_t>& meta) {
        got_.clear();
        notes_.str("");
        return open_run_journal(
            path_, resume, meta,
            [&](std::size_t, const JournalFrame& fr) {
                if (fr.kind != kWork) return false;
                got_.push_back(fr.payload);
                return true;
            },
            notes_);
    }
    std::string file_bytes_of() const {
        std::ifstream f(path_, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    }

    std::vector<std::vector<std::uint8_t>> got_;
    std::ostringstream notes_;
};

TEST_F(RunJournalTest, MissingFileOnResumeStartsFreshAndWritesMeta) {
    const RunJournal rj = open(true, meta_);
    EXPECT_FALSE(rj.resumed);
    EXPECT_NE(notes_.str().find("no journal yet, starting fresh"), std::string::npos);
    const JournalContents c = read_journal(path_);
    ASSERT_EQ(c.frames.size(), 1u);
    EXPECT_EQ(c.frames[0].kind, kJournalMetaFrame);
    EXPECT_EQ(c.frames[0].payload, meta_);
}

TEST_F(RunJournalTest, WithoutResumeAnOldJournalIsReplacedNotReplayed) {
    {
        RunJournal rj = open(false, meta_);
        rj.writer->append(kWork, bytes({1}));
    }
    RunJournal rj = open(false, meta_);
    EXPECT_FALSE(rj.resumed);
    EXPECT_TRUE(got_.empty());
    EXPECT_EQ(read_journal(path_).frames.size(), 1u) << "only the new META";
}

TEST_F(RunJournalTest, MetaMismatchIsRefusedAndLeavesTheFileByteIdentical) {
    {
        RunJournal rj = open(false, meta_);
        rj.writer->append(kWork, bytes({1, 2}));
    }
    std::filesystem::resize_file(path_, file_size(path_) - 1); // and a torn tail
    const std::string before = file_bytes_of();
    try {
        open(true, bytes({'r', 'u', 'n', 2}));
        FAIL() << "a different run's journal must be refused";
    } catch (const JournalError& e) {
        EXPECT_NE(std::string(e.what()).find("written by a different run"), std::string::npos);
    }
    EXPECT_EQ(file_bytes_of(), before);
    EXPECT_TRUE(got_.empty()) << "nothing is replayed from a refused journal";
    // A decoder refusal (a malformed frame) leaves the file untouched
    // too, torn tail included.
    {
        JournalWriter w(path_);
        w.append(kJournalMetaFrame, meta_);
        w.append(kWork, bytes({3}));
    }
    std::ofstream(path_, std::ios::binary | std::ios::app).write("\x07\x00", 2);
    const std::string good = file_bytes_of();
    EXPECT_THROW(open_run_journal(
                     path_, true, meta_,
                     [](std::size_t, const JournalFrame&) -> bool {
                         throw JournalError("malformed");
                     },
                     notes_),
                 JournalError);
    EXPECT_EQ(file_bytes_of(), good);
}

TEST_F(RunJournalTest, TornTailIsDroppedAndTheNextAppendContinuesAValidChain) {
    {
        RunJournal rj = open(false, meta_);
        rj.writer->append(kWork, bytes({1}));
        rj.writer->append(kWork, bytes({2, 2}));
    }
    const std::uint64_t intact = file_size(path_);
    {
        std::ofstream f(path_, std::ios::binary | std::ios::app);
        f.write("CHNK\x05", 5); // half a header, as a SIGKILL leaves it
    }
    {
        RunJournal rj = open(true, meta_);
        EXPECT_TRUE(rj.resumed);
        EXPECT_NE(notes_.str().find("dropping torn frame after " + std::to_string(intact) +
                                    " bytes"),
                  std::string::npos)
            << notes_.str();
        rj.writer->append(kWork, bytes({3}));
    }
    const JournalContents c = read_journal(path_);
    EXPECT_FALSE(c.torn_tail);
    ASSERT_EQ(c.frames.size(), 4u);
    EXPECT_EQ(c.frames[0].kind, kJournalMetaFrame) << "META is not appended twice";
    EXPECT_EQ(c.frames[3].payload, bytes({3}));
}

TEST_F(RunJournalTest, UnknownKindsAreSkippedAndCounted) {
    {
        RunJournal rj = open(false, meta_);
        rj.writer->append(kWork, bytes({1}));
        rj.writer->append(0x58585858u, bytes({9}));
        rj.writer->append(kWork, bytes({2}));
        rj.writer->append(0x59595959u, {});
    }
    const RunJournal rj = open(true, meta_);
    EXPECT_TRUE(rj.resumed);
    EXPECT_EQ(got_, (std::vector<std::vector<std::uint8_t>>{bytes({1}), bytes({2})}));
    EXPECT_EQ(notes_.str(), "note: " + path_ +
                                ": skipping 2 frame(s) of unknown kind (newer writer?)\n");
}

TEST_F(RunJournalTest, ReplayedFramesEqualTheAppendedOnes) {
    std::vector<std::vector<std::uint8_t>> appended;
    {
        RunJournal rj = open(false, meta_);
        for (int i = 0; i < 20; ++i) {
            appended.push_back(std::vector<std::uint8_t>(static_cast<std::size_t>(i),
                                                         static_cast<std::uint8_t>(i)));
            rj.writer->append(kWork, appended.back());
        }
    }
    for (int pass = 0; pass < 2; ++pass) {
        // Resuming twice replays the same frames: a resume appends nothing.
        const RunJournal rj = open(true, meta_);
        EXPECT_TRUE(rj.resumed);
        EXPECT_EQ(got_, appended);
        EXPECT_EQ(notes_.str(), "");
    }
}

TEST_F(JournalTest, AtomicWriteReplacesTheTargetWithoutATempResidue) {
    write_file_atomic(path_, "first\n");
    {
        std::ifstream f(path_);
        std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
        EXPECT_EQ(s, "first\n");
    }
    write_file_atomic(path_, "second version\n");
    {
        std::ifstream f(path_);
        std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
        EXPECT_EQ(s, "second version\n");
    }
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(JournalTest, AtomicWriteToAnUnwritablePathThrows) {
    EXPECT_THROW(write_file_atomic("/nonexistent-dir/x/y", "data"), AtomicFileError);
}

} // namespace
} // namespace ulpmc
