// Seeded mutation fuzzing of the one journal frame parser (read_journal,
// DESIGN.md §9.6). A valid journal is mutated by bit flips, truncations,
// splices and lying length fields; for every mutant read_journal must
// not crash, every frame it returns must be CRC-valid and lie exactly
// within the clean prefix, clean_bytes may not pass the file size, and
// reading from any intact frame boundary must give the same answer as
// reading from 0. No libFuzzer: a deterministic corpus, as in
// tests/isa/assembler_fuzz_test.cpp; the sanitize build runs it under
// ASan and UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/journal.hpp"
#include "common/rng.hpp"

namespace ulpmc {
namespace {

using Bytes = std::vector<std::uint8_t>;

/// One frame exactly as JournalWriter lays it out.
Bytes encode(const JournalFrame& fr) {
    const std::uint32_t head[2] = {fr.kind, static_cast<std::uint32_t>(fr.payload.size())};
    const std::uint32_t crc =
        crc32(fr.payload.data(), fr.payload.size(), crc32(head, sizeof(head)));
    Bytes out(sizeof(head) + fr.payload.size() + sizeof(crc));
    std::memcpy(out.data(), head, sizeof(head));
    if (!fr.payload.empty())
        std::memcpy(out.data() + sizeof(head), fr.payload.data(), fr.payload.size());
    std::memcpy(out.data() + sizeof(head) + fr.payload.size(), &crc, sizeof(crc));
    return out;
}

class JournalFuzz : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = (std::filesystem::temp_directory_path() /
                 ("ulpmc_journal_fuzz_" +
                  std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                  ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                    .string();
        // The corpus: a META frame, then frames of assorted kinds and
        // sizes, empty payloads included, as a fleet or life run writes.
        Rng rng(0x6A0E);
        frames_.push_back({kJournalMetaFrame, Bytes(29, 0x4D)});
        for (int i = 0; i < 24; ++i) {
            JournalFrame fr{0x44434552u + rng.below(3),
                            Bytes(rng.below(4) == 0 ? 0 : rng.below(80))};
            for (std::uint8_t& b : fr.payload) b = static_cast<std::uint8_t>(rng.below(256));
            frames_.push_back(fr);
        }
        for (const JournalFrame& fr : frames_) {
            const Bytes e = encode(fr);
            valid_.insert(valid_.end(), e.begin(), e.end());
        }
    }
    void TearDown() override { std::remove(path_.c_str()); }

    /// Writes `file` and checks every property of read_journal on it.
    /// Returns the frames read from offset 0.
    std::vector<JournalFrame> check(const Bytes& file, const std::string& what) {
        {
            std::ofstream f(path_, std::ios::binary | std::ios::trunc);
            f.write(reinterpret_cast<const char*>(file.data()),
                    static_cast<std::streamsize>(file.size()));
        }
        const JournalContents c = read_journal(path_);
        EXPECT_EQ(c.file_bytes, file.size()) << what;
        EXPECT_LE(c.clean_bytes, c.file_bytes) << what;
        EXPECT_EQ(c.torn_tail, c.clean_bytes != c.file_bytes) << what;
        // Re-encoding the returned frames must reproduce the clean prefix
        // byte for byte: each frame is CRC-valid and sits where it was read.
        Bytes prefix;
        std::vector<std::uint64_t> boundaries = {0};
        for (const JournalFrame& fr : c.frames) {
            const Bytes e = encode(fr);
            prefix.insert(prefix.end(), e.begin(), e.end());
            boundaries.push_back(prefix.size());
        }
        EXPECT_EQ(prefix.size(), c.clean_bytes) << what;
        EXPECT_TRUE(prefix.size() <= file.size() &&
                    std::equal(prefix.begin(), prefix.end(), file.begin()))
            << what;
        // Any intact boundary resumes the same parse.
        for (std::size_t i = 0; i < boundaries.size(); ++i) {
            const JournalContents t = read_journal(path_, boundaries[i]);
            EXPECT_EQ(t.clean_bytes, c.clean_bytes) << what << ", from " << boundaries[i];
            EXPECT_EQ(t.torn_tail, c.torn_tail) << what << ", from " << boundaries[i];
            EXPECT_EQ(t.file_bytes, c.file_bytes) << what << ", from " << boundaries[i];
            bool same = t.frames.size() == c.frames.size() - i;
            for (std::size_t j = 0; same && j < t.frames.size(); ++j)
                same = t.frames[j].kind == c.frames[i + j].kind &&
                       t.frames[j].payload == c.frames[i + j].payload;
            EXPECT_TRUE(same) << what << ", from " << boundaries[i];
        }
        return c.frames;
    }

    /// Byte offset of frame `i` in the valid journal.
    std::size_t offset_of(std::size_t i) const {
        std::size_t off = 0;
        for (std::size_t k = 0; k < i; ++k) off += 12 + frames_[k].payload.size();
        return off;
    }

    std::string path_;
    std::vector<JournalFrame> frames_;
    Bytes valid_;
};

TEST_F(JournalFuzz, TheCorpusItselfReadsBackWhole) {
    const std::vector<JournalFrame> got = check(valid_, "valid");
    ASSERT_EQ(got.size(), frames_.size());
    for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i].payload, frames_[i].payload);
}

TEST_F(JournalFuzz, TruncationsKeepExactlyTheWholeFramesBeforeTheCut) {
    Rng rng(11);
    for (int iter = 0; iter < 120; ++iter) {
        const std::size_t cut = rng.below(static_cast<std::uint32_t>(valid_.size() + 1));
        const Bytes file(valid_.begin(), valid_.begin() + static_cast<std::ptrdiff_t>(cut));
        const std::vector<JournalFrame> got = check(file, "cut at " + std::to_string(cut));
        std::size_t whole = 0;
        while (whole < frames_.size() && offset_of(whole + 1) <= cut) ++whole;
        ASSERT_EQ(got.size(), whole) << "cut at " << cut;
        for (std::size_t i = 0; i < whole; ++i)
            EXPECT_EQ(got[i].payload, frames_[i].payload) << "cut at " << cut;
    }
}

TEST_F(JournalFuzz, BitFlipsNeverCrashAndStopAtTheDamage) {
    Rng rng(22);
    for (int iter = 0; iter < 150; ++iter) {
        Bytes file = valid_;
        const unsigned flips = 1 + rng.below(3);
        std::size_t first = file.size();
        for (unsigned f = 0; f < flips; ++f) {
            const std::size_t at = rng.below(static_cast<std::uint32_t>(file.size()));
            file[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
            first = std::min(first, at);
        }
        const std::vector<JournalFrame> got =
            check(file, "flips from " + std::to_string(first));
        // CRC-32 detects every error of up to three bits in a frame this
        // short, so nothing at or past the first damaged frame survives.
        std::size_t damaged = 0;
        while (damaged < frames_.size() && offset_of(damaged + 1) <= first) ++damaged;
        EXPECT_LE(got.size(), damaged) << "flips from " << first;
    }
}

TEST_F(JournalFuzz, SplicesNeverCrash) {
    Rng rng(33);
    for (int iter = 0; iter < 150; ++iter) {
        // A prefix of the journal followed by a chunk from anywhere in it:
        // frames shifted off their boundaries, duplicated or half-glued.
        const std::size_t a = rng.below(static_cast<std::uint32_t>(valid_.size() + 1));
        const std::size_t b = rng.below(static_cast<std::uint32_t>(valid_.size() + 1));
        const std::size_t len = rng.below(static_cast<std::uint32_t>(valid_.size() - b + 1));
        Bytes file(valid_.begin(), valid_.begin() + static_cast<std::ptrdiff_t>(a));
        file.insert(file.end(), valid_.begin() + static_cast<std::ptrdiff_t>(b),
                    valid_.begin() + static_cast<std::ptrdiff_t>(b + len));
        check(file, "splice " + std::to_string(a) + "+" + std::to_string(b) + ":" +
                        std::to_string(len));
    }
}

TEST_F(JournalFuzz, LyingLengthFieldsNeverCrashOrOverread) {
    Rng rng(44);
    const std::uint32_t lies[] = {0xFFFFFFFFu, 0x80000000u, (64u << 20) + 1, 64u << 20,
                                  1u << 20, 0};
    for (int iter = 0; iter < 150; ++iter) {
        Bytes file = valid_;
        const std::size_t i = rng.below(static_cast<std::uint32_t>(frames_.size()));
        const std::uint32_t real = static_cast<std::uint32_t>(frames_[i].payload.size());
        std::uint32_t len;
        switch (rng.below(3)) {
        case 0: len = lies[rng.below(static_cast<std::uint32_t>(std::size(lies)))]; break;
        case 1: len = real + 1 + rng.below(64); break; // longer than the frame
        default: len = real > 0 ? rng.below(real) : 1; break; // shorter
        }
        std::memcpy(file.data() + offset_of(i) + 4, &len, sizeof(len));
        const std::vector<JournalFrame> got =
            check(file, "frame " + std::to_string(i) + " len " + std::to_string(len));
        if (len != real) {
            EXPECT_EQ(got.size(), i) << "frame " << i << " len " << len;
        }
    }
}

} // namespace
} // namespace ulpmc
