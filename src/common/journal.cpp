#include "common/journal.hpp"

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ostream>

#include <unistd.h>

#include "common/crc32.hpp"

namespace ulpmc {

namespace {

/// Bound on one frame's payload: a length field beyond this is garbage
/// (a torn header read as a length), not a real frame.
constexpr std::uint32_t kMaxPayload = 64u << 20;

/// Frame bytes around the payload: [u32 kind][u32 len] ... [u32 crc].
constexpr std::uint64_t kFrameOverhead = 12;

/// Set by the SIGTERM/SIGINT handler, polled by the run's progress hooks
/// on any worker thread.
std::atomic<bool> g_preempt{false};
static_assert(std::atomic<bool>::is_always_lock_free, "signal handlers need a lock-free flag");

void on_preempt_signal(int) { g_preempt.store(true); }

} // namespace

JournalContents read_journal(const std::string& path, std::uint64_t from) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) throw JournalError("journal: cannot open: " + path + ": " + std::strerror(errno));

    // Frames are parsed only within the size seen up front, so a writer
    // appending concurrently cannot move the answer mid-read.
    JournalContents jc;
    std::fseek(f, 0, SEEK_END);
    jc.file_bytes = static_cast<std::uint64_t>(std::ftell(f));
    jc.clean_bytes = from;
    if (from <= jc.file_bytes && std::fseek(f, static_cast<long>(from), SEEK_SET) == 0) {
        for (;;) {
            std::uint32_t head[2]; // kind, len
            if (jc.file_bytes - jc.clean_bytes < sizeof(head) ||
                std::fread(head, 1, sizeof(head), f) != sizeof(head))
                break;
            if (head[1] > kMaxPayload ||
                jc.file_bytes - jc.clean_bytes < kFrameOverhead + head[1]) {
                jc.torn_tail = true;
                break;
            }
            JournalFrame fr{head[0], std::vector<std::uint8_t>(head[1])};
            std::uint32_t stored_crc = 0;
            if ((head[1] > 0 && std::fread(fr.payload.data(), 1, head[1], f) != head[1]) ||
                std::fread(&stored_crc, 1, sizeof(stored_crc), f) != sizeof(stored_crc) ||
                crc32(fr.payload.data(), head[1], crc32(head, sizeof(head))) != stored_crc) {
                jc.torn_tail = true;
                break;
            }
            jc.clean_bytes += kFrameOverhead + head[1];
            jc.frames.push_back(std::move(fr));
        }
    }
    // Bytes past the last intact frame (without even a readable header)
    // are also a torn tail.
    if (jc.clean_bytes != jc.file_bytes) jc.torn_tail = true;
    std::fclose(f);
    return jc;
}

JournalWriter::JournalWriter(const std::string& path, std::uint64_t keep_bytes) : path_(path) {
    // "ab" would forbid the truncation; open read-write, create if
    // missing, then cut the torn tail and seek to the clean end.
    f_ = std::fopen(path.c_str(), "r+b");
    if (!f_) f_ = std::fopen(path.c_str(), "w+b");
    if (!f_)
        throw JournalError("journal: cannot open for append: " + path + ": " +
                           std::strerror(errno));
    if (ftruncate(fileno(f_), static_cast<off_t>(keep_bytes)) != 0 ||
        std::fseek(f_, 0, SEEK_END) != 0) {
        std::fclose(f_);
        f_ = nullptr;
        throw JournalError("journal: cannot truncate: " + path + ": " + std::strerror(errno));
    }
}

JournalWriter::~JournalWriter() {
    if (f_) std::fclose(f_);
}

void JournalWriter::append(std::uint32_t kind, const std::vector<std::uint8_t>& payload) {
    const std::uint32_t head[2] = {kind, static_cast<std::uint32_t>(payload.size())};
    const std::uint32_t crc = crc32(payload.data(), payload.size(), crc32(head, sizeof(head)));
    bool ok = std::fwrite(head, 1, sizeof(head), f_) == sizeof(head);
    ok = ok && (payload.empty() ||
                std::fwrite(payload.data(), 1, payload.size(), f_) == payload.size());
    ok = ok && std::fwrite(&crc, 1, sizeof(crc), f_) == sizeof(crc);
    ok = ok && std::fflush(f_) == 0;
    // fsync makes the frame durable before the caller treats the work as
    // done — the whole point of journaling ahead of a SIGKILL.
    ok = ok && fsync(fileno(f_)) == 0;
    if (!ok)
        throw JournalError("journal: append failed: " + path_ + ": " + std::strerror(errno));
}

RunJournal open_run_journal(const std::string& path, bool resume,
                            const std::vector<std::uint8_t>& meta, const ReplayFrame& replay,
                            std::ostream& notes) {
    RunJournal rj;
    std::uint64_t keep = 0;
    if (resume) {
        JournalContents jc;
        try {
            jc = read_journal(path);
        } catch (const JournalError&) {
            notes << "note: " << path << ": no journal yet, starting fresh\n";
        }
        // An empty or wholly torn file has no META to bind: start fresh.
        if (!jc.frames.empty()) {
            if (jc.frames[0].kind != kJournalMetaFrame || jc.frames[0].payload != meta)
                throw JournalError(path + ": journal was written by a different run "
                                          "(options or timeline changed); refusing to resume");
            std::uint64_t skipped = 0;
            for (std::size_t f = 1; f < jc.frames.size(); ++f) {
                // Forward compatibility: a frame of a kind this binary does
                // not know carries no replay state for it — skip it rather
                // than refusing the journal.
                if (!replay(f, jc.frames[f])) ++skipped;
            }
            rj.resumed = true;
            keep = jc.clean_bytes;
            if (jc.torn_tail)
                notes << "note: " << path << ": dropping torn frame after " << keep
                      << " bytes\n";
            if (skipped > 0)
                notes << "note: " << path << ": skipping " << skipped
                      << " frame(s) of unknown kind (newer writer?)\n";
        }
    }
    rj.writer = std::make_unique<JournalWriter>(path, keep);
    if (!rj.resumed) rj.writer->append(kJournalMetaFrame, meta);
    return rj;
}

void install_preempt_handlers() {
    std::signal(SIGTERM, on_preempt_signal);
    std::signal(SIGINT, on_preempt_signal);
}

bool preempt_requested() { return g_preempt.load(); }

} // namespace ulpmc
