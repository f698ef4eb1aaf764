// CRC-framed append-only run journal and the durable-run protocol built
// on it (DESIGN.md §9.6).
//
// A long fleet or lifetime run appends one frame per completed unit of
// work (device, chunk, policy); after a crash, --resume replays the
// intact frames and the run continues from where durable progress ends.
// Frame format, all little-endian host order:
//
//   [u32 kind][u32 len][len payload bytes][u32 crc]
//
// with crc = crc32(kind ++ len ++ payload). The writer flushes and
// fsyncs after every frame, so a frame is either durably complete or
// absent. read_journal is the one frame parser: it stops at the first
// torn or CRC-failing frame and reports where the clean prefix ends — a
// killed writer leaves at most one torn frame at the tail, which resume
// simply truncates away by re-opening the journal at the clean prefix.
//
// open_run_journal is the one resume path every journaled tool shares:
// frame 0 is a META frame binding the journal to the run that wrote it,
// and only the per-tool frame decoding is left to the caller.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ulpmc {

class JournalError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Frame 0 of every run journal ("META" in ASCII, read as a
/// little-endian u32): the options and input bytes the run depends on.
inline constexpr std::uint32_t kJournalMetaFrame = 0x4154454Du;

/// One decoded frame.
struct JournalFrame {
    std::uint32_t kind = 0;
    std::vector<std::uint8_t> payload;
};

/// Everything intact in a journal file from some start offset on.
struct JournalContents {
    std::vector<JournalFrame> frames;
    std::uint64_t clean_bytes = 0; ///< absolute offset where the intact frames end
    std::uint64_t file_bytes = 0;  ///< file size when read
    bool torn_tail = false;        ///< a truncated/corrupt frame follows the prefix
};

/// Reads the intact frames of `path` starting at byte offset `from`,
/// which must be a frame boundary (0, or a clean_bytes an earlier read
/// returned). Only the bytes present when the read starts are parsed; a
/// `from` past them reads nothing (file_bytes < clean_bytes then tells
/// the caller the file shrank). Throws JournalError only when the file
/// cannot be opened at all; torn tails are reported, not thrown.
JournalContents read_journal(const std::string& path, std::uint64_t from = 0);

/// Appends frames to a journal file, one durable (flushed + fsynced)
/// frame per append() call.
class JournalWriter {
public:
    /// Opens `path` for appending after truncating it to `keep_bytes`
    /// (the intact prefix a resume decided to keep; 0 starts fresh,
    /// pass JournalContents::clean_bytes to drop a torn tail). Throws
    /// JournalError when the file cannot be opened.
    JournalWriter(const std::string& path, std::uint64_t keep_bytes = 0);
    ~JournalWriter();

    JournalWriter(const JournalWriter&) = delete;
    JournalWriter& operator=(const JournalWriter&) = delete;

    /// Appends one frame and makes it durable. Throws JournalError on
    /// any I/O failure.
    void append(std::uint32_t kind, const std::vector<std::uint8_t>& payload);

private:
    std::FILE* f_ = nullptr;
    std::string path_;
};

/// Decodes one replayed non-META frame (`index` is its position in the
/// journal; META is frame 0). Returns false for a kind the caller does
/// not know, which is skipped and counted; throws JournalError (with the
/// full diagnostic) to refuse the resume.
using ReplayFrame = std::function<bool(std::size_t index, const JournalFrame& frame)>;

/// The writer a journaled run appends to.
struct RunJournal {
    std::unique_ptr<JournalWriter> writer;
    bool resumed = false; ///< an existing journal's META matched and its frames replayed
};

/// The durable-run protocol both journaled tools share (DESIGN.md §9.6).
/// Without `resume` the journal starts fresh. With it, a missing file
/// starts fresh; a first frame other than META == `meta` is refused;
/// every later intact frame goes to `replay` before the file is touched,
/// so any refusal leaves it byte-identical; then a torn tail is dropped
/// and unknown kinds are counted, each with a one-line note to `notes`.
/// META is appended only when the journal has none. Throws JournalError
/// when the journal is refused or cannot be opened.
RunJournal open_run_journal(const std::string& path, bool resume,
                            const std::vector<std::uint8_t>& meta, const ReplayFrame& replay,
                            std::ostream& notes);

/// Thrown by a run's progress hook once preemption was requested, right
/// after the in-flight unit's frame is durable; the tool exits 3.
struct Preempted {};

/// Installs the SIGTERM/SIGINT handlers that request graceful preemption.
void install_preempt_handlers();

/// True once SIGTERM or SIGINT arrived. Safe to poll from any thread.
bool preempt_requested();

} // namespace ulpmc
