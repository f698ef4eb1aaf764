// Atomic whole-file writes (DESIGN.md §9.6).
//
// The JSON artifacts gate CI and feed downstream merges; a run killed
// mid-write must never leave a half-written file that a check_*.py gate
// could read as valid-but-wrong. write_file_atomic writes to a
// same-directory temp file, flushes and fsyncs it, then rename()s over
// the destination — readers see the old bytes or the new bytes, never a
// prefix.
#pragma once

#include <stdexcept>
#include <string>

namespace ulpmc {

class AtomicFileError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Replaces `path`'s contents with `content` atomically. Throws
/// AtomicFileError on any I/O failure (the temp file is removed).
void write_file_atomic(const std::string& path, const std::string& content);

/// Publishes a driver's artifact: `content` goes to stdout when `path` is
/// "-", otherwise through write_file_atomic (which may throw).
void publish_file(const std::string& path, const std::string& content);

} // namespace ulpmc
