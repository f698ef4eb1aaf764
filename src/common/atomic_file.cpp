#include "common/atomic_file.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iostream>

#include <unistd.h>

namespace ulpmc {

void write_file_atomic(const std::string& path, const std::string& content) {
    // The temp file must live in the destination's directory: rename()
    // is only atomic within one filesystem.
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        throw AtomicFileError("atomic write: cannot open " + tmp + ": " +
                              std::strerror(errno));
    bool ok = content.empty() ||
              std::fwrite(content.data(), 1, content.size(), f) == content.size();
    ok = ok && std::fflush(f) == 0;
    ok = ok && fsync(fileno(f)) == 0;
    ok = (std::fclose(f) == 0) && ok;
    if (!ok) {
        std::remove(tmp.c_str());
        throw AtomicFileError("atomic write: write failed: " + tmp + ": " +
                              std::strerror(errno));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int e = errno;
        std::remove(tmp.c_str());
        throw AtomicFileError("atomic write: rename to " + path + " failed: " +
                              std::strerror(e));
    }
}

void publish_file(const std::string& path, const std::string& content) {
    if (path == "-")
        std::cout << content;
    else
        write_file_atomic(path, content);
}

} // namespace ulpmc
