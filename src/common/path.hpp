// Path helpers.
#pragma once

#include <string>

namespace ulpmc {

/// The last component of a '/'-separated path; an artifact names its
/// timeline by this, so the directory it was run from never reaches it.
inline std::string basename_of(const std::string& path) {
    const auto slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace ulpmc
