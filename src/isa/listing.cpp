#include "isa/listing.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "isa/disassembler.hpp"

namespace ulpmc::isa {

std::string format_listing(const Program& p) {
    std::ostringstream os;
    char buf[128];

    std::snprintf(buf, sizeof buf, "; %zu instructions (%zu bytes), %zu data words, entry %u\n",
                  p.text.size(), p.text_bytes(), p.data.size(), p.entry);
    os << buf;

    // Labels per text address.
    std::multimap<std::uint32_t, std::string> text_labels;
    for (const auto& [name, sym] : p.symbols())
        if (sym.space == Symbol::Space::Text) text_labels.emplace(sym.value, name);

    for (std::size_t pc = 0; pc < p.text.size(); ++pc) {
        for (auto [it, end] = text_labels.equal_range(static_cast<std::uint32_t>(pc)); it != end;
             ++it)
            os << it->second << ":\n";
        std::snprintf(buf, sizeof buf, "  %04zu  %06X  %s\n", pc, p.text[pc],
                      disassemble_word(p.text[pc], static_cast<PAddr>(pc)).c_str());
        os << buf;
    }

    if (!p.symbols().empty()) {
        os << "\n; symbols\n";
        for (const auto& [name, sym] : p.symbols()) {
            std::snprintf(buf, sizeof buf, ";   %-24s %5u  (%s)\n", name.c_str(), sym.value,
                          sym.space == Symbol::Space::Text ? "text" : "data");
            os << buf;
        }
    }

    return os.str();
}

} // namespace ulpmc::isa
