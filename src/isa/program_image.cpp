#include "isa/program_image.hpp"

namespace ulpmc::isa {

ProgramImage::ProgramImage(const Program& prog)
    : text_(prog.text), data_(prog.data), entry_(prog.entry), decoded_(text_.size()),
      blockmap_(text_) {
    for (std::size_t pc = 0; pc < text_.size(); ++pc) fill_entry(decoded_[pc], text_[pc]);
}

} // namespace ulpmc::isa
