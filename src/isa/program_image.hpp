// Decode-once program artifact (DESIGN.md §11).
//
// A design-space sweep or fault campaign runs thousands of cluster
// instances over the SAME program: the text image, its decode and its
// basic-block map are immutable per campaign, yet every Cluster::reset()
// used to re-derive all three from the raw instruction words. ProgramImage
// splits that shared immutable half out of the per-instance mutable state:
// it is built once (text + data + per-pc decode + BlockMap), held by
// shared_ptr, and every cluster instance of the campaign copies the
// pre-derived caches instead of decoding. Mutation (im_poke, IM fault
// injection) never touches the image — the owning cluster's private decode
// caches diverge copy-on-write, exactly as before.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "isa/blockmap.hpp"
#include "isa/predecode.hpp"
#include "isa/program.hpp"

namespace ulpmc::isa {

/// Immutable-per-campaign program image: the program plus everything a
/// cluster derives from its text at load time.
class ProgramImage {
public:
    explicit ProgramImage(const Program& prog);

    /// Shared-ownership factory for the campaign/sweep pattern: build one
    /// image up front, hand the same shared_ptr to every instance.
    static std::shared_ptr<const ProgramImage> build(const Program& prog) {
        return std::make_shared<const ProgramImage>(prog);
    }

    /// Instruction words, index == program address.
    const std::vector<InstrWord>& text() const { return text_; }

    /// Initialized data image, index == virtual data word address.
    const std::vector<Word>& data() const { return data_; }

    PAddr entry() const { return entry_; }
    std::uint32_t text_size() const { return static_cast<std::uint32_t>(text_.size()); }

    /// Pre-derived decode of text()[pc] (pc must be < text_size()).
    const DecodedInstr& decoded(PAddr pc) const { return decoded_[pc]; }

    /// Pre-built superblock map over text() (trace/batched engines).
    const BlockMap& blockmap() const { return blockmap_; }

private:
    std::vector<InstrWord> text_;
    std::vector<Word> data_;
    PAddr entry_ = 0;
    std::vector<DecodedInstr> decoded_; ///< index == program address
    BlockMap blockmap_;
};

} // namespace ulpmc::isa
