#include "isa/binfmt.hpp"

#include <array>
#include <cstring>

#include "common/assert.hpp"

namespace ulpmc::isa {

namespace {

constexpr std::array<char, 4> kMagic = {'U', 'P', 'M', 'C'};

class Writer {
public:
    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v) {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }
    void u24(std::uint32_t v) {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
        u8(static_cast<std::uint8_t>(v >> 16));
    }
    void u32(std::uint32_t v) {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        out_.insert(out_.end(), b, b + n);
    }
    std::vector<std::uint8_t> take() { return std::move(out_); }
    const std::vector<std::uint8_t>& view() const { return out_; }

private:
    std::vector<std::uint8_t> out_;
};

class Reader {
public:
    Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

    bool u8(std::uint8_t& v) {
        if (pos_ >= bytes_.size()) return false;
        v = bytes_[pos_++];
        return true;
    }
    bool u16(std::uint16_t& v) {
        std::uint8_t a = 0;
        std::uint8_t b = 0;
        if (!u8(a) || !u8(b)) return false;
        v = static_cast<std::uint16_t>(a | (b << 8));
        return true;
    }
    bool u24(std::uint32_t& v) {
        std::uint8_t a = 0;
        std::uint8_t b = 0;
        std::uint8_t c = 0;
        if (!u8(a) || !u8(b) || !u8(c)) return false;
        v = static_cast<std::uint32_t>(a) | (static_cast<std::uint32_t>(b) << 8) |
            (static_cast<std::uint32_t>(c) << 16);
        return true;
    }
    bool u32(std::uint32_t& v) {
        std::uint16_t a = 0;
        std::uint16_t b = 0;
        if (!u16(a) || !u16(b)) return false;
        v = static_cast<std::uint32_t>(a) | (static_cast<std::uint32_t>(b) << 16);
        return true;
    }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return bytes_.size() - pos_; }

private:
    const std::vector<std::uint8_t>& bytes_;
    std::size_t pos_ = 0;
};

} // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
    // Bitwise reflected CRC-32 (polynomial 0xEDB88320); table-free keeps
    // the implementation obviously correct for the sizes involved here.
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        crc ^= data[i];
        for (int b = 0; b < 8; ++b) crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
    return ~crc;
}

std::vector<std::uint8_t> save_program(const Program& p) {
    Writer w;
    w.bytes(kMagic.data(), kMagic.size());
    w.u16(kBinFormatVersion);
    w.u16(p.entry);

    w.u32(static_cast<std::uint32_t>(p.text.size()));
    for (const InstrWord i : p.text) w.u24(i & kInstrWordMask);

    w.u32(static_cast<std::uint32_t>(p.data.size()));
    for (const Word d : p.data) w.u16(d);

    w.u32(static_cast<std::uint32_t>(p.symbols().size()));
    for (const auto& [name, sym] : p.symbols()) {
        w.u8(sym.space == Symbol::Space::Text ? 0 : 1);
        w.u32(sym.value);
        ULPMC_EXPECTS(name.size() <= 0xFFFF);
        w.u16(static_cast<std::uint16_t>(name.size()));
        w.bytes(name.data(), name.size());
    }

    const std::uint32_t crc = crc32(w.view().data(), w.view().size());
    w.u32(crc);
    return w.take();
}

std::optional<Program> load_program(const std::vector<std::uint8_t>& bytes, std::string& error) {
    if (bytes.size() < kMagic.size() + 2 + 2 + 4) {
        error = "image too small";
        return std::nullopt;
    }
    if (std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) != 0) {
        error = "bad magic";
        return std::nullopt;
    }
    const std::size_t body = bytes.size() - 4;
    std::uint32_t stored_crc = 0;
    {
        // Absolute read of the trailing CRC.
        stored_crc = static_cast<std::uint32_t>(bytes[body]) |
                     (static_cast<std::uint32_t>(bytes[body + 1]) << 8) |
                     (static_cast<std::uint32_t>(bytes[body + 2]) << 16) |
                     (static_cast<std::uint32_t>(bytes[body + 3]) << 24);
    }
    if (crc32(bytes.data(), body) != stored_crc) {
        error = "CRC mismatch (corrupted image)";
        return std::nullopt;
    }

    Reader r(bytes);
    std::uint32_t skip = 0;
    r.u32(skip); // magic, already checked
    std::uint16_t version = 0;
    std::uint16_t entry = 0;
    if (!r.u16(version) || version != kBinFormatVersion) {
        error = "unsupported version";
        return std::nullopt;
    }
    r.u16(entry);

    Program p;
    p.entry = entry;

    std::uint32_t n = 0;
    if (!r.u32(n) || n > kImWordsTotal) {
        error = "bad text size";
        return std::nullopt;
    }
    p.text.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t word = 0;
        if (!r.u24(word)) {
            error = "truncated text";
            return std::nullopt;
        }
        p.text.push_back(word);
    }

    if (!r.u32(n) || n > kDmWordsTotal) {
        error = "bad data size";
        return std::nullopt;
    }
    p.data.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint16_t word = 0;
        if (!r.u16(word)) {
            error = "truncated data";
            return std::nullopt;
        }
        p.data.push_back(word);
    }

    if (!r.u32(n) || n > 100'000) {
        error = "bad symbol count";
        return std::nullopt;
    }
    std::string prev_name;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint8_t space = 0;
        std::uint32_t value = 0;
        std::uint16_t len = 0;
        if (!r.u8(space) || space > 1 || !r.u32(value) || !r.u16(len) || r.remaining() < len + 4u) {
            error = "truncated symbol table";
            return std::nullopt;
        }
        std::string name(reinterpret_cast<const char*>(bytes.data() + r.pos()), len);
        for (std::uint16_t k = 0; k < len; ++k) {
            std::uint8_t ignored = 0;
            r.u8(ignored);
        }
        if (name.empty()) {
            error = "empty symbol name";
            return std::nullopt;
        }
        // save_program writes names in strictly ascending order (the
        // symbol map's); anything else — a duplicate, a misordered name —
        // would load into a program that saves to different bytes.
        if (i > 0 && name <= prev_name) {
            error = "symbol table out of order";
            return std::nullopt;
        }
        prev_name = name;
        p.set_symbol(name, Symbol{space == 0 ? Symbol::Space::Text : Symbol::Space::Data, value});
    }

    if (r.remaining() != 4) {
        error = "trailing garbage";
        return std::nullopt;
    }
    if (p.entry != 0 && p.entry >= p.text.size()) {
        error = "entry point outside text";
        return std::nullopt;
    }
    return p;
}

std::optional<Program> load_program(const std::vector<std::uint8_t>& bytes) {
    std::string ignored;
    return load_program(bytes, ignored);
}

} // namespace ulpmc::isa
