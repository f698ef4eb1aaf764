#include "app/benchmark.hpp"

#include <array>

#include "cluster/pool.hpp"
#include "common/assert.hpp"

namespace ulpmc::app {

namespace {

std::vector<std::vector<std::int16_t>> make_leads(std::uint64_t seed) {
    const EcgGenerator gen(seed);
    std::vector<std::vector<std::int16_t>> leads;
    leads.reserve(kEcgLeads);
    for (unsigned l = 0; l < kEcgLeads; ++l) leads.push_back(gen.block(l));
    return leads;
}

std::vector<std::vector<Word>> compress_all(const CsMatrix& m,
                                            const std::vector<std::vector<std::int16_t>>& leads) {
    std::vector<std::vector<Word>> y;
    y.reserve(leads.size());
    for (const auto& x : leads) y.push_back(cs_compress(m, x));
    return y;
}

std::vector<std::vector<Word>> quantize_all(const std::vector<std::vector<Word>>& ys) {
    std::vector<std::vector<Word>> out;
    out.reserve(ys.size());
    for (const auto& y : ys) out.push_back(cs_quantize(y));
    return out;
}

HuffmanTable train_table(const std::vector<std::vector<Word>>& symbol_sets) {
    // Train the code on the benchmark's own symbol statistics — the role
    // the paper's offline profiling plays when the LUT ROMs are generated.
    std::vector<std::uint64_t> freqs(kCsSymbolCount, 0);
    for (const auto& syms : symbol_sets)
        for (const Word s : syms) ++freqs[s];
    return HuffmanTable(freqs);
}

std::vector<BitStream> encode_all(const HuffmanTable& t,
                                  const std::vector<std::vector<Word>>& symbol_sets) {
    std::vector<BitStream> out;
    out.reserve(symbol_sets.size());
    for (const auto& syms : symbol_sets) out.push_back(huffman_encode(t, syms));
    return out;
}

} // namespace

EcgBenchmark::EcgBenchmark(const BenchmarkOptions& opt)
    : opt_(opt), layout_{.luts_shared = opt.luts_shared, .use_barrier = opt.use_barrier,
                         .compiler_spills = opt.compiler_spills},
      matrix_(opt.seed), leads_(make_leads(opt.seed)), golden_y_(compress_all(matrix_, leads_)),
      golden_sym_(quantize_all(golden_y_)), table_(train_table(golden_sym_)),
      golden_bits_(encode_all(table_, golden_sym_)),
      program_(build_ecg_program(matrix_, table_, layout_)),
      image_(isa::ProgramImage::build(program_)) {}

const std::vector<std::int16_t>& EcgBenchmark::lead_samples(unsigned lead) const {
    ULPMC_EXPECTS(lead < leads_.size());
    return leads_[lead];
}

const std::vector<Word>& EcgBenchmark::golden_measurements(unsigned lead) const {
    ULPMC_EXPECTS(lead < golden_y_.size());
    return golden_y_[lead];
}

const std::vector<Word>& EcgBenchmark::golden_symbols(unsigned lead) const {
    ULPMC_EXPECTS(lead < golden_sym_.size());
    return golden_sym_[lead];
}

const BitStream& EcgBenchmark::golden_bitstream(unsigned lead) const {
    ULPMC_EXPECTS(lead < golden_bits_.size());
    return golden_bits_[lead];
}

EcgBenchmark::Outcome EcgBenchmark::run(cluster::ArchKind arch) const {
    return run(cluster::make_config(arch, layout_.dm_layout()));
}

void EcgBenchmark::load_inputs(cluster::Cluster& cl, unsigned cores) const {
    for (unsigned p = 0; p < cores; ++p) {
        const auto& x = leads_[p];
        for (std::size_t i = 0; i < x.size(); ++i) {
            cl.dm_poke(static_cast<CoreId>(p), static_cast<Addr>(layout_.x_base() + i),
                       static_cast<Word>(x[i]));
        }
    }
}

bool EcgBenchmark::verify(const cluster::Cluster& cl, unsigned cores) const {
    for (unsigned p = 0; p < cores; ++p) {
        if (!lead_ok(cl, p)) return false;
        const auto pid = static_cast<CoreId>(p);
        const auto& y = golden_y_[p];
        for (std::size_t i = 0; i < y.size(); ++i) {
            if (cl.dm_peek(pid, static_cast<Addr>(layout_.y_base() + i)) != y[i]) return false;
        }
    }
    return true;
}

bool EcgBenchmark::lead_ok(const cluster::Cluster& cl, unsigned lead) const {
    const auto pid = static_cast<CoreId>(lead);
    return cl.core_trap(pid) == core::Trap::None && cl.core_halted(pid) && bitstream_ok(cl, lead);
}

bool EcgBenchmark::bitstream_ok(const cluster::Cluster& cl, unsigned lead) const {
    const auto pid = static_cast<CoreId>(lead);
    const auto& words = golden_bits_[lead].words;
    if (cl.dm_peek(pid, layout_.out_count()) != words.size()) return false;
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (cl.dm_peek(pid, static_cast<Addr>(layout_.out_base() + i)) != words[i]) return false;
    }
    return true;
}

EcgBenchmark::Outcome EcgBenchmark::run(const cluster::ClusterConfig& cfg_in) const {
    cluster::ClusterConfig cfg = cfg_in;
    cfg.barrier_enabled = layout_.use_barrier; // program and hardware agree

    cluster::Cluster& cl = cluster::pooled_cluster(cfg, image_);
    load_inputs(cl, cfg.cores);
    cl.run();

    Outcome out;
    out.stats = cl.stats();
    out.verified = verify(cl, cfg.cores);

    std::size_t total_bits = 0;
    for (unsigned p = 0; p < cfg.cores; ++p) {
        // Radio back end: drain the per-lead results.
        const Word n_words = cl.dm_peek(static_cast<CoreId>(p), layout_.out_count());
        BitStream bs;
        bs.words.reserve(n_words);
        for (Word i = 0; i < n_words; ++i) {
            bs.words.push_back(
                cl.dm_peek(static_cast<CoreId>(p), static_cast<Addr>(layout_.out_base() + i)));
        }
        bs.bits = golden_bits_[p].bits; // bit count verified via word count
        total_bits += golden_bits_[p].bits;
        out.bitstreams.push_back(std::move(bs));
    }

    out.bits_per_sample =
        static_cast<double>(total_bits) / static_cast<double>(cfg.cores * kEcgBlockSamples);
    return out;
}

} // namespace ulpmc::app
