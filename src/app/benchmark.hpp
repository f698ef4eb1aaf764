// End-to-end ECG benchmark orchestration: builds the deterministic inputs
// (ECG leads, CS matrix, Huffman tables), compiles the TamaRISC program,
// runs it on a configured cluster, verifies the cluster's outputs against
// the bit-exact golden pipeline, and hands the run statistics to the
// power model. Every §IV experiment goes through this class.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/cs.hpp"
#include "app/ecg.hpp"
#include "app/huffman.hpp"
#include "app/kernels.hpp"
#include "cluster/cluster.hpp"
#include "cluster/config.hpp"
#include "isa/program.hpp"
#include "isa/program_image.hpp"

namespace ulpmc::app {

/// Benchmark configuration knobs (the §IV-C2 experiment axes).
struct BenchmarkOptions {
    std::uint64_t seed = 1;
    bool luts_shared = false;    ///< Huffman LUTs in the shared DM section
    bool use_barrier = false;    ///< extension: resync before Huffman
    bool compiler_spills = true; ///< CoSy-compiler-style CS loop (see kernels.hpp)
};

/// One full 8-lead benchmark instance.
class EcgBenchmark {
public:
    explicit EcgBenchmark(const BenchmarkOptions& opt = {});

    const BenchmarkOptions& options() const { return opt_; }
    const isa::Program& program() const { return program_; }
    /// Shared decoded image of program(): built once at construction so
    /// campaigns and sweeps load clusters without re-decoding (DESIGN.md §11).
    const std::shared_ptr<const isa::ProgramImage>& image() const { return image_; }
    const BenchmarkLayout& layout() const { return layout_; }
    const CsMatrix& matrix() const { return matrix_; }
    const HuffmanTable& table() const { return table_; }

    /// Input samples of one lead.
    const std::vector<std::int16_t>& lead_samples(unsigned lead) const;

    /// Golden (host-computed) CS measurements / symbols / bitstream.
    const std::vector<Word>& golden_measurements(unsigned lead) const;
    const std::vector<Word>& golden_symbols(unsigned lead) const;
    const BitStream& golden_bitstream(unsigned lead) const;

    /// Result of one cluster run.
    struct Outcome {
        cluster::ClusterStats stats;
        bool verified = false;             ///< all outputs bit-exact vs golden
        std::vector<BitStream> bitstreams; ///< per lead, read back from DM
        double bits_per_sample = 0;        ///< achieved compression
    };

    /// Runs the benchmark on one of the paper's architectures.
    Outcome run(cluster::ArchKind arch) const;

    /// Runs with an explicit configuration (ablations). The configuration's
    /// dm_layout and barrier flag must match this benchmark's layout.
    Outcome run(const cluster::ClusterConfig& cfg) const;

    /// The one-shot golden-output check: true when each of the first
    /// `cores` leads is lead_ok() and left its CS measurements in DM
    /// bit-exact against the golden pipeline. run() verifies with it; the
    /// one-shot fault campaigns and the lifetime engine, which pause the
    /// simulation mid-flight to strike it, classify their runs with it.
    bool verify(const cluster::Cluster& cl, unsigned cores) const;

    /// The one per-lead check: core `lead` halted untrapped and its
    /// output window holds exactly its golden bitstream. The streaming
    /// monitor and the adaptive campaign verify with it.
    bool lead_ok(const cluster::Cluster& cl, unsigned lead) const;

    /// The bitstream half of lead_ok(): core `lead`'s output window holds
    /// exactly its golden bitstream (word count and words).
    bool bitstream_ok(const cluster::Cluster& cl, unsigned lead) const;

    /// Sensor front end: injects each lead's sample block into its core's
    /// x buffer. Shared by run(), the streaming monitor and the fault
    /// campaigns (which pause the simulation mid-flight and so drive the
    /// cluster themselves).
    void load_inputs(cluster::Cluster& cl, unsigned cores) const;

private:
    BenchmarkOptions opt_;
    BenchmarkLayout layout_;
    CsMatrix matrix_;
    std::vector<std::vector<std::int16_t>> leads_;
    std::vector<std::vector<Word>> golden_y_;
    std::vector<std::vector<Word>> golden_sym_;
    HuffmanTable table_;
    std::vector<BitStream> golden_bits_;
    isa::Program program_;
    std::shared_ptr<const isa::ProgramImage> image_;
};

} // namespace ulpmc::app
