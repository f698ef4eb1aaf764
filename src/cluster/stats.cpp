#include "cluster/stats.hpp"

#include <ostream>

#include "common/table.hpp"

namespace ulpmc::cluster {

const char* peel_reason_name(PeelReason r) {
    switch (r) {
    case PeelReason::FaultStrike:
        return "fault_strike";
    case PeelReason::CrossbarUpset:
        return "crossbar_upset";
    case PeelReason::Trap:
        return "trap";
    case PeelReason::Watchdog:
        return "watchdog";
    case PeelReason::MemoBail:
        return "memo_bail";
    }
    return "?";
}

std::string core_status(const CoreRunStats& c) {
    if (c.trap != core::Trap::None) return std::string("TRAP:") + core::trap_name(c.trap);
    return c.halted_at > 0 ? "halted" : "running";
}

void print_run_summary(std::ostream& os, const ClusterStats& s) {
    Table t({"core", "state", "instructions", "stalls"});
    for (std::size_t p = 0; p < s.core.size(); ++p) {
        const auto& c = s.core[p];
        t.add_row({std::to_string(p), core_status(c), format_count(c.instret),
                   format_count(c.stall_cycles)});
    }
    t.print(os);
    if (s.cores_trapped() > 0)
        os << "WARNING: " << s.cores_trapped() << " core(s) trapped ("
           << s.watchdog_trips << " by watchdog)\n";
    if (s.ecc_enabled || s.faults_injected > 0)
        os << "resilience: " << format_count(s.faults_injected) << " fault(s) injected, ECC "
           << (s.ecc_enabled ? "on" : "off") << ", " << format_count(s.ecc_corrected())
           << " corrected (" << format_count(s.ecc_im_corrected) << " IM / "
           << format_count(s.ecc_dm_corrected) << " DM), "
           << format_count(s.ecc_uncorrectable) << " uncorrectable\n";
    if (s.reg_protection != core::RegProtection::None)
        os << "reg protection: " << core::reg_protection_name(s.reg_protection) << ", "
           << format_count(s.reg_parity_traps) << " parity trap(s), "
           << format_count(s.reg_tmr_votes) << " TMR repair(s)\n";
    if (s.im_scrub_enabled || s.dm_scrub_enabled)
        os << "scrub: IM " << (s.im_scrub_enabled ? "on" : "off") << " ("
           << format_count(s.im_scrub_reads) << " reads, "
           << format_count(s.im_scrub_corrected) << " repaired), DM "
           << (s.dm_scrub_enabled ? "on" : "off") << " (" << format_count(s.dm_scrub_reads)
           << " reads, " << format_count(s.dm_scrub_corrected) << " repaired)\n";
}

} // namespace ulpmc::cluster
