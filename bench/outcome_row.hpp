// The outcome columns of the fault-campaign tables (ext_fault_campaign,
// ext_fault_adaptive).
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "fault/campaign.hpp"

namespace ulpmc {

/// One table row: the `lead` cells, the count of each outcome in `cols`,
/// the coverage, then the `tail` cells.
inline std::vector<std::string> outcome_row(std::initializer_list<std::string> lead,
                                            const fault::CampaignResult& r,
                                            std::initializer_list<fault::Outcome> cols,
                                            std::initializer_list<std::string> tail = {}) {
    std::vector<std::string> row(lead);
    for (const fault::Outcome o : cols) row.push_back(std::to_string(r.count(o)));
    row.push_back(format_percent(r.coverage(), 1));
    row.insert(row.end(), tail);
    return row;
}

} // namespace ulpmc
