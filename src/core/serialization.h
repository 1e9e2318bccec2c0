// Organization serialization: save a learned organization to a compact
// line-oriented text format and load it back against the same OrgContext.
// A production deployment learns the organization offline (section 4.3's
// 12-hour Socrata build) and serves navigation from a loaded copy.
//
// Format (version 1):
//   lakeorg-organization v1
//   counts <num_states> <root_id>
//   state <id> <kind> <alive> <attr|-1> tags <t...>
//   edge <parent> <child>            (one line per edge)
// Topic vectors, attribute sets and levels are derived from the context
// on load, so files stay small and the context remains the single source
// of truth for the lake's content.
#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/organization.h"

namespace lakeorg {

/// Writes `org` to `out`. Dead states are preserved (ids are stable).
Status SaveOrganization(const Organization& org, std::ostream* out);

/// Convenience: save to a file path.
Status SaveOrganizationToFile(const Organization& org,
                              const std::string& path);

/// Reads an organization from `in` over `ctx`. Fails with a descriptive
/// status on malformed input, id mismatches, or inclusion violations
/// (edges are re-checked through Organization's own invariants).
Result<Organization> LoadOrganization(
    std::shared_ptr<const OrgContext> ctx, std::istream* in);

/// Convenience: load from a file path.
Result<Organization> LoadOrganizationFromFile(
    std::shared_ptr<const OrgContext> ctx, const std::string& path);

}  // namespace lakeorg
