#include "core/serialization.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

namespace lakeorg {
namespace {

constexpr const char* kMagic = "lakeorg-organization";
constexpr const char* kVersion = "v1";

char KindChar(StateKind kind) {
  switch (kind) {
    case StateKind::kRoot:
      return 'R';
    case StateKind::kInterior:
      return 'I';
    case StateKind::kTag:
      return 'T';
    case StateKind::kLeaf:
      return 'L';
  }
  return '?';
}

Result<StateKind> KindFromChar(char c) {
  switch (c) {
    case 'R':
      return StateKind::kRoot;
    case 'I':
      return StateKind::kInterior;
    case 'T':
      return StateKind::kTag;
    case 'L':
      return StateKind::kLeaf;
    default:
      return Status::InvalidArgument(std::string("unknown state kind '") +
                                     c + "'");
  }
}

}  // namespace

Status SaveOrganization(const Organization& org, std::ostream* out) {
  if (org.root() == kInvalidId) {
    return Status::FailedPrecondition("organization has no root");
  }
  // Alive states with the root first, compact file ids.
  std::vector<StateId> order = {org.root()};
  for (StateId s = 0; s < org.num_states(); ++s) {
    if (org.state(s).alive && s != org.root()) order.push_back(s);
  }
  std::unordered_map<StateId, size_t> file_id;
  for (size_t i = 0; i < order.size(); ++i) file_id.emplace(order[i], i);

  *out << kMagic << " " << kVersion << "\n";
  *out << "states " << order.size() << "\n";
  for (size_t i = 0; i < order.size(); ++i) {
    const OrgState& st = org.state(order[i]);
    *out << "state " << i << " " << KindChar(st.kind) << " ";
    if (st.kind == StateKind::kLeaf) {
      *out << st.attr << " T 0 X 0\n";
      continue;
    }
    *out << -1 << " T " << st.tags.size();
    for (uint32_t t : st.tags) *out << " " << t;
    std::vector<uint32_t> extras = org.ExtraAttrs(order[i]);
    *out << " X " << extras.size();
    for (uint32_t a : extras) *out << " " << a;
    *out << "\n";
  }
  size_t edges = 0;
  for (StateId s : order) edges += org.state(s).children.size();
  *out << "edges " << edges << "\n";
  for (StateId s : order) {
    for (StateId c : org.state(s).children) {
      *out << "edge " << file_id.at(s) << " " << file_id.at(c) << "\n";
    }
  }
  *out << "end\n";
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Status SaveOrganizationToFile(const Organization& org,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  LAKEORG_RETURN_NOT_OK(SaveOrganization(org, &out));
  out.flush();
  if (!out) {
    return Status::Internal("short write saving organization to " + path);
  }
  return Status::OK();
}

Result<Organization> LoadOrganization(
    std::shared_ptr<const OrgContext> ctx, std::istream* in) {
  std::string magic;
  std::string version;
  if (!(*in >> magic >> version) || magic != kMagic ||
      version != kVersion) {
    return Status::InvalidArgument("bad header: expected '" +
                                   std::string(kMagic) + " " + kVersion +
                                   "'");
  }
  std::string keyword;
  size_t num_states = 0;
  if (!(*in >> keyword >> num_states) || keyword != "states") {
    return Status::InvalidArgument("expected 'states <n>'");
  }
  if (num_states == 0) {
    return Status::InvalidArgument("organization with zero states");
  }

  Organization org(ctx);
  std::vector<StateId> of_file_id(num_states, kInvalidId);
  for (size_t i = 0; i < num_states; ++i) {
    size_t fid = 0;
    char kind_char = 0;
    int64_t attr = -1;
    size_t n_tags = 0;
    std::string t_marker;
    std::string x_marker;
    if (!(*in >> keyword >> fid >> kind_char >> attr >> t_marker >>
          n_tags) ||
        keyword != "state" || t_marker != "T" || fid != i) {
      return Status::InvalidArgument("malformed state line " +
                                     std::to_string(i));
    }
    std::vector<uint32_t> tags(n_tags);
    for (uint32_t& t : tags) {
      if (!(*in >> t) || t >= ctx->num_tags()) {
        return Status::InvalidArgument("bad tag id in state " +
                                       std::to_string(i));
      }
    }
    size_t n_extras = 0;
    if (!(*in >> x_marker >> n_extras) || x_marker != "X") {
      return Status::InvalidArgument("malformed extras in state " +
                                     std::to_string(i));
    }
    std::vector<uint32_t> extras(n_extras);
    for (uint32_t& a : extras) {
      if (!(*in >> a) || a >= ctx->num_attrs()) {
        return Status::InvalidArgument("bad extra attr id in state " +
                                       std::to_string(i));
      }
    }

    Result<StateKind> kind = KindFromChar(kind_char);
    if (!kind.ok()) return kind.status();
    StateId sid = kInvalidId;
    switch (kind.value()) {
      case StateKind::kRoot:
        if (i != 0) {
          return Status::InvalidArgument("root must be the first state");
        }
        sid = org.AddRoot(tags);
        break;
      case StateKind::kLeaf:
        if (attr < 0 ||
            static_cast<size_t>(attr) >= ctx->num_attrs()) {
          return Status::InvalidArgument("bad leaf attribute id");
        }
        if (org.LeafOf(static_cast<uint32_t>(attr)) != kInvalidId) {
          return Status::InvalidArgument("duplicate leaf for attribute " +
                                         std::to_string(attr));
        }
        sid = org.AddLeaf(static_cast<uint32_t>(attr));
        break;
      case StateKind::kTag:
        if (tags.size() != 1) {
          return Status::InvalidArgument(
              "tag state must carry exactly one tag");
        }
        sid = org.AddTagState(tags[0]);
        break;
      case StateKind::kInterior:
        if (tags.empty()) {
          return Status::InvalidArgument("interior state with no tags");
        }
        sid = org.AddInteriorState(tags);
        break;
    }
    if (!extras.empty()) org.AddExtraAttrs(sid, extras);
    of_file_id[i] = sid;
  }
  if (org.root() == kInvalidId) {
    return Status::InvalidArgument("file contains no root state");
  }

  size_t num_edges = 0;
  if (!(*in >> keyword >> num_edges) || keyword != "edges") {
    return Status::InvalidArgument("expected 'edges <n>'");
  }
  for (size_t e = 0; e < num_edges; ++e) {
    size_t p = 0;
    size_t c = 0;
    if (!(*in >> keyword >> p >> c) || keyword != "edge" ||
        p >= num_states || c >= num_states) {
      return Status::InvalidArgument("malformed edge line " +
                                     std::to_string(e));
    }
    Status st = org.AddEdge(of_file_id[p], of_file_id[c]);
    if (!st.ok()) {
      return Status::InvalidArgument("edge " + std::to_string(p) + "->" +
                                     std::to_string(c) +
                                     " rejected: " + st.ToString());
    }
  }
  if (!(*in >> keyword) || keyword != "end") {
    return Status::InvalidArgument("missing 'end' marker");
  }

  org.RecomputeLevels();
  LAKEORG_RETURN_NOT_OK(org.Validate());
  return org;
}

Result<Organization> LoadOrganizationFromFile(
    std::shared_ptr<const OrgContext> ctx, const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open for reading: " + path);
  Result<Organization> org = LoadOrganization(std::move(ctx), &in);
  if (in.bad()) {
    return Status::Internal("read error loading organization from " + path);
  }
  return org;
}

}  // namespace lakeorg
