#include "network/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "network/topology.hpp"

namespace ibarb::network {

namespace {

struct FamilyInfo {
  std::string_view name;
  std::vector<std::pair<std::string_view, std::uint64_t>> keys;  // +default
};

const std::vector<FamilyInfo>& families() {
  // Registry order == kTopologyFamilyNames == canonical() key order.
  static const std::vector<FamilyInfo> kFamilies{
      {"irregular",
       {{"switches", 16},
        {"ports", 8},
        {"hosts", 4},
        {"seed", 1},
        {"delay", 2},
        {"rate", 1}}},
      {"single", {{"hosts", 4}, {"ports", 8}, {"rate", 1}}},
      {"line", {{"switches", 4}, {"hosts", 1}, {"rate", 1}}},
      {"mesh2d", {{"cols", 4}, {"rows", 4}, {"hosts", 1}, {"rate", 1}}},
      {"torus2d", {{"cols", 4}, {"rows", 4}, {"hosts", 1}, {"rate", 1}}},
      {"torus3d",
       {{"x", 4}, {"y", 4}, {"z", 4}, {"hosts", 1}, {"rate", 1}}},
      {"fattree", {{"k", 4}, {"n", 2}, {"rate", 1}}},
      {"fattree2",
       {{"spines", 4}, {"leaves", 8}, {"hosts", 4}, {"rate", 1}}},
      // g=0 / p=0 mean "balanced defaults": g = a*h+1, p = h.
      {"dragonfly",
       {{"a", 4}, {"h", 2}, {"g", 0}, {"p", 0}, {"rate", 1}}},
  };
  return kFamilies;
}

const FamilyInfo& family_info(std::string_view name) {
  for (const auto& f : families())
    if (f.name == name) return f;
  throw std::invalid_argument("unknown topology family '" +
                              std::string(name) + "' (expected " +
                              std::string(kTopologyFamilyNames) + ")");
}

iba::LinkRate parse_rate(std::uint64_t v) {
  switch (v) {
    case 1: return iba::LinkRate::k1x;
    case 4: return iba::LinkRate::k4x;
    case 12: return iba::LinkRate::k12x;
    default:
      throw std::invalid_argument("rate=" + std::to_string(v) +
                                  " is not an IBA link width (1|4|12)");
  }
}

unsigned narrow(std::string_view key, std::uint64_t v) {
  if (v > 0xFFFFFFFFull)
    throw std::invalid_argument(std::string(key) + "=" + std::to_string(v) +
                                " does not fit in 32 bits");
  return static_cast<unsigned>(v);
}

}  // namespace

TopologySpec TopologySpec::parse(std::string_view text) {
  TopologySpec spec;
  const auto colon = text.find(':');
  const auto fam = text.substr(0, colon);
  spec.family_ = std::string(family_info(fam).name);  // validates
  if (colon == std::string_view::npos) return spec;

  auto rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    const auto pair = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                          : rest.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == pair.size())
      throw std::invalid_argument("malformed topology parameter '" +
                                  std::string(pair) +
                                  "' (expected key=value)");
    const auto key = pair.substr(0, eq);
    const auto value = pair.substr(eq + 1);
    std::uint64_t v = 0;
    for (const char c : value) {
      if (c < '0' || c > '9')
        throw std::invalid_argument("topology parameter '" +
                                    std::string(key) + "=" +
                                    std::string(value) +
                                    "' is not an unsigned integer");
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > 0xFFFFFFFFFFFFull)
        throw std::invalid_argument("topology parameter '" +
                                    std::string(key) + "' overflows");
    }
    spec.set(key, v);
  }
  return spec;
}

bool TopologySpec::has(std::string_view key) const noexcept {
  return std::any_of(params_.begin(), params_.end(),
                     [&](const auto& p) { return p.first == key; });
}

std::uint64_t TopologySpec::param(std::string_view key) const {
  for (const auto& p : params_)
    if (p.first == key) return p.second;
  for (const auto& k : family_info(family_).keys)
    if (k.first == key) return k.second;
  throw std::invalid_argument("topology family '" + family_ +
                              "' has no parameter '" + std::string(key) +
                              "'");
}

void TopologySpec::set(std::string_view key, std::uint64_t value) {
  const auto& info = family_info(family_);
  const bool known =
      std::any_of(info.keys.begin(), info.keys.end(),
                  [&](const auto& k) { return k.first == key; });
  if (!known) {
    std::string valid;
    for (const auto& k : info.keys) {
      if (!valid.empty()) valid += "|";
      valid += k.first;
    }
    throw std::invalid_argument("topology family '" + family_ +
                                "' has no parameter '" + std::string(key) +
                                "' (expected " + valid + ")");
  }
  // `rate` maps to the IBA link width at build; reject bad values here so
  // `--topo` flag validation catches them before any simulation starts.
  if (key == "rate" && value != 1 && value != 4 && value != 12) {
    throw std::invalid_argument("topology parameter rate=" +
                                std::to_string(value) +
                                " is not an IBA link width (1, 4 or 12)");
  }
  for (auto& p : params_)
    if (p.first == key) {
      p.second = value;
      return;
    }
  params_.emplace_back(std::string(key), value);
}

std::string TopologySpec::canonical() const {
  std::string out = family_;
  char sep = ':';
  for (const auto& k : family_info(family_).keys) {
    out += sep;
    sep = ',';
    out += std::string(k.first) + "=" + std::to_string(param(k.first));
  }
  return out;
}

const std::vector<std::pair<std::string_view, std::uint64_t>>&
TopologySpec::keys() const {
  return family_info(family_).keys;
}

FabricGraph TopologySpec::build() const {
  const auto rate = parse_rate(param("rate"));
  if (family_ == "irregular") {
    IrregularSpec spec;
    spec.switches = narrow("switches", param("switches"));
    spec.ports_per_switch = narrow("ports", param("ports"));
    spec.hosts_per_switch = narrow("hosts", param("hosts"));
    spec.seed = param("seed");
    spec.propagation_delay = param("delay");
    spec.rate = rate;
    return gen::irregular(spec);
  }
  if (family_ == "single")
    return gen::single_switch(narrow("hosts", param("hosts")),
                              narrow("ports", param("ports")), rate);
  if (family_ == "line")
    return gen::line(narrow("switches", param("switches")),
                     narrow("hosts", param("hosts")), rate);
  if (family_ == "mesh2d")
    return gen::mesh2d(narrow("cols", param("cols")),
                       narrow("rows", param("rows")),
                       narrow("hosts", param("hosts")), rate);
  if (family_ == "torus2d")
    return gen::torus2d(narrow("cols", param("cols")),
                        narrow("rows", param("rows")),
                        narrow("hosts", param("hosts")), rate);
  if (family_ == "torus3d")
    return gen::torus3d(narrow("x", param("x")), narrow("y", param("y")),
                        narrow("z", param("z")),
                        narrow("hosts", param("hosts")), rate);
  if (family_ == "fattree")
    return gen::kary_fattree(narrow("k", param("k")),
                             narrow("n", param("n")), rate);
  if (family_ == "fattree2")
    return gen::fat_tree2(narrow("spines", param("spines")),
                          narrow("leaves", param("leaves")),
                          narrow("hosts", param("hosts")), rate);
  if (family_ == "dragonfly") {
    const unsigned a = narrow("a", param("a"));
    const unsigned h = narrow("h", param("h"));
    unsigned g = narrow("g", param("g"));
    unsigned p = narrow("p", param("p"));
    if (g == 0) g = a * h + 1;  // balanced group count
    if (p == 0) p = h;          // balanced host count
    return gen::dragonfly(a, h, g, p, rate);
  }
  throw std::logic_error("unreachable: family validated at parse");
}

std::vector<std::string_view> topology_family_names() {
  std::vector<std::string_view> out;
  out.reserve(families().size());
  for (const auto& f : families()) out.push_back(f.name);
  return out;
}

bool is_topology_family(std::string_view family) noexcept {
  return std::any_of(families().begin(), families().end(),
                     [&](const auto& f) { return f.name == family; });
}

}  // namespace ibarb::network
