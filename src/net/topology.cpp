#include "net/topology.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace prophet::net {

TopologySpec TopologySpec::star(Bandwidth worker_bw, Bandwidth ps_bw,
                                std::vector<Bandwidth> worker_override) {
  TopologySpec s;
  s.kind = Kind::kStar;
  s.worker_bandwidth = worker_bw;
  s.ps_bandwidth = ps_bw;
  s.worker_bandwidth_override = std::move(worker_override);
  return s;
}

TopologySpec TopologySpec::leaf_spine(std::size_t racks,
                                      std::size_t hosts_per_rack,
                                      Bandwidth host_bw,
                                      double oversubscription) {
  TopologySpec s;
  s.kind = Kind::kLeafSpine;
  s.racks = racks;
  s.hosts_per_rack = hosts_per_rack;
  s.host_bandwidth = host_bw;
  s.oversubscription = oversubscription;
  return s;
}

Bandwidth TopologySpec::uplink_bandwidth() const {
  if (kind == Kind::kStar) return Bandwidth::zero();
  return host_bandwidth * (static_cast<double>(hosts_per_rack) / oversubscription);
}

std::size_t TopologySpec::host_capacity() const {
  if (kind == Kind::kStar) return std::numeric_limits<std::size_t>::max();
  return racks * hosts_per_rack;
}

const char* TopologySpec::kind_name() const {
  switch (kind) {
    case Kind::kStar: return "star";
    case Kind::kLeafSpine: return "leaf-spine";
  }
  return "?";
}

void TopologySpec::validate() const {
  switch (kind) {
    case Kind::kStar:
      PROPHET_CHECK_MSG(!worker_bandwidth.is_zero(),
                        "star topology needs positive worker bandwidth");
      PROPHET_CHECK_MSG(!ps_bandwidth.is_zero(),
                        "star topology needs positive PS bandwidth");
      for (const Bandwidth& bw : worker_bandwidth_override) {
        PROPHET_CHECK_MSG(!bw.is_zero(),
                          "worker bandwidth override entries must be positive");
      }
      break;
    case Kind::kLeafSpine:
      PROPHET_CHECK_MSG(racks > 0, "leaf-spine topology needs at least one rack");
      PROPHET_CHECK_MSG(hosts_per_rack > 0,
                        "leaf-spine topology needs at least one host per rack");
      PROPHET_CHECK_MSG(!host_bandwidth.is_zero(),
                        "leaf-spine topology needs positive host bandwidth");
      // An infinite ratio would leave the rack uplinks no capacity at all.
      PROPHET_CHECK_MSG(oversubscription > 0.0 && std::isfinite(oversubscription),
                        "leaf-spine oversubscription ratio must be positive and finite");
      // Leaf-spine hosts have uniform NICs; per-worker override entries
      // would silently lose against host_bandwidth, so they are rejected.
      PROPHET_CHECK_MSG(worker_bandwidth_override.empty(),
                        "TopologySpec: worker_bandwidth_override is ambiguous "
                        "with a leaf-spine fabric; set host_bandwidth instead");
      break;
  }
}

std::optional<TopologySpec> TopologySpec::from_cli(const std::string& spec,
                                                   std::string* error) {
  if (spec == "star") return TopologySpec{};
  const std::string prefix = "leaf-spine";
  if (spec.rfind(prefix, 0) == 0) {
    TopologySpec s;
    s.kind = Kind::kLeafSpine;
    std::string rest = spec.substr(prefix.size());
    if (rest.empty()) return s;
    if (rest[0] != ':') {
      if (error) *error = "expected ':' after 'leaf-spine' in '" + spec + "'";
      return std::nullopt;
    }
    rest = rest.substr(1);
    char* end = nullptr;
    const long racks = std::strtol(rest.c_str(), &end, 10);
    if (end == rest.c_str() || racks <= 0) {
      if (error) *error = "bad rack count in topology '" + spec + "'";
      return std::nullopt;
    }
    s.racks = static_cast<std::size_t>(racks);
    if (*end == '\0') return s;
    if (*end != ':') {
      if (error) *error = "expected ':' before hosts-per-rack in '" + spec + "'";
      return std::nullopt;
    }
    const char* hosts_str = end + 1;
    const long hosts = std::strtol(hosts_str, &end, 10);
    if (end == hosts_str || *end != '\0' || hosts <= 0) {
      if (error) *error = "bad hosts-per-rack in topology '" + spec + "'";
      return std::nullopt;
    }
    s.hosts_per_rack = static_cast<std::size_t>(hosts);
    return s;
  }
  if (error) {
    *error = "unknown topology '" + spec +
             "' (expected star | leaf-spine[:RACKS[:HOSTS_PER_RACK]])";
  }
  return std::nullopt;
}

BuiltTopology::BuiltTopology(FlowNetwork& network, TopologySpec spec)
    : network_{network}, spec_{std::move(spec)} {
  spec_.validate();
  if (spec_.kind == TopologySpec::Kind::kLeafSpine) {
    const Bandwidth uplink = spec_.uplink_bandwidth();
    racks_.reserve(spec_.racks);
    rack_fill_.assign(spec_.racks, 0);
    for (std::size_t r = 0; r < spec_.racks; ++r) {
      racks_.push_back(
          network_.add_rack("rack" + std::to_string(r), uplink, uplink));
    }
  }
}

NodeId BuiltTopology::add_host(std::string name, Bandwidth bandwidth,
                               std::optional<std::size_t> rack) {
  if (spec_.kind == TopologySpec::Kind::kStar) {
    return network_.add_node(std::move(name), bandwidth, bandwidth);
  }
  std::size_t r;
  if (rack.has_value()) {
    r = *rack;
    PROPHET_CHECK_MSG(r < racks_.size(), "host placed in nonexistent rack");
    PROPHET_CHECK_MSG(rack_fill_[r] < spec_.hosts_per_rack,
                      "host placed in a full rack");
  } else {
    r = 0;
    while (r < racks_.size() && rack_fill_[r] >= spec_.hosts_per_rack) ++r;
    PROPHET_CHECK_MSG(r < racks_.size(),
                      "leaf-spine fabric is full: no rack has a free host slot");
  }
  const NodeId node = network_.add_node(std::move(name), spec_.host_bandwidth,
                                        spec_.host_bandwidth);
  network_.assign_rack(node, racks_[r]);
  ++rack_fill_[r];
  return node;
}

std::int64_t BuiltTopology::spine_bytes() const {
  std::int64_t total = 0;
  for (const RackId r : racks_) {
    total += network_.link_total_bytes(network_.rack_link(r, Direction::kTx));
    total += network_.link_total_bytes(network_.rack_link(r, Direction::kRx));
  }
  return total;
}

std::vector<LinkId> resolve_link_target(const FlowNetwork& network,
                                        std::string_view name) {
  std::vector<LinkId> out;
  if (auto id = network.find_link(name)) {
    out.push_back(*id);
    return out;
  }
  // "<rack>" or "<rack>.uplink": both directions of the rack's spine links.
  std::string_view base = name;
  if (const auto dot = name.rfind(".uplink"); dot != std::string_view::npos &&
                                              dot + 7 == name.size()) {
    base = name.substr(0, dot);
  }
  for (RackId r = 0; r < network.rack_count(); ++r) {
    if (network.rack_name(r) == base) {
      out.push_back(network.rack_link(r, Direction::kTx));
      out.push_back(network.rack_link(r, Direction::kRx));
      return out;
    }
  }
  // "<node>": both access links, the same {tx, rx} a worker/PS index names.
  for (NodeId n = 0; n < network.node_count(); ++n) {
    if (network.node_name(n) == name) {
      const auto links = network.access_links(n);
      out.assign(links.begin(), links.end());
      return out;
    }
  }
  return out;
}

}  // namespace prophet::net
