// TopologySpec: the network-fabric half of a cluster configuration.
//
// The original model wired every NIC straight into an implicit
// full-bisection fabric (a star): contention only ever happened at node
// ports. TopologySpec makes the fabric explicit and value-typed:
//
//   * TopologySpec::star(...)        — today's semantics, bit for bit: each
//     node is its own bottleneck, the fabric is non-blocking.
//   * TopologySpec::leaf_spine(...)  — racks of hosts behind shared uplinks
//     with a configurable oversubscription ratio; cross-rack flows traverse
//     the source rack's uplink and the destination rack's downlink, so
//     co-located jobs contend on exactly the links a real leaf-spine fabric
//     would congest.
//
// BuiltTopology materializes a spec onto one FlowNetwork (racks first, then
// hosts) and is shared by every job placed on the fabric; placement itself —
// which rack a host lands in — is the cluster scheduler's decision, passed
// into add_host.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "net/flow_network.hpp"

namespace prophet::net {

struct TopologySpec {
  enum class Kind {
    kStar,       // implicit full-bisection fabric (the original model)
    kLeafSpine,  // racks behind shared, possibly oversubscribed uplinks
  };

  Kind kind = Kind::kStar;

  // --- star parameters (ignored for leaf-spine) ---------------------------
  // Uniform worker NIC rate; `worker_bandwidth_override` entries (indexed by
  // worker) replace it for heterogeneous clusters (Sec. 5.3). A leaf-spine
  // spec must leave the override empty.
  Bandwidth worker_bandwidth = Bandwidth::gbps(10);
  Bandwidth ps_bandwidth = Bandwidth::gbps(10);
  std::vector<Bandwidth> worker_bandwidth_override;

  // --- leaf-spine parameters (ignored for star) ---------------------------
  std::size_t racks = 2;
  std::size_t hosts_per_rack = 4;
  // Uniform host NIC rate (a leaf-spine fabric has interchangeable hosts;
  // heterogeneous NICs belong to the star model).
  Bandwidth host_bandwidth = Bandwidth::gbps(10);
  // Rack uplink capacity = hosts_per_rack * host_bandwidth / oversubscription
  // in each direction; 1.0 is a non-blocking fabric, 4.0 the classic
  // oversubscribed datacenter leaf.
  double oversubscription = 4.0;

  // --- presets ------------------------------------------------------------
  static TopologySpec star(Bandwidth worker_bw, Bandwidth ps_bw,
                           std::vector<Bandwidth> worker_override = {});
  static TopologySpec leaf_spine(std::size_t racks, std::size_t hosts_per_rack,
                                 Bandwidth host_bw, double oversubscription);

  [[nodiscard]] Bandwidth uplink_bandwidth() const;
  // Host slots the fabric offers (SIZE_MAX for star: one port per node,
  // unbounded).
  [[nodiscard]] std::size_t host_capacity() const;
  [[nodiscard]] const char* kind_name() const;

  // Aborts with a clear message on a malformed spec (zero racks/hosts,
  // non-positive rates or oversubscription, a zero override entry, override
  // entries on a leaf-spine).
  void validate() const;

  // Parses "star" | "leaf-spine[:RACKS[:HOSTS_PER_RACK]]" (CLI spelling);
  // nullopt with *error set for anything else.
  static std::optional<TopologySpec> from_cli(const std::string& spec,
                                              std::string* error = nullptr);
};

// A spec materialized on a FlowNetwork: owns the rack ids and the host
// placement cursor. Hosts are added by the caller in a deterministic order
// (jobs in submission order, PS before workers within a job).
class BuiltTopology {
 public:
  BuiltTopology(FlowNetwork& network, TopologySpec spec);

  // Adds one host. Star: `bandwidth` is the NIC rate (callers differentiate
  // PS vs worker rates). Leaf-spine: the NIC rate is spec.host_bandwidth and
  // the host lands in `rack` — or, when unset, the next rack with a free
  // slot in rack-major order; aborts when the fabric is full.
  NodeId add_host(std::string name, Bandwidth bandwidth,
                  std::optional<std::size_t> rack = {});

  [[nodiscard]] const TopologySpec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<RackId>& racks() const { return racks_; }
  // Total bytes that crossed any rack uplink/downlink so far (spine
  // traffic); zero on a star.
  [[nodiscard]] std::int64_t spine_bytes() const;

 private:
  FlowNetwork& network_;
  TopologySpec spec_;
  std::vector<RackId> racks_;
  std::vector<std::size_t> rack_fill_;
};

// Resolves a dynamics link-target name against a built network into concrete
// links: an exact link name ("rack0.up"), a rack name or "<rack>.uplink"
// (both directions, up then down), or a node name (both access links, tx then
// rx). Empty when unknown.
std::vector<LinkId> resolve_link_target(const FlowNetwork& network,
                                        std::string_view name);

}  // namespace prophet::net
