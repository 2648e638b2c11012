#include "cluster/cluster.hpp"

#include <algorithm>
#include <map>

namespace rdmasem::cluster {

Machine::Machine(sim::Engine& engine, const hw::ModelParams& params,
                 MachineId id)
    : id_(id),
      p_(params),
      topo_(params),
      rnic_(engine, params, params.rnic_ports, "m" + std::to_string(id)),
      coherence_(engine, params) {
  for (SocketId s = 0; s < params.sockets_per_machine; ++s) {
    dram_.push_back(std::make_unique<hw::DramModel>(p_));
    mem_channel_.push_back(std::make_unique<sim::Resource>(
        engine, 1, "m" + std::to_string(id) + ".mem" + std::to_string(s)));
  }
}

Cluster::Cluster(sim::Engine& engine, hw::ModelParams params)
    : engine_(engine),
      p_(params),
      faults_(params.machines, params.rnic_ports),
      injector_(engine, faults_),
      fabric_(engine, p_, params.machines, params.rnic_ports) {
  // Lane topology: lane 0 is the driver, lane m+1 is machine m. Each
  // lane's affinity group is its machine's leaf switch (the driver rides
  // with machine 0's leaf), and the group latency matrix is the minimum
  // hop_latency over the machine pairs of the two leaves — so settle()
  // and the home-lane sync primitives route with the same latency the
  // fabric charges per message. With the default flat fabric this
  // collapses to one group at net_propagation + net_switch_hop.
  const std::uint32_t lanes = params.machines + 1;
  sim::LaneTopology topo;
  std::uint32_t groups = 1;
  for (MachineId m = 0; m < params.machines; ++m)
    groups = std::max(groups, p_.leaf_of(m) + 1);
  topo.groups = groups;
  topo.lane_group.assign(lanes, 0);
  for (MachineId m = 0; m < params.machines; ++m)
    topo.lane_group[m + 1] = p_.leaf_of(m);
  const sim::Duration base = p_.net_propagation + p_.net_switch_hop;
  constexpr sim::Duration kUnset = ~sim::Duration{0};
  topo.group_latency.assign(static_cast<std::size_t>(groups) * groups, kUnset);
  for (MachineId a = 0; a < params.machines; ++a)
    for (MachineId b = 0; b < params.machines; ++b) {
      auto& lat =
          topo.group_latency[static_cast<std::size_t>(p_.leaf_of(a)) * groups +
                             p_.leaf_of(b)];
      lat = std::min(lat, p_.hop_latency(a, b));
    }
  // No machines (bare-driver clusters): the single entry falls back to
  // the flat-fabric latency so the engine still has a nonzero lookahead.
  for (auto& lat : topo.group_latency)
    if (lat == kUnset) lat = base;
  engine_.configure_lanes(lanes, std::move(topo));
  faults_.set_lanes(lanes);
  obs_.tracer.set_lanes(lanes);
  machines_.reserve(params.machines);
  for (MachineId m = 0; m < params.machines; ++m)
    machines_.push_back(std::make_unique<Machine>(engine, p_, m));
  fabric_.set_faults(&faults_);
  // Assign every resource its attribution id (the tracer's interned name
  // index) so per-WR attribution records can reference resources by a
  // 16-bit id while sim stays obs-free.
  for_each_resource(
      [this](sim::Resource& r) { r.set_attr_id(obs_.tracer.intern_res(r.name())); });
  register_gauges();
  // A stalled RNIC stops fetching WQEs, processing inbound packets and
  // serving atomics for the stall window: occupy one full window on every
  // pipeline resource so in-flight and queued work waits it out.
  injector_.add_listener([this](const fault::FaultEvent& ev, bool begin) {
    if (ev.kind != fault::FaultKind::kNicStall || !begin) return;
    auto& r = machine(ev.machine).rnic();
    for (rnic::PortId p = 0; p < r.port_count(); ++p) {
      r.port(p).eu.reserve(ev.duration);
      r.port(p).rx.reserve(ev.duration);
      r.port(p).atomic_unit.reserve(ev.duration);
    }
    r.dma().reserve(ev.duration);
  });
}

// Every shared hardware resource is exposed as a pull-gauge: the registry
// polls the live object at sample time, so steady-state simulation pays
// nothing for having 100+ gauges registered.
void Cluster::register_gauges() {
  auto& m = obs_.metrics;
  m.gauge("fabric.messages",
          [this] { return static_cast<double>(fabric_.messages()); });
  m.gauge("fabric.bytes",
          [this] { return static_cast<double>(fabric_.bytes()); });
  m.gauge("fabric.drops",
          [this] { return static_cast<double>(fabric_.drops()); });
  for (MachineId id = 0; id < size(); ++id) {
    Machine* mach = machines_[id].get();
    const std::string base = "m" + std::to_string(id) + ".";
    auto& rnic = mach->rnic();
    for (std::uint32_t p = 0; p < rnic.port_count(); ++p) {
      const std::string pb = base + "p" + std::to_string(p) + ".";
      auto* port = &rnic.port(p);
      m.gauge(pb + "eu_util", [port] { return port->eu.utilization(); });
      m.gauge(pb + "eu_requests", [port] {
        return static_cast<double>(port->eu.requests());
      });
      m.gauge(pb + "rx_util", [port] { return port->rx.utilization(); });
      m.gauge(pb + "atomic_util",
              [port] { return port->atomic_unit.utilization(); });
      m.gauge(pb + "tx_drops", [this, id, p] {
        return static_cast<double>(fabric_.link_drops(id, p));
      });
    }
    m.gauge(base + "dma_util",
            [mach] { return mach->rnic().dma().utilization(); });
    m.gauge(base + "mcache_hits", [mach] {
      return static_cast<double>(mach->rnic().mcache().hits());
    });
    m.gauge(base + "mcache_misses", [mach] {
      return static_cast<double>(mach->rnic().mcache().misses());
    });
    m.gauge(base + "mcache_hit_rate",
            [mach] { return mach->rnic().mcache().hit_rate(); });
    for (hw::SocketId s = 0; s < p_.sockets_per_machine; ++s)
      m.gauge(base + "mem" + std::to_string(s) + "_util", [mach, s] {
        return mach->mem_channel(s).utilization();
      });
  }
  // Queueing-delay attribution gauges: total wait picoseconds per resource
  // NAME (the bottleneck signal the obs tooling ranks by). Fabric links
  // share one name per direction, so their gauge sums over every link.
  std::map<std::string, std::vector<sim::Resource*>> by_name;
  for_each_resource(
      [&by_name](sim::Resource& r) { by_name[r.name()].push_back(&r); });
  for (auto& [name, group] : by_name)
    m.gauge(name + ".wait_ps", [group] {
      std::uint64_t ps = 0;
      for (const sim::Resource* r : group) ps += r->wait_time();
      return static_cast<double>(ps);
    });
}

}  // namespace rdmasem::cluster
