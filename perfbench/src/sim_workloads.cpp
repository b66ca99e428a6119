// Simulated workloads: sim_steady_300 and sim_churn_120.
//
// Both build a three-tier roster-scoped hierarchy on the discrete-event
// simulator through harness::experiment and drive it from outside:
//
//   set-up   build the cluster and run it until every group of every tier
//            agrees on a live leader, then settle to the end of the virtual
//            warm-up;
//   steady   (sim_steady_300 only) a kill-free window: the heartbeat/HELLO
//            hot path whose host cost and wire traffic are reported;
//   kills    region-leader kills round-robin on a fixed virtual timetable
//            (open loop: a kill is due whether or not earlier failovers
//            finished), each victim recovered and re-joined a few seconds
//            later; failover latency is timed from the kill instant until
//            every live member of the region agrees on another live leader;
//   drain    run until every group of every tier agrees again — a run that
//            cannot get there is incorrect;
//   set-up   again, after the measured run: setup_s is the median of the
//            set-ups timed at both ends, so a host that changes speed during
//            the run moves it less.
//
// Virtual time is set from --seconds at a fixed ratio, so the same seed and
// seconds give the same inputs and the same virtual results whether or not
// the run is traced; the traced run only adds host-time observers (the
// sim_network profiler and a send tap) that never touch the virtual clock.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"

namespace perfbench {
namespace {

using namespace omega;

struct sim_spec {
  const char* name;
  std::size_t nodes;
  std::size_t regions;
  std::size_t zones;
  /// sim_churn_120's plane: adaptive per-link tuning, a lossy WAN between
  /// regions, fig15's dup_reorder + partition fault scripts, tracing with
  /// causal stamping.
  bool churn_plane;
  /// Virtual seconds of kill-free steady window per requested second
  /// (0 = no steady window; costs are then read over the kill window).
  double steady_per_s;
  /// Kills per requested second (120 at --seconds 10 supports a p90).
  double kills_per_s;
  /// Virtual seconds between consecutive kills.
  double kill_interval_s;
  double recover_after_s;
  double deadline_s;
  /// Virtual instant the measurement starts (end of warm-up).
  double warmup_s;
  /// Set-ups timed at each end of the run (setup_s is the median of all).
  int setups_per_end;
};

constexpr double kPollS = 0.01;  // agreement poll, virtual seconds
constexpr std::uint64_t kEnvironmentSeed = 42;
constexpr int kChunks = 10;  // cost-window chunks (see cost_window)

/// The kill timetable drawn from --seed: kill k hits region order[k % R]
/// at k * interval plus a jitter in [0, interval / 2), so victims die at
/// varied phases of their heartbeat cycle.
struct kill_timetable {
  std::vector<std::size_t> order;
  std::vector<duration> at;  // offsets from the start of the kill window

  kill_timetable(std::uint64_t seed, std::size_t regions, std::size_t kills,
                 duration interval) {
    std::mt19937_64 rng(seed);
    order.resize(regions);
    for (std::size_t r = 0; r < regions; ++r) order[r] = r;
    for (std::size_t r = regions; r > 1; --r) {
      std::swap(order[r - 1], order[rng() % r]);
    }
    for (std::size_t k = 0; k < kills; ++k) {
      const double jitter = static_cast<double>(rng() >> 11) * 0x1p-53 * 0.5;
      at.push_back(interval * static_cast<std::int64_t>(k) +
                   std::chrono::duration_cast<duration>(interval * jitter));
    }
  }
};

/// fig11/fig12's interactive QoS: 1 s detection, a mistake per 2 h, 99.99%
/// query accuracy.
fd::qos_spec bench_qos() {
  fd::qos_spec qos;
  qos.detection_time = sec(1);
  qos.mistake_recurrence =
      std::chrono::duration_cast<omega::duration>(std::chrono::hours(2));
  qos.query_accuracy = 0.9999;
  return qos;
}

std::size_t kill_count(const sim_spec& spec, double seconds) {
  return static_cast<std::size_t>(std::ceil(spec.kills_per_s * seconds));
}

harness::scenario make_scenario(const sim_spec& spec, const run_options& opts) {
  harness::scenario sc;
  sc.name = spec.name;
  sc.nodes = spec.nodes;
  sc.alg = election::algorithm::omega_lc;
  sc.links = net::link_profile::lan();
  sc.qos = bench_qos();
  sc.churn = harness::churn_profile::none();  // kills come from the timetable
  sc.hierarchy = harness::hierarchy_profile::three_tier(spec.regions, spec.zones);
  sc.hierarchy.global_qos = bench_qos();
  sc.warmup = from_seconds(spec.warmup_s);
  // The simulated environment (link delay and loss draws, join stagger,
  // fault plane) is part of the workload's definition and stays fixed;
  // --seed draws the kill timetable. Steady-state HELLO fan-out differs up
  // to ~2x between environment seeds (stale candidacy entries from the
  // start-up promotions linger in listeners' tables), which would swamp
  // any regression the message metrics are meant to catch.
  sc.seed = kEnvironmentSeed * 1000003u + spec.nodes;
  sc.profile_sim = opts.traced;
  if (spec.churn_plane) {
    sc.adaptive.mode = adaptive::tuning_mode::adaptive;
    sc.adaptive.per_link = true;
    sc.hierarchy.inter_region_links = net::link_profile::lossy(msec(10), 0.01);
    sc.trace = true;
    sc.causal = true;
    // fig15's dup_reorder script, live for the whole run.
    harness::fault_step dup;
    dup.at = sec(20);
    harness::fault_duplicate dspec;
    dspec.spec.probability = 0.25;
    dspec.spec.max_copies = 2;
    dup.action = dspec;
    sc.fault_script.push_back(dup);
    harness::fault_step reorder;
    reorder.at = sec(20);
    harness::fault_reorder rspec;
    rspec.spec.window = 3;
    reorder.action = rspec;
    sc.fault_script.push_back(reorder);
    // fig15's partition script: region 1 cut off for 30 s every 3 min. The
    // last episode heals before the kill window ends, so the final
    // agreement check never waits on a scheduled partition.
    const double kills_end =
        spec.warmup_s + spec.kill_interval_s *
                            static_cast<double>(kill_count(spec, opts.seconds));
    harness::fault_step part;
    part.at = sec(60);
    part.lasts = sec(30);
    part.repeat_every = sec(180);
    part.repeat_count = 0;
    while (60.0 + 180.0 * static_cast<double>(part.repeat_count + 1) + 30.0 <
           kills_end) {
      ++part.repeat_count;
    }
    harness::fault_partition p;
    p.name = "region1";
    p.regions = {1};
    part.action = p;
    if (60.0 + 30.0 < kills_end) sc.fault_script.push_back(part);
  }
  return sc;
}

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }

/// True when every node is up and every group of every tier has all of its
/// members agreeing on one member of that group.
bool all_groups_agreed(harness::experiment& exp) {
  const hierarchy::topology& topo = *exp.topo();
  struct view {
    process_id leader;
    std::size_t tier;
  };
  std::unordered_map<std::uint32_t, view> agreed;
  for (std::size_t i = 0; i < topo.nodes(); ++i) {
    if (!exp.node_up(nid(i))) return false;
    const auto* coord = exp.node_coordinator(nid(i));
    if (coord == nullptr) return false;
    for (std::size_t tier = 0; tier < topo.tiers(); ++tier) {
      const auto leader = coord->leader(tier);
      if (!leader.has_value()) return false;
      const auto [it, fresh] = agreed.emplace(
          topo.group_at(nid(i), tier).value(), view{*leader, tier});
      if (!fresh && it->second.leader != *leader) return false;
    }
  }
  std::size_t groups = 0;
  for (std::size_t tier = 0; tier < topo.tiers(); ++tier) {
    groups += topo.groups_in_tier(tier);
  }
  if (agreed.size() != groups) return false;
  for (const auto& [group, v] : agreed) {
    const node_id host{v.leader.value()};  // the harness runs pid i on node i
    if (host.value() >= topo.nodes() ||
        topo.group_at(host, v.tier).value() != group) {
      return false;
    }
  }
  return true;
}

/// The leader every live member of region `members` agrees on, if any.
std::optional<process_id> region_agreed(harness::experiment& exp,
                                        const std::vector<node_id>& members) {
  std::optional<process_id> agreed;
  bool any_live = false;
  for (const node_id n : members) {
    if (!exp.node_up(n)) continue;
    any_live = true;
    const auto* coord = exp.node_coordinator(n);
    if (coord == nullptr) return std::nullopt;
    const auto leader = coord->leader(0);
    if (!leader.has_value() || (agreed.has_value() && *agreed != *leader)) {
      return std::nullopt;
    }
    agreed = leader;
  }
  if (!any_live || !agreed.has_value()) return std::nullopt;
  const node_id host{agreed->value()};
  if (!exp.node_up(host) ||
      std::find(members.begin(), members.end(), host) == members.end()) {
    return std::nullopt;
  }
  return agreed;
}

/// Builds the cluster and runs it until every group of every tier agrees
/// (or the warm-up ends); appends the wall time taken to `setups`.
std::unique_ptr<harness::experiment> set_up(const harness::scenario& sc,
                                            time_point warm_end,
                                            std::vector<double>& setups) {
  const auto t0 = host_clock::now();
  auto exp = std::make_unique<harness::experiment>(sc);
  auto& sim = exp->simulator();
  while (!all_groups_agreed(*exp) && sim.now() < warm_end) {
    sim.run_until(sim.now() + msec(100));
  }
  setups.push_back(seconds_since(t0));
  return exp;
}

/// Host time spent inside sim::simulator::run_until.
struct sim_clock {
  double run_until_s = 0.0;
  void advance(sim::simulator& sim, time_point to) {
    const auto t0 = host_clock::now();
    sim.run_until(to);
    run_until_s += seconds_since(t0);
  }
};

/// Receive-handler host time per wire kind, read from the profiler's
/// omega_sim_handler_seconds{kind} histograms.
struct handler_times {
  std::unordered_map<std::string, std::pair<double, std::uint64_t>> by_kind;

  static handler_times read(obs::registry& reg) {
    handler_times out;
    const auto& fams = reg.families();
    const auto it = fams.find("omega_sim_handler_seconds");
    if (it == fams.end()) return out;
    for (const auto& s : it->second.entries) {
      if (s->h == nullptr) continue;
      std::string kind;
      for (const auto& [k, v] : s->labels) {
        if (k == "kind") kind = v;
      }
      out.by_kind[kind] = {s->h->sum(), s->h->count()};
    }
    return out;
  }
  [[nodiscard]] handler_times since(const handler_times& before) const {
    handler_times out = *this;
    for (auto& [kind, v] : out.by_kind) {
      if (const auto b = before.by_kind.find(kind); b != before.by_kind.end()) {
        v.first -= b->second.first;
        v.second -= b->second.second;
      }
    }
    return out;
  }
  [[nodiscard]] double total_s() const {
    double s = 0.0;
    for (const auto& [k, v] : by_kind) s += v.first;
    return s;
  }
  [[nodiscard]] std::uint64_t total_calls() const {
    std::uint64_t n = 0;
    for (const auto& [k, v] : by_kind) n += v.second;
    return n;
  }
};

/// Counters read at the start of a cost window, and the window's results.
struct cost_window {
  double cpu0 = 0.0;
  double run_until0 = 0.0;
  std::uint64_t events0 = 0;
  std::uint64_t retunes0 = 0;
  std::uint64_t trace0 = 0;
  std::uint64_t trace_dropped0 = 0;
  handler_times handlers0;
  time_point from{};
  /// Host CPU per simulator event in each chunk of the window. The window's
  /// CPU is reported as the median chunk's rate times the window's events:
  /// a burst of interference from other tenants of the host moves one
  /// chunk, not the figure.
  double chunk_cpu0 = 0.0;
  std::uint64_t chunk_events0 = 0;
  std::vector<double> cpu_per_event;
  /// Datagrams sent and virtual seconds of each chunk: how far the message
  /// rate still drifts inside the window (net.msgs_drift_frac).
  std::uint64_t chunk_sent0 = 0;
  time_point chunk_from{};
  std::vector<std::pair<double, double>> sent_per_chunk;

  static std::uint64_t datagrams_sent(harness::experiment& exp, std::size_t nodes) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < nodes; ++i) n += exp.network().traffic(nid(i)).datagrams_sent;
    return n;
  }

  static std::uint64_t trace_recorded(harness::experiment& exp,
                                      std::size_t nodes, bool dropped) {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
      if (const auto* ring = exp.node_trace(nid(i))) {
        n += dropped ? ring->dropped() : ring->recorded();
      }
    }
    return n;
  }

  void open(harness::experiment& exp, const sim_clock& clock, std::size_t nodes) {
    exp.network().reset_traffic();
    from = exp.simulator().now();
    events0 = exp.simulator().events_executed();
    retunes0 = exp.total_retunes();
    trace0 = trace_recorded(exp, nodes, false);
    trace_dropped0 = trace_recorded(exp, nodes, true);
    handlers0 = handler_times::read(exp.sim_registry());
    run_until0 = clock.run_until_s;
    cpu0 = process_cpu_s();
    chunk_cpu0 = cpu0;
    chunk_events0 = events0;
    chunk_sent0 = 0;
    chunk_from = from;
  }

  /// Ends one chunk of the window.
  void chunk(harness::experiment& exp, std::size_t nodes) {
    const double cpu = process_cpu_s();
    const std::uint64_t events = exp.simulator().events_executed();
    if (events > chunk_events0) {
      cpu_per_event.push_back((cpu - chunk_cpu0) /
                              static_cast<double>(events - chunk_events0));
    }
    chunk_cpu0 = cpu;
    chunk_events0 = events;
    const std::uint64_t sent = datagrams_sent(exp, nodes);
    const time_point now = exp.simulator().now();
    sent_per_chunk.emplace_back(static_cast<double>(sent - chunk_sent0),
                                to_seconds(now - chunk_from));
    chunk_sent0 = sent;
    chunk_from = now;
  }

  /// Closes the window: end-to-end cost metrics plus the per-layer sim,
  /// net, service, fd, membership, adaptive and obs numbers.
  void close(record& rec, harness::experiment& exp, const sim_clock& clock,
             std::size_t nodes, const wire_tap& tap) {
    chunk(exp, nodes);
    const double run_until_s = clock.run_until_s - run_until0;
    auto& sim = exp.simulator();
    const double span_s = to_seconds(sim.now() - from);
    const double node_s = span_s * static_cast<double>(nodes);
    const double events =
        static_cast<double>(sim.events_executed() - events0);
    const double cpu_s = median(cpu_per_event) * events;
    std::uint64_t sent = 0;
    std::uint64_t bytes = 0;
    std::uint64_t delivered = 0;
    for (std::size_t i = 0; i < nodes; ++i) {
      const auto& t = exp.network().traffic(nid(i));
      sent += t.datagrams_sent;
      bytes += t.bytes_sent;
      delivered += t.datagrams_received;
    }
    const double msgs_per_node_s = static_cast<double>(sent) / node_s;
    const double bytes_per_node_s = static_cast<double>(bytes) / node_s;
    rec.set("cpu_us_per_node_s", cpu_s * 1e6 / node_s);
    rec.set("cpu_us_per_msg",
            delivered > 0 ? cpu_s * 1e6 / static_cast<double>(delivered) : 0.0);
    rec.set("msgs_per_node_s", msgs_per_node_s);
    rec.set("bytes_per_node_s", bytes_per_node_s);
    rec.pin("msgs_per_node_s", msgs_per_node_s);
    rec.pin("bytes_per_node_s", bytes_per_node_s);
    rec.pin("window_events", events);
    rec.pin("window_delivered", static_cast<double>(delivered));

    // sim: kernel cost per event and the receive handlers' share of it.
    const handler_times rx = handler_times::read(exp.sim_registry()).since(handlers0);
    rec.set("sim.ns_per_event", events > 0 ? run_until_s * 1e9 / events : 0.0);
    rec.set("sim.events_per_node_s", events / node_s);
    rec.set("sim.rx_share", run_until_s > 0 ? rx.total_s() / run_until_s : 0.0);

    // net: per-kind send rates (tap) and the share of datagrams lost.
    report_kind_rates(rec, tap, node_s);
    const double dropped = static_cast<double>(exp.network().dropped_by_links() +
                                               exp.network().dropped_dead_node() +
                                               exp.network().dropped_by_adversary());
    rec.set("net.drop_frac", sent > 0 ? dropped / static_cast<double>(sent) : 0.0);
    rec.pin("net.dropped", dropped);
    const double drift = half_drift(sent_per_chunk);
    rec.set("net.msgs_drift_frac", std::abs(drift));
    rec.pin("net.msgs_drift_frac", drift);

    // service: receive-handler time per kind; the rest of the events are
    // timers (heartbeat ticks, FD deadlines, membership sweeps).
    for (const auto& [label, kind] : kReportedKinds) {
      const auto it = rx.by_kind.find(label);
      const bool seen = it != rx.by_kind.end() && it->second.second > 0;
      rec.set(std::string("service.rx_ns.") + label,
              seen ? it->second.first * 1e9 / static_cast<double>(it->second.second)
                   : 0.0);
    }
    const double timer_events = events - static_cast<double>(rx.total_calls());
    rec.set("service.timer_ns",
            rx.total_calls() > 0 && timer_events > 0
                ? (run_until_s - rx.total_s()) * 1e9 / timer_events
                : 0.0);
    rec.set("service.tx_ns", 0.0);  // not separable on the simulator
    std::uint64_t unknown_group = 0;
    std::uint64_t malformed = 0;
    double monitors = 0.0;
    double members = 0.0;
    std::size_t live = 0;
    std::size_t memberships = 0;
    const hierarchy::topology& topo = *exp.topo();
    for (std::size_t i = 0; i < nodes; ++i) {
      auto* svc = exp.node_service(nid(i));
      if (svc == nullptr) continue;
      ++live;
      unknown_group += svc->stats().dropped_unknown_group;
      malformed += svc->stats().malformed_received;
      monitors += static_cast<double>(svc->failure_detector().monitor_count());
      for (std::size_t tier = 0; tier < topo.tiers(); ++tier) {
        members += static_cast<double>(
            svc->members(topo.group_at(nid(i), tier)).size());
        ++memberships;
      }
    }
    rec.set("service.dropped_unknown_group", static_cast<double>(unknown_group));
    rec.set("service.malformed", static_cast<double>(malformed));
    rec.set("fd.monitors_per_node", live > 0 ? monitors / static_cast<double>(live) : 0.0);
    rec.set("membership.members_per_group",
            memberships > 0 ? members / static_cast<double>(memberships) : 0.0);

    const double node_h = node_s / 3600.0;
    const double retunes = static_cast<double>(exp.total_retunes() - retunes0);
    rec.set("adaptive.retunes_per_node_h", retunes / node_h);
    rec.pin("adaptive.retunes", retunes);
    const double traced = static_cast<double>(trace_recorded(exp, nodes, false) - trace0);
    rec.set("obs.trace_events_per_node_s", traced / node_s);
    rec.set("obs.trace_dropped",
            static_cast<double>(trace_recorded(exp, nodes, true) - trace_dropped0));
    rec.pin("obs.trace_events", traced);
  }
};

/// Runtime-layer metrics do not exist on the simulator: no sockets, no
/// event loop, no wall-clock generator.
void report_no_runtime(record& rec) {
  for (const char* name :
       {"runtime.syscalls_per_msg", "runtime.dgrams_per_sendmmsg",
        "runtime.dgrams_per_recvmmsg", "runtime.iterations_per_s",
        "runtime.loop_busy_frac", "runtime.self_us_per_msg",
        "runtime.timer_late_us_p50", "runtime.timer_late_us_p99",
        "runtime.send_errors", "runtime.queue_drops", "runtime.queue_hwm",
        "bench.kill_late_ms_max"}) {
    rec.set(name, 0.0);
  }
}

record run_sim(const sim_spec& spec, const run_options& opts) {
  record rec;
  rec.clock = "virtual";
  rec.main_cost_metric = "cpu_us_per_node_s";
  const harness::scenario sc = make_scenario(spec, opts);
  const time_point warm_end = time_origin + from_seconds(spec.warmup_s);

  // ---- set-up, repeated: build + joins until every group agrees ----------
  std::vector<double> setups;
  std::unique_ptr<harness::experiment> exp;
  for (int k = 0; k < spec.setups_per_end; ++k) {
    exp.reset();
    exp = set_up(sc, warm_end, setups);
  }
  if (!all_groups_agreed(*exp)) {
    rec.fail("set-up: not every group agreed on a leader by the end of warm-up");
  }
  rec.pin("setup_agreed_at_s", to_seconds(exp->simulator().now() - time_origin));

  auto& sim = exp->simulator();
  sim_clock clock;
  const auto settle0 = host_clock::now();
  // The measurement starts at a seed-drawn phase of the 2 s HELLO period
  // after the warm-up, so runs sample the steady state at different phases.
  std::mt19937_64 phase_rng(opts.seed ^ 0x9e3779b97f4a7c15ull);
  const double phase_s = static_cast<double>(phase_rng() >> 11) * 0x1p-53 * 2.0;
  clock.advance(sim, warm_end + from_seconds(phase_s));
  rec.set("bench.settle_s", seconds_since(settle0));

  wire_tap tap(opts.seed);
  if (opts.traced) {
    exp->network().set_send_tap(
        [&tap](node_id, node_id, std::span<const std::byte> payload) {
          tap.observe(payload);
        });
  }

  const hierarchy::topology& topo = *exp->topo();
  std::vector<std::vector<node_id>> region_members(spec.regions);
  for (std::size_t i = 0; i < spec.nodes; ++i) {
    region_members[topo.region_of(nid(i))].push_back(nid(i));
  }

  // ---- steady window (no kills) -------------------------------------------
  cost_window costs;
  const bool steady = spec.steady_per_s > 0;
  if (steady) {
    costs.open(*exp, clock, spec.nodes);
    const time_point from = sim.now();
    const duration span = from_seconds(spec.steady_per_s * opts.seconds);
    for (int c = 1; c <= kChunks; ++c) {
      const time_point until = from + span * c / kChunks;
      while (sim.now() < until) clock.advance(sim, std::min(until, sim.now() + sec(1)));
      if (c < kChunks) costs.chunk(*exp, spec.nodes);
    }
    costs.close(rec, *exp, clock, spec.nodes, tap);
    tap.reset_counts();
  }

  // ---- kill window: open-loop region-leader kills --------------------------
  const std::size_t kills = kill_count(spec, opts.seconds);
  const duration interval = from_seconds(spec.kill_interval_s);
  const duration recover_after = from_seconds(spec.recover_after_s);
  const duration deadline = from_seconds(spec.deadline_s);
  const time_point kills_from = sim.now();
  const kill_timetable timetable(opts.seed, spec.regions, kills, interval);
  auto* hm = exp->hier_metrics();
  hm->begin(kills_from);
  exp->group().begin(kills_from);
  if (!steady) costs.open(*exp, clock, spec.nodes);

  // A failover's latency is the region tracker's T_r sample, timed exactly
  // at the re-agreement event; the poll below only notices that the region
  // agrees again (at kPollS resolution) and checks that the tracker took
  // exactly one sample for the kill.
  struct open_failover {
    process_id victim;
    time_point killed_at;
    std::size_t tr_count;  // the tracker's T_r tally at the kill
    double tr_sum_s;
  };
  std::vector<std::optional<open_failover>> open(spec.regions);
  std::vector<std::pair<time_point, node_id>> recoveries;  // FIFO by time
  std::size_t next_recovery = 0;
  failover_samples samples;
  double sample_sum_ms = 0.0;
  std::size_t k = 0;
  const auto any_open = [&open] {
    return std::any_of(open.begin(), open.end(),
                       [](const auto& o) { return o.has_value(); });
  };
  while (k < kills || next_recovery < recoveries.size() || any_open()) {
    time_point next = time_point::max();
    if (k < kills) next = kills_from + timetable.at[k];
    if (next_recovery < recoveries.size()) {
      next = std::min(next, recoveries[next_recovery].first);
    }
    if (any_open()) next = std::min(next, sim.now() + from_seconds(kPollS));
    clock.advance(sim, next);

    for (std::size_t r = 0; r < spec.regions; ++r) {
      if (!open[r].has_value()) continue;
      const auto agreed = region_agreed(*exp, region_members[r]);
      const duration took = sim.now() - open[r]->killed_at;
      if (agreed.has_value() && *agreed != open[r]->victim && took <= deadline) {
        const auto& tr = hm->region(r).recovery_times();
        if (tr.count() == open[r]->tr_count + 1) {
          const double ms =
              (tr.mean() * static_cast<double>(tr.count()) - open[r]->tr_sum_s) * 1e3;
          samples.converged(ms);
          sample_sum_ms += ms;
        } else {
          rec.fail("failover: region " + std::to_string(r) + " re-agreed but its T_r tracker took " +
                   std::to_string(tr.count() - open[r]->tr_count) + " samples, not one");
          samples.missed();
        }
        open[r].reset();
      } else if (took >= deadline) {
        samples.missed();
        open[r].reset();
      }
    }
    while (next_recovery < recoveries.size() &&
           recoveries[next_recovery].first <= sim.now()) {
      exp->recover_node(recoveries[next_recovery].second);
      ++next_recovery;
    }
    if (k < kills && kills_from + timetable.at[k] <= sim.now()) {
      if (!steady && k > 0 && k % std::max<std::size_t>(1, kills / kChunks) == 0) {
        costs.chunk(*exp, spec.nodes);
      }
      const std::size_t r = timetable.order[k % spec.regions];
      ++k;
      if (open[r].has_value()) {  // the previous failover ran out of time
        samples.missed();
        open[r].reset();
      }
      const auto victim = region_agreed(*exp, region_members[r]);
      if (!victim.has_value()) {  // nobody to kill: the region is leaderless
        samples.missed();
        continue;
      }
      const auto& tr = hm->region(r).recovery_times();
      const std::size_t tr_count = tr.count();
      const double tr_sum_s = tr.mean() * static_cast<double>(tr_count);
      exp->crash_node(node_id{victim->value()});
      open[r] = open_failover{*victim, sim.now(), tr_count, tr_sum_s};
      recoveries.emplace_back(sim.now() + recover_after, node_id{victim->value()});
    }
  }
  const time_point kills_to = sim.now();
  hm->finish(kills_to);
  exp->group().finish(kills_to);
  if (!steady) costs.close(rec, *exp, clock, spec.nodes, tap);

  report_failovers(rec, samples, spec.deadline_s * 1e3);
  double availability = 0.0;
  std::uint64_t unjustified = exp->group().unjustified_demotions();
  std::uint64_t changes = 0;
  for (std::size_t r = 0; r < hm->regions(); ++r) {
    availability += hm->region(r).leader_availability();
    unjustified += hm->region(r).unjustified_demotions();
    changes += hm->region(r).unjustified_demotions() +
               hm->region(r).justified_changes();
  }
  availability /= static_cast<double>(hm->regions());
  const double hours = to_seconds(kills_to - kills_from) / 3600.0;
  rec.set("leader_availability", availability);
  rec.set("election.mistakes_per_hour",
          static_cast<double>(unjustified) /
              (static_cast<double>(spec.regions + 1) * hours));
  rec.set("election.unjustified_demotions", static_cast<double>(unjustified));
  rec.set("election.leader_changes_per_group_h",
          static_cast<double>(changes) / (static_cast<double>(spec.regions) * hours));
  rec.pin("failover_ms_p50", samples.percentile(0.5, spec.deadline_s * 1e3));
  rec.pin("failover_ms_p90", samples.percentile(0.9, spec.deadline_s * 1e3));
  rec.pin("failover_attempted", static_cast<double>(samples.attempted()));
  rec.pin("failover_failed", static_cast<double>(samples.failed()));
  rec.pin("failover_sum_ms", sample_sum_ms);
  rec.pin("leader_availability", availability);
  rec.pin("unjustified_demotions", static_cast<double>(unjustified));
  rec.pin("leader_changes", static_cast<double>(changes));

  // ---- drain: every group must end with one agreed live leader ------------
  const time_point drain_deadline = sim.now() + sec(60);
  while (!all_groups_agreed(*exp) && sim.now() < drain_deadline) {
    clock.advance(sim, sim.now() + msec(100));
  }
  if (!all_groups_agreed(*exp)) {
    rec.fail("end of run: a group lacks one agreed live leader");
  }
  rec.pin("end_at_s", to_seconds(sim.now() - time_origin));
  rec.pin("events_executed", static_cast<double>(sim.events_executed()));

  if (opts.traced) tap.replay(rec);
  report_no_runtime(rec);

  // ---- set-up, repeated at the far end of the run --------------------------
  exp.reset();
  for (int k = 0; k < spec.setups_per_end; ++k) {
    exp = set_up(sc, warm_end, setups);
    if (!all_groups_agreed(*exp)) {
      rec.fail("set-up: not every group agreed on a leader by the end of warm-up");
    }
    exp.reset();
  }
  rec.set("setup_s", median(setups));
  rec.set("peak_rss_mb", peak_rss_mb());
  return rec;
}

}  // namespace

record run_sim_steady_300(const run_options& opts) {
  // 300 nodes, regions of 10 -> 6 zones -> global, LAN links (25 us mean
  // delay, no loss), continuous tuning, no tracing; kills only after the
  // steady window. The warm-up runs to 120 virtual s: heartbeat rates are
  // still being renegotiated down until about then, so an earlier window
  // would time a transient rather than the steady state.
  const sim_spec spec{"sim_steady_300", 300, 30, 6, false,
                      /*steady_per_s=*/6.0, /*kills_per_s=*/12.0,
                      /*kill_interval_s=*/0.25, /*recover_after_s=*/4.0,
                      /*deadline_s=*/3.0, /*warmup_s=*/120.0,
                      /*setups_per_end=*/2};
  return run_sim(spec, opts);
}

record run_sim_churn_120(const run_options& opts) {
  // 120 nodes, 12 regions -> 2 zones -> global, LAN inside regions, lossy
  // WAN (10 ms mean delay, 1% loss) between them, adaptive per-link tuning,
  // dup/reorder + partition faults, tracing + causal stamping on.
  const sim_spec spec{"sim_churn_120", 120, 12, 2, true,
                      /*steady_per_s=*/0.0, /*kills_per_s=*/12.0,
                      /*kill_interval_s=*/0.6, /*recover_after_s=*/4.0,
                      /*deadline_s=*/3.0, /*warmup_s=*/30.0,
                      /*setups_per_end=*/4};
  return run_sim(spec, opts);
}

}  // namespace perfbench
