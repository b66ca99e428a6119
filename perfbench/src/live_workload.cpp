// live_udp_256: 256 real-UDP services on 127.0.0.1 in flat groups of 8,
// hosted on three shared epoll loops in the default batched mode.
//
//   set-up   bind 256 sockets, start the services and wait until all 32
//            groups agree on a live leader (timed, five times; the median
//            is setup_s; all but the last cluster are torn down);
//   kills    for --seconds of wall time the main thread kills one group's
//            agreed leader every 1/12 s, round-robin over the groups, on a
//            fixed wall-clock timetable (open loop). A kill destroys the
//            service on its loop; the same socket gets a new incarnation
//            1.5 s later. Failover latency runs from the *scheduled* kill
//            instant until every live member agrees on another live leader;
//   drain    wait for the last re-creations and for every group to agree
//            again — a run that cannot get there is incorrect.
//
// A group lives on one loop, so its agreement tracker is only touched by
// that loop's thread; the main thread reads it after a sync or the stop.
// The traced run slides bench-owned decorators under every service — a
// transport that times receive-handler calls and sends per wire kind and a
// timer service that times callbacks and their lateness — and leaves the
// untraced run on the bare loop and socket.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "election/elector.hpp"
#include "measure.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/loop_transport.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

using namespace omega;

constexpr std::size_t kServices = 256;
constexpr std::size_t kGroupSize = 8;
constexpr std::size_t kGroups = kServices / kGroupSize;
constexpr std::size_t kLoops = 3;
constexpr double kKillsPerS = 12.0;
constexpr double kRecreateAfterS = 1.5;
constexpr double kDeadlineS = 1.5;
constexpr auto kDetection = msec(400);
constexpr int kChunks = 10;  // cost-window chunks (see the kill window)

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }
process_id pid(std::size_t i) { return process_id{static_cast<std::uint32_t>(i)}; }
group_id gid(std::size_t g) { return group_id{static_cast<std::uint32_t>(g + 1)}; }

double ms_between(host_clock::time_point from, host_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- traced-run decorators -------------------------------------------------

/// Host time of one layer on one loop (loop thread only).
struct layer_times {
  std::array<double, 7> rx_s{};
  std::array<std::uint64_t, 7> rx_calls{};
  double timer_s = 0.0;
  std::uint64_t timer_calls = 0;
  std::vector<double> timer_late_us;
  double tx_s = 0.0;
  std::uint64_t tx_calls = 0;
  wire_tap tap;

  explicit layer_times(std::uint64_t seed) : tap(seed) {}
  void restart() {
    rx_s.fill(0.0);
    rx_calls.fill(0);
    timer_s = 0.0;
    timer_calls = 0;
    timer_late_us.clear();
    tx_s = 0.0;
    tx_calls = 0;
    tap.reset_counts();
  }
};

/// Forwards every net::transport virtual to the loop's socket — the
/// shared_payload overloads and pool() included, so the encode-once batched
/// path stays intact — and times receive-handler calls and sends.
class timed_transport final : public net::transport {
 public:
  timed_transport(runtime::loop_udp_transport& inner, layer_times& times)
      : inner_(inner), times_(times) {}

  void send(node_id dst, std::span<const std::byte> payload) override {
    times_.tap.observe(payload);
    timed([&] { inner_.send(dst, payload); });
  }
  void send(node_id dst, net::shared_payload payload) override {
    times_.tap.observe(payload.bytes());
    timed([&] { inner_.send(dst, std::move(payload)); });
  }
  void multicast(std::span<const node_id> dsts,
                 std::span<const std::byte> payload) override {
    times_.tap.observe(payload, dsts.size());
    timed([&] { inner_.multicast(dsts, payload); });
  }
  void multicast(std::span<const node_id> dsts,
                 net::shared_payload payload) override {
    times_.tap.observe(payload.bytes(), dsts.size());
    timed([&] { inner_.multicast(dsts, std::move(payload)); });
  }
  [[nodiscard]] net::payload_pool& pool() override { return inner_.pool(); }
  [[nodiscard]] node_id local_node() const override { return inner_.local_node(); }
  void set_receive_handler(net::receive_handler handler) override {
    if (!handler) {
      inner_.set_receive_handler({});
      return;
    }
    inner_.set_receive_handler(
        [this, h = std::move(handler)](const net::datagram& d) {
          const auto kind = proto::peek_kind(d.payload);
          const std::size_t k = kind ? static_cast<std::size_t>(*kind) : 0;
          const auto t0 = host_clock::now();
          h(d);
          times_.rx_s[k] += seconds_since(t0);
          ++times_.rx_calls[k];
        });
  }

 private:
  template <typename F>
  void timed(F&& f) {
    const auto t0 = host_clock::now();
    f();
    times_.tx_s += seconds_since(t0);
    ++times_.tx_calls;
  }

  runtime::loop_udp_transport& inner_;
  layer_times& times_;
};

/// Times every timer callback the service arms on the loop, and how late
/// it ran against its due instant.
class timed_timers final : public timer_service {
 public:
  timed_timers(runtime::event_loop& loop, layer_times& times)
      : loop_(loop), times_(times) {}

  timer_id schedule_at(time_point when, unique_task fn) override {
    return loop_.schedule_at(when, wrap(when, std::move(fn)));
  }
  timer_id schedule_after(duration after, unique_task fn) override {
    return loop_.schedule_after(after, wrap(loop_.now() + after, std::move(fn)));
  }
  void cancel(timer_id id) override { loop_.cancel(id); }

 private:
  unique_task wrap(time_point due, unique_task fn) {
    return [this, due, fn = std::move(fn)]() mutable {
      times_.timer_late_us.push_back(to_seconds(loop_.now() - due) * 1e6);
      const auto t0 = host_clock::now();
      fn();
      times_.timer_s += seconds_since(t0);
      ++times_.timer_calls;
    };
  }

  runtime::event_loop& loop_;
  layer_times& times_;
};

// ---- ground truth per group ------------------------------------------------

/// Agreement, availability and failover bookkeeping of one group; touched
/// only on the group's loop thread.
struct group_truth {
  std::array<std::optional<process_id>, kGroupSize> views{};
  std::array<bool, kGroupSize> up{};
  std::optional<process_id> agreed;
  std::optional<process_id> last_agreed;
  bool last_agreed_killed = false;
  host_clock::time_point agreed_since{};
  bool accounting = false;
  double agreed_s = 0.0;
  std::uint64_t changes = 0;
  std::uint64_t unjustified = 0;
  bool pending = false;
  process_id victim{};
  host_clock::time_point due{};
  std::vector<double> failover_ms;
  std::uint64_t missed = 0;
  double kill_late_ms_max = 0.0;
};

struct instance {
  runtime::event_loop* loop = nullptr;
  std::unique_ptr<runtime::loop_udp_transport> socket;
  std::unique_ptr<timed_transport> traced_socket;
  std::unique_ptr<timed_timers> traced_timers;
  incarnation inc = 0;
  std::unique_ptr<service::leader_election_service> svc;  // dies first
};

class cluster {
 public:
  cluster(bool traced, std::uint64_t seed) : pool_(kLoops), traced_(traced) {
    for (std::size_t l = 0; l < kLoops; ++l) {
      times_.push_back(std::make_unique<layer_times>(seed * 31 + l));
    }
    // Bind every socket on port 0, then hand each group its real address
    // book; a whole group shares one loop.
    for (std::size_t i = 0; i < kServices; ++i) {
      const std::size_t g = i / kGroupSize;
      runtime::udp_roster bind;
      for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
        bind[nid(j)] = runtime::udp_endpoint{"127.0.0.1", 0};
      }
      auto& inst = nodes_[i];
      inst.loop = &pool_.at(g);
      inst.socket = std::make_unique<runtime::loop_udp_transport>(*inst.loop,
                                                                  nid(i), bind);
      if (traced_) {
        layer_times& t = *times_[g % kLoops];
        inst.traced_socket = std::make_unique<timed_transport>(*inst.socket, t);
        inst.traced_timers = std::make_unique<timed_timers>(*inst.loop, t);
      }
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      runtime::udp_roster book;
      for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
        book[nid(j)] = runtime::udp_endpoint{"127.0.0.1", nodes_[j].socket->bound_port()};
      }
      pool_.at(g).sync([&] {
        for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
          nodes_[j].socket->set_roster(book);
          start(j);
        }
      });
    }
  }

  ~cluster() {
    for (auto& inst : nodes_) {
      inst.loop->sync([&] {
        inst.svc.reset();
        inst.traced_timers.reset();
        inst.traced_socket.reset();
        inst.socket.reset();
      });
    }
    pool_.stop_all();
  }
  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;

  [[nodiscard]] std::size_t groups_agreed() const { return agreed_groups_.load(); }
  runtime::loop_pool& pool() { return pool_; }
  [[nodiscard]] runtime::event_loop& loop_of(std::size_t g) { return pool_.at(g); }
  group_truth& truth(std::size_t g) { return truth_[g]; }
  layer_times& times(std::size_t l) { return *times_[l]; }
  std::array<instance, kServices>& nodes() { return nodes_; }

  /// On group `g`'s loop: kill its agreed leader (scheduled for `due`).
  void kill(std::size_t g, host_clock::time_point due) {
    group_truth& t = truth_[g];
    const auto now = host_clock::now();
    t.kill_late_ms_max = std::max(t.kill_late_ms_max, ms_between(due, now));
    if (t.pending) {  // the previous failover never converged
      ++t.missed;
      t.pending = false;
    }
    if (!t.agreed.has_value()) {  // leaderless at the kill instant
      ++t.missed;
      return;
    }
    const std::size_t slot = t.agreed->value() - g * kGroupSize;
    t.pending = true;
    t.victim = *t.agreed;
    t.due = due;
    t.last_agreed_killed = true;
    nodes_[t.agreed->value()].svc.reset();
    t.up[slot] = false;
    t.views[slot].reset();
    refresh(g, now);
  }

  /// On group `g`'s loop: close an overdue failover and re-create every
  /// killed member with its next incarnation.
  void recreate(std::size_t g, host_clock::time_point kill_due) {
    group_truth& t = truth_[g];
    if (t.pending && t.due == kill_due) {
      ++t.missed;
      t.pending = false;
    }
    for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
      if (!nodes_[j].svc) start(j);
    }
  }

  /// On group `g`'s loop: start or stop availability accounting.
  void account(std::size_t g, bool on) {
    group_truth& t = truth_[g];
    const auto now = host_clock::now();
    if (t.accounting && t.agreed.has_value()) {
      t.agreed_s += std::chrono::duration<double>(now - t.agreed_since).count();
    }
    t.accounting = on;
    t.agreed_since = now;
  }

 private:
  /// Starts (or re-creates) service `j` on its loop thread.
  void start(std::size_t j) {
    auto& inst = nodes_[j];
    const std::size_t g = j / kGroupSize;
    service::service_config cfg;
    cfg.self = nid(j);
    cfg.inc = ++inst.inc;
    for (std::size_t m = g * kGroupSize; m < (g + 1) * kGroupSize; ++m) {
      cfg.roster.push_back(nid(m));
    }
    cfg.alg = election::algorithm::omega_lc;
    net::transport& net = traced_ ? static_cast<net::transport&>(*inst.traced_socket)
                                  : static_cast<net::transport&>(*inst.socket);
    timer_service& timers = traced_ ? static_cast<timer_service&>(*inst.traced_timers)
                                    : static_cast<timer_service&>(*inst.loop);
    inst.svc = std::make_unique<service::leader_election_service>(*inst.loop, timers,
                                                                  net, cfg);
    inst.svc->register_process(pid(j));
    service::join_options jopts;
    jopts.qos.detection_time = kDetection;
    const std::size_t slot = j - g * kGroupSize;
    inst.svc->join_group(pid(j), gid(g), jopts,
                         [this, g, slot](group_id, std::optional<process_id> leader) {
                           truth_[g].views[slot] = leader;
                           refresh(g, host_clock::now());
                         });
    truth_[g].up[slot] = true;
    truth_[g].views[slot] = inst.svc->leader(gid(g));
    refresh(g, host_clock::now());
  }

  void refresh(std::size_t g, host_clock::time_point now) {
    group_truth& t = truth_[g];
    std::optional<process_id> x;
    bool agree = true;
    for (std::size_t s = 0; s < kGroupSize && agree; ++s) {
      if (!t.up[s]) continue;
      if (!t.views[s].has_value() || (x.has_value() && *x != *t.views[s])) {
        agree = false;
      }
      x = t.views[s];
    }
    if (!agree || !x.has_value() || x->value() < g * kGroupSize ||
        x->value() >= (g + 1) * kGroupSize || !t.up[x->value() - g * kGroupSize]) {
      x.reset();
    }
    if (x == t.agreed) return;
    if (t.accounting && t.agreed.has_value()) {
      t.agreed_s += std::chrono::duration<double>(now - t.agreed_since).count();
    }
    t.agreed_since = now;
    if (x.has_value()) {
      if (t.last_agreed.has_value() && *x != *t.last_agreed) {
        if (t.accounting) ++t.changes;
        if (t.accounting && !t.last_agreed_killed) ++t.unjustified;
      }
      t.last_agreed = x;
      t.last_agreed_killed = false;
      if (t.pending && *x != t.victim) {
        const double ms = ms_between(t.due, now);
        if (ms <= kDeadlineS * 1e3) {
          t.failover_ms.push_back(ms);
        } else {
          ++t.missed;
        }
        t.pending = false;
      }
      if (!t.agreed.has_value()) ++agreed_groups_;
    } else {
      --agreed_groups_;
    }
    t.agreed = x;
  }

  runtime::loop_pool pool_;
  bool traced_;
  std::vector<std::unique_ptr<layer_times>> times_;
  std::array<group_truth, kGroups> truth_{};
  std::atomic<std::size_t> agreed_groups_{0};
  std::array<instance, kServices> nodes_;
};

/// Waits until every group agrees, up to `limit` seconds.
bool wait_all_agreed(cluster& c, double limit_s) {
  const auto t0 = host_clock::now();
  while (c.groups_agreed() < kGroups) {
    if (seconds_since(t0) > limit_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

runtime::loop_stats minus(runtime::loop_stats a, const runtime::loop_stats& b) {
  a.epoll_waits -= b.epoll_waits;
  a.eventfd_reads -= b.eventfd_reads;
  a.sendmmsg_calls -= b.sendmmsg_calls;
  a.sendto_calls -= b.sendto_calls;
  a.recvmmsg_calls -= b.recvmmsg_calls;
  a.recvfrom_calls -= b.recvfrom_calls;
  a.datagrams_sent -= b.datagrams_sent;
  a.datagrams_received -= b.datagrams_received;
  a.bytes_sent -= b.bytes_sent;
  a.bytes_received -= b.bytes_received;
  a.timers_fired -= b.timers_fired;
  a.tasks_run -= b.tasks_run;
  a.iterations -= b.iterations;
  return a;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

record run_live_udp_256(const run_options& opts) {
  record rec;
  rec.clock = "wall";
  rec.main_cost_metric = "cpu_us_per_msg";

  // ---- set-up, five times -------------------------------------------------
  constexpr int kSetups = 5;
  std::vector<double> setups;
  std::unique_ptr<cluster> c;
  for (int k = 0; k < kSetups; ++k) {
    c.reset();
    const auto t0 = host_clock::now();
    c = std::make_unique<cluster>(opts.traced, opts.seed);
    if (!wait_all_agreed(*c, 20.0)) {
      rec.fail("set-up: not every group agreed on a leader within 20 s");
      return rec;
    }
    setups.push_back(seconds_since(t0));
  }
  rec.set("setup_s", median(setups));

  // ---- kill window ----------------------------------------------------------
  // The timetable is the workload's input: kill k is due at t0 + k/12 s and
  // hits group (seed + k) mod 32; its victim comes back 1.5 s later.
  const auto kills = static_cast<std::size_t>(std::ceil(kKillsPerS * opts.seconds));
  const std::size_t first_group = opts.seed % kGroups;
  struct due_event {
    host_clock::time_point at;
    std::size_t group;
    host_clock::time_point kill_due;
    enum { kill, recreate, sample } what;
  };
  const auto t0 = host_clock::now() + std::chrono::milliseconds(20);
  std::vector<due_event> timetable;
  for (std::size_t k = 0; k < kills; ++k) {
    const auto due = t0 + std::chrono::duration_cast<host_clock::duration>(
                              std::chrono::duration<double>(k / kKillsPerS));
    const std::size_t g = (first_group + k) % kGroups;
    timetable.push_back({due, g, due, due_event::kill});
    timetable.push_back(
        {due + std::chrono::duration_cast<host_clock::duration>(
                   std::chrono::duration<double>(kRecreateAfterS)),
         g, due, due_event::recreate});
  }
  // Chunk boundaries inside the window (the window's close is the last).
  for (int i = 1; i < kChunks; ++i) {
    const auto at = t0 + std::chrono::duration_cast<host_clock::duration>(
                             std::chrono::duration<double>(opts.seconds * i / kChunks));
    timetable.push_back({at, 0, at, due_event::sample});
  }
  std::stable_sort(timetable.begin(), timetable.end(),
                   [](const due_event& a, const due_event& b) { return a.at < b.at; });
  const auto t1 = t0 + std::chrono::duration_cast<host_clock::duration>(
                           std::chrono::duration<double>(opts.seconds));

  std::this_thread::sleep_until(t0);
  for (std::size_t g = 0; g < kGroups; ++g) {
    c->loop_of(g).sync([&] { c->account(g, true); });
  }
  for (std::size_t l = 0; l < kLoops; ++l) {
    c->pool().at(l).sync([&] { c->times(l).restart(); });
  }
  const runtime::loop_stats io0 = c->pool().total_stats();
  const double cpu0 = process_cpu_s();
  const auto wall0 = host_clock::now();
  bool window_closed = false;
  runtime::loop_stats io;
  double cpu_s = 0.0;
  double window_s = 0.0;
  std::vector<layer_times> times;
  // Per-chunk CPU per delivered datagram and per node-second; the window
  // reports their medians, so a burst of interference from other tenants
  // of the host moves one chunk, not the figure.
  std::vector<double> chunk_per_msg;
  std::vector<double> chunk_per_node_s;
  std::vector<std::pair<double, double>> sent_per_chunk;  // (datagrams, s)
  double chunk_cpu = cpu0;
  std::uint64_t chunk_received = io0.datagrams_received;
  std::uint64_t chunk_sent = io0.datagrams_sent;
  auto chunk_wall = wall0;
  const auto end_chunk = [&](const runtime::loop_stats& now_io) {
    const double cpu = process_cpu_s();
    const auto wall = host_clock::now();
    const double received =
        static_cast<double>(now_io.datagrams_received - chunk_received);
    const double span = std::chrono::duration<double>(wall - chunk_wall).count();
    if (received > 0) chunk_per_msg.push_back((cpu - chunk_cpu) * 1e6 / received);
    if (span > 0) {
      chunk_per_node_s.push_back((cpu - chunk_cpu) * 1e6 /
                                 (span * static_cast<double>(kServices)));
    }
    sent_per_chunk.emplace_back(
        static_cast<double>(now_io.datagrams_sent - chunk_sent), span);
    chunk_cpu = cpu;
    chunk_received = now_io.datagrams_received;
    chunk_sent = now_io.datagrams_sent;
    chunk_wall = wall;
  };
  const auto close_window = [&] {
    const runtime::loop_stats total = c->pool().total_stats();
    end_chunk(total);
    io = minus(total, io0);
    cpu_s = process_cpu_s() - cpu0;
    window_s = seconds_since(wall0);
    for (std::size_t l = 0; l < kLoops; ++l) {
      c->pool().at(l).sync([&] { times.push_back(c->times(l)); });
    }
    for (std::size_t g = 0; g < kGroups; ++g) {
      c->loop_of(g).sync([&] { c->account(g, false); });
    }
    window_closed = true;
  };
  for (const due_event& ev : timetable) {
    if (!window_closed && ev.at >= t1) {
      std::this_thread::sleep_until(t1);
      close_window();
    }
    std::this_thread::sleep_until(ev.at);
    cluster* cl = c.get();
    const std::size_t g = ev.group;
    const auto kill_due = ev.kill_due;
    if (ev.what == due_event::kill) {
      c->loop_of(g).post([cl, g, kill_due] { cl->kill(g, kill_due); });
    } else if (ev.what == due_event::recreate) {
      c->loop_of(g).post([cl, g, kill_due] { cl->recreate(g, kill_due); });
    } else if (!window_closed) {
      end_chunk(c->pool().total_stats());
    }
  }
  if (!window_closed) close_window();

  // ---- drain ----------------------------------------------------------------
  for (std::size_t g = 0; g < kGroups; ++g) c->loop_of(g).sync([] {});
  if (!wait_all_agreed(*c, 10.0)) {
    rec.fail("end of run: a group lacks one agreed live leader");
  }

  failover_samples samples;
  double availability = 0.0;
  double kill_late_ms = 0.0;
  std::uint64_t changes = 0;
  std::uint64_t unjustified = 0;
  std::uint64_t unknown_group = 0;
  std::uint64_t malformed = 0;
  double monitors = 0.0;
  double members = 0.0;
  std::size_t live = 0;
  std::uint64_t send_errors = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t queue_hwm = 0;
  for (std::size_t g = 0; g < kGroups; ++g) {
    c->loop_of(g).sync([&] {
      group_truth& t = c->truth(g);
      if (t.pending) {
        ++t.missed;
        t.pending = false;
      }
      for (const double ms : t.failover_ms) samples.converged(ms);
      for (std::uint64_t m = 0; m < t.missed; ++m) samples.missed();
      availability += t.agreed_s;
      kill_late_ms = std::max(kill_late_ms, t.kill_late_ms_max);
      changes += t.changes;
      unjustified += t.unjustified;
      for (std::size_t j = g * kGroupSize; j < (g + 1) * kGroupSize; ++j) {
        auto& inst = c->nodes()[j];
        const auto& s = inst.socket->stats();
        send_errors += s.send_errors();
        queue_drops += s.send_queue_drops;
        queue_hwm = std::max(queue_hwm, s.send_queue_hwm);
        if (!inst.svc) continue;
        ++live;
        unknown_group += inst.svc->stats().dropped_unknown_group;
        malformed += inst.svc->stats().malformed_received;
        monitors += static_cast<double>(inst.svc->failure_detector().monitor_count());
        members += static_cast<double>(inst.svc->members(gid(g)).size());
      }
    });
  }
  c.reset();

  // ---- end to end -------------------------------------------------------------
  const double node_s = window_s * static_cast<double>(kServices);
  const double sent = static_cast<double>(io.datagrams_sent);
  const double received = static_cast<double>(io.datagrams_received);
  report_failovers(rec, samples, kDeadlineS * 1e3);
  rec.set("leader_availability", availability / (static_cast<double>(kGroups) * window_s));
  rec.set("cpu_us_per_msg", median(chunk_per_msg));
  rec.set("cpu_us_per_node_s", median(chunk_per_node_s));
  rec.set("msgs_per_node_s", sent / node_s);
  rec.set("bytes_per_node_s",
          (static_cast<double>(io.bytes_sent) +
           static_cast<double>(net::wire_overhead_bytes) * sent) /
              node_s);

  // ---- per layer ----------------------------------------------------------------
  wire_tap tap(opts.seed);
  double rx_s = 0.0;
  double timer_s = 0.0;
  double tx_s = 0.0;
  std::uint64_t timer_calls = 0;
  std::uint64_t tx_calls = 0;
  std::array<double, 7> rx_kind_s{};
  std::array<std::uint64_t, 7> rx_kind_calls{};
  std::vector<double> late_us;
  for (const layer_times& t : times) {
    tap.merge(t.tap);
    for (std::size_t k = 0; k < 7; ++k) {
      rx_s += t.rx_s[k];
      rx_kind_s[k] += t.rx_s[k];
      rx_kind_calls[k] += t.rx_calls[k];
    }
    timer_s += t.timer_s;
    timer_calls += t.timer_calls;
    tx_s += t.tx_s;
    tx_calls += t.tx_calls;
    late_us.insert(late_us.end(), t.timer_late_us.begin(), t.timer_late_us.end());
  }
  for (const char* name : {"sim.ns_per_event", "sim.events_per_node_s", "sim.rx_share",
                           "adaptive.retunes_per_node_h", "obs.trace_events_per_node_s",
                           "obs.trace_dropped"}) {
    rec.set(name, 0.0);  // no simulator, continuous tuning, no trace sink
  }
  report_kind_rates(rec, tap, node_s);
  rec.set("net.drop_frac", sent > 0 ? std::max(0.0, sent - received) / sent : 0.0);
  rec.set("net.msgs_drift_frac", std::abs(half_drift(sent_per_chunk)));
  for (const auto& [label, kind] : kReportedKinds) {
    const auto k = static_cast<std::size_t>(kind);
    rec.set(std::string("service.rx_ns.") + label,
            ratio(rx_kind_s[k] * 1e9, static_cast<double>(rx_kind_calls[k])));
  }
  rec.set("service.timer_ns", ratio(timer_s * 1e9, static_cast<double>(timer_calls)));
  rec.set("service.tx_ns", ratio(tx_s * 1e9, static_cast<double>(tx_calls)));
  rec.set("service.dropped_unknown_group", static_cast<double>(unknown_group));
  rec.set("service.malformed", static_cast<double>(malformed));
  rec.set("fd.monitors_per_node", ratio(monitors, static_cast<double>(live)));
  rec.set("membership.members_per_group", ratio(members, static_cast<double>(live)));
  const double group_h = static_cast<double>(kGroups) * window_s / 3600.0;
  rec.set("election.leader_changes_per_group_h", static_cast<double>(changes) / group_h);
  rec.set("election.unjustified_demotions", static_cast<double>(unjustified));
  rec.set("election.mistakes_per_hour", static_cast<double>(unjustified) / group_h);

  rec.set("runtime.syscalls_per_msg",
          ratio(static_cast<double>(io.syscalls()), sent + received));
  rec.set("runtime.dgrams_per_sendmmsg",
          ratio(sent, static_cast<double>(io.sendmmsg_calls)));
  rec.set("runtime.dgrams_per_recvmmsg",
          ratio(received, static_cast<double>(io.recvmmsg_calls)));
  rec.set("runtime.iterations_per_s", static_cast<double>(io.iterations) / window_s);
  rec.set("runtime.loop_busy_frac", cpu_s / (window_s * static_cast<double>(kLoops)));
  rec.set("runtime.self_us_per_msg",
          opts.traced ? ratio((cpu_s - rx_s - timer_s) * 1e6, received) : 0.0);
  rec.set("runtime.timer_late_us_p50", nearest_rank(late_us, 0.5));
  rec.set("runtime.timer_late_us_p99", nearest_rank(late_us, 0.99));
  rec.set("runtime.send_errors", static_cast<double>(send_errors));
  rec.set("runtime.queue_drops", static_cast<double>(queue_drops));
  rec.set("runtime.queue_hwm", static_cast<double>(queue_hwm));
  rec.set("bench.kill_late_ms_max", kill_late_ms);
  rec.set("bench.settle_s", 0.0);
  if (opts.traced) tap.replay(rec);
  rec.set("peak_rss_mb", peak_rss_mb());
  return rec;
}

}  // namespace perfbench
