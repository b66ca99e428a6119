// Measurement plumbing shared by the benchmark's workloads: the result
// record run.py reads, host clocks, failover percentiles, and
// the wire-sample replay that prices the proto layer.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "proto/wire.hpp"

namespace perfbench {

/// Everything one workload run produced. `metrics` carries every end-to-end
/// and per-layer value by name; `fingerprint` holds the virtual-time
/// results that must repeat exactly between a traced and an untraced run
/// of one seed (sim workloads only).
struct record {
  /// "virtual" (simulator) or "wall" (real sockets): whether `fingerprint`
  /// must repeat between a traced and an untraced run of one seed.
  std::string clock;
  /// The host-cost metric whose traced/untraced ratio prices the tracing.
  std::string main_cost_metric;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, double>> fingerprint;
  std::vector<std::string> errors;

  void set(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void pin(std::string name, double value) {
    fingerprint.emplace_back(std::move(name), value);
  }
  void fail(std::string why) {
    correct = false;
    errors.push_back(std::move(why));
  }
  /// One JSON object on one line.
  [[nodiscard]] std::string json() const;
};

/// What the command line asked for.
struct run_options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

// ---- host clocks -----------------------------------------------------------

using host_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(host_clock::time_point from) {
  return std::chrono::duration<double>(host_clock::now() - from).count();
}

/// Process CPU time (user + system, every thread) in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);
/// Relative change of a rate between the first and the second half of a
/// window cut into chunks of (count, seconds): 0 for a flat rate, -0.05
/// when the second half runs 5% below the first.
[[nodiscard]] double half_drift(const std::vector<std::pair<double, double>>& chunks);
/// Nearest-rank `p` percentile (0 for no values).
[[nodiscard]] double nearest_rank(std::vector<double> values, double p);

// ---- failover accounting ---------------------------------------------------

/// Failover latencies of one run. A kill whose group never re-agreed within
/// its deadline is a failure: it is kept as +infinity, so it misses every
/// latency limit and pushes the percentiles up instead of vanishing.
class failover_samples {
 public:
  void converged(double ms) { samples_.push_back(ms); }
  void missed() { samples_.push_back(kMissed); }
  [[nodiscard]] std::size_t attempted() const { return samples_.size(); }
  [[nodiscard]] std::size_t failed() const;
  /// Nearest-rank percentile; a failed kill in that rank reads as
  /// `deadline_ms`. 0 when nothing was attempted.
  [[nodiscard]] double percentile(double p, double deadline_ms) const;
  /// Samples beyond the nearest-rank `p` percentile (the p90 needs ten).
  [[nodiscard]] std::size_t beyond(double p) const;

 private:
  static constexpr double kMissed = 1e300;
  std::vector<double> samples_;
};

/// Adds the failover trio to `rec` (p50, p90, failed fraction, sample
/// counts) and flags a p90 that rests on fewer than ten samples.
void report_failovers(record& rec, const failover_samples& s, double deadline_ms);

// ---- wire tap: per-kind counts and a replay sample -------------------------

/// Counts every datagram by wire kind and keeps a bounded, seeded reservoir
/// of the ALIVE / HELLO / HELLO_ACK datagrams, which `replay` later decodes
/// and re-encodes under a stopwatch. Feed it from a send tap.
class wire_tap {
 public:
  explicit wire_tap(std::uint64_t seed) : rng_(seed) {}
  void observe(std::span<const std::byte> payload, std::uint64_t copies = 1);
  [[nodiscard]] std::uint64_t count(omega::proto::msg_kind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// Takes another tap's counts and samples (the live workload keeps one
  /// tap per event loop).
  void merge(const wire_tap& other);
  void reset_counts() { counts_.fill(0); }
  /// Times decode_into and encode_shared over the reservoirs and adds
  /// proto.decode_ns.*, proto.encode_ns.* and proto.bytes.* to `rec`.
  void replay(record& rec) const;

 private:
  static constexpr std::size_t kReservoir = 256;
  static constexpr std::size_t kKinds = 7;
  std::array<std::uint64_t, kKinds> counts_{};
  std::array<std::vector<std::vector<std::byte>>, kKinds> samples_;
  std::array<std::uint64_t, kKinds> seen_{};
  std::mt19937_64 rng_;
};

/// Adds net.<kind>_per_node_s for the five kinds the layer map names.
void report_kind_rates(record& rec, const wire_tap& tap, double node_seconds);

/// Names of the per-kind metrics, in report order (label, wire kind).
inline constexpr std::array<std::pair<const char*, omega::proto::msg_kind>, 5>
    kReportedKinds = {{{"alive", omega::proto::msg_kind::alive},
                       {"hello", omega::proto::msg_kind::hello},
                       {"hello_ack", omega::proto::msg_kind::hello_ack},
                       {"accuse", omega::proto::msg_kind::accuse},
                       {"rate_request", omega::proto::msg_kind::rate_request}}};

// ---- workloads -------------------------------------------------------------

record run_sim_steady_300(const run_options& opts);
record run_sim_churn_120(const run_options& opts);
record run_live_udp_256(const run_options& opts);

}  // namespace perfbench
