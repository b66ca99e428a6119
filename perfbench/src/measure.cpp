#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "net/shared_payload.hpp"

namespace perfbench {

namespace {

/// `s` as a JSON string literal, quotes included.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const std::vector<std::pair<std::string, double>>& kv) {
  std::string s = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(kv[i].first);
    s += ": ";
    s += json_number(kv[i].second);
  }
  return s + "}";
}

double timeval_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
}

/// Mean host nanoseconds of `op` over `n` items, repeating whole passes
/// until at least 20 ms (and three passes) have elapsed.
template <typename Op>
double time_per_item_ns(std::size_t n, Op&& op) {
  if (n == 0) return 0.0;
  std::size_t items = 0;
  std::size_t passes = 0;
  const auto start = host_clock::now();
  double elapsed = 0.0;
  while (passes < 3 || elapsed < 0.02) {
    for (std::size_t i = 0; i < n; ++i) op(i);
    items += n;
    ++passes;
    elapsed = seconds_since(start);
  }
  return elapsed * 1e9 / static_cast<double>(items);
}

}  // namespace

std::string record::json() const {
  std::string s = "{\"clock\": " + json_string(clock);
  s += ", \"main_cost_metric\": " + json_string(main_cost_metric);
  s += ", \"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": " + json_object(metrics);
  s += ", \"fingerprint\": " + json_object(fingerprint);
  s += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) s += ", ";
    s += json_string(errors[i]);
  }
  return s + "]}";
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double half_drift(const std::vector<std::pair<double, double>>& chunks) {
  std::array<std::pair<double, double>, 2> halves{};
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    auto& h = halves[2 * i < chunks.size() ? 0 : 1];
    h.first += chunks[i].first;
    h.second += chunks[i].second;
  }
  if (halves[0].first <= 0 || halves[0].second <= 0 || halves[1].second <= 0) {
    return 0.0;
  }
  return (halves[1].first / halves[1].second) /
             (halves[0].first / halves[0].second) -
         1.0;
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

// ---- failover accounting ---------------------------------------------------

std::size_t failover_samples::failed() const {
  return static_cast<std::size_t>(
      std::count(samples_.begin(), samples_.end(), kMissed));
}

double failover_samples::percentile(double p, double deadline_ms) const {
  const double v = nearest_rank(samples_, p);
  return v == kMissed ? deadline_ms : v;
}

std::size_t failover_samples::beyond(double p) const {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples_.size())));
  return samples_.size() - std::min(rank, samples_.size());
}

void report_failovers(record& rec, const failover_samples& s,
                      double deadline_ms) {
  rec.attempted += s.attempted();
  rec.failed += s.failed();
  const double p50 = s.percentile(0.5, deadline_ms);
  const double p90 = s.percentile(0.9, deadline_ms);
  rec.set("failover_ms_p50", p50);
  rec.set("failover_ms_p90", p90);
  const double failed_frac =
      s.attempted() > 0 ? static_cast<double>(s.failed()) /
                              static_cast<double>(s.attempted())
                        : 0.0;
  rec.set("bench.failover_failed_frac", failed_frac);
  rec.set("bench.failover_samples", static_cast<double>(s.attempted()));
  rec.set("bench.failover_p90_beyond", static_cast<double>(s.beyond(0.9)));
  if (s.beyond(0.9) < 10) {
    rec.fail("failover p90 rests on " + std::to_string(s.beyond(0.9)) +
             " samples beyond it (need 10)");
  }
}

// ---- wire tap ----------------------------------------------------------------

void wire_tap::observe(std::span<const std::byte> payload,
                       std::uint64_t copies) {
  const auto kind = omega::proto::peek_kind(payload);
  const std::size_t k = kind ? static_cast<std::size_t>(*kind) : 0;
  counts_[k] += copies;
  using omega::proto::msg_kind;
  if (k == 0 || (*kind != msg_kind::alive && *kind != msg_kind::hello &&
                 *kind != msg_kind::hello_ack)) {
    return;
  }
  // Reservoir sampling over distinct send calls: every call has the same
  // chance of being in the replay sample, whatever its fan-out.
  auto& pool = samples_[k];
  const std::uint64_t n = ++seen_[k];
  if (pool.size() < kReservoir) {
    pool.emplace_back(payload.begin(), payload.end());
  } else if (const std::uint64_t slot = rng_() % n; slot < kReservoir) {
    pool[slot].assign(payload.begin(), payload.end());
  }
}

void wire_tap::merge(const wire_tap& other) {
  for (std::size_t k = 0; k < kKinds; ++k) {
    counts_[k] += other.counts_[k];
    seen_[k] += other.seen_[k];
    for (const auto& s : other.samples_[k]) {
      if (samples_[k].size() >= kReservoir) break;
      samples_[k].push_back(s);
    }
  }
}

void wire_tap::replay(record& rec) const {
  using omega::proto::msg_kind;
  const std::pair<const char*, msg_kind> kinds[] = {
      {"alive", msg_kind::alive},
      {"hello", msg_kind::hello},
      {"hello_ack", msg_kind::hello_ack}};
  for (const auto& [label, kind] : kinds) {
    const auto& sample = samples_[static_cast<std::size_t>(kind)];
    double bytes = 0.0;
    for (const auto& d : sample) bytes += static_cast<double>(d.size());
    if (!sample.empty()) bytes /= static_cast<double>(sample.size());

    omega::proto::wire_message scratch;
    bool decoded_all = true;
    const double decode_ns = time_per_item_ns(sample.size(), [&](std::size_t i) {
      decoded_all = omega::proto::decode_into(scratch, sample[i]) && decoded_all;
    });
    if (!decoded_all) rec.fail(std::string("replay: undecodable ") + label);

    std::vector<std::pair<omega::proto::wire_message, omega::cause_id>> msgs;
    for (const auto& d : sample) {
      omega::cause_id cause;
      if (auto m = omega::proto::decode(d, &cause)) msgs.emplace_back(*m, cause);
    }
    omega::net::payload_pool pool;
    bool identical = true;
    const double encode_ns = time_per_item_ns(msgs.size(), [&](std::size_t i) {
      const auto out =
          omega::proto::encode_shared(msgs[i].first, pool, msgs[i].second);
      identical = identical && out.size() > 0;
    });
    // Round trip check on the sample: re-encoding a decoded datagram must
    // give back its exact bytes.
    for (std::size_t i = 0; i < msgs.size() && i < sample.size(); ++i) {
      const auto again = omega::proto::encode(msgs[i].first, msgs[i].second);
      if (again.size() != sample[i].size() ||
          !std::equal(again.begin(), again.end(), sample[i].begin())) {
        identical = false;
      }
    }
    if (!identical) rec.fail(std::string("replay: re-encode differs for ") + label);

    rec.set(std::string("proto.decode_ns.") + label, decode_ns);
    rec.set(std::string("proto.encode_ns.") + label, encode_ns);
    rec.set(std::string("proto.bytes.") + label, bytes);
  }
}

void report_kind_rates(record& rec, const wire_tap& tap, double node_seconds) {
  for (const auto& [label, kind] : kReportedKinds) {
    rec.set(std::string("net.") + label + "_per_node_s",
            node_seconds > 0 ? static_cast<double>(tap.count(kind)) / node_seconds
                             : 0.0);
  }
}

}  // namespace perfbench
