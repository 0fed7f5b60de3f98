// Shared machinery of the repo benchmark: run configuration, clocks and
// order statistics, the oracle verdict, in-memory tracing spans, and the
// executor helpers every workload drives its reads through.
//
// The benchmark reaches the library only through its public surface
// (api registries and index interfaces, serve::executor, serve::route_cache,
// fault::injector / repair_to_quiescence, api snapshots); spans are recorded
// here, around those calls, never inside the library.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/network.h"
#include "serve/executor.h"

namespace perfbench {

namespace api = skipweb::api;
namespace serve = skipweb::serve;

// --- run configuration -------------------------------------------------------

struct run_config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;      // sizes the measured phase's fixed op count
  bool trace = false;       // traced run: spans + per-layer metrics
  bool tiny = false;        // test size: small n, few rounds
  std::size_t threads = 1;  // executor workers, min(4, available CPUs)
  std::string trace_dir;    // where the span file is written (traced runs)
};

// The measured phase runs a fixed number of rounds, so two commits do
// identical work; `nominal_ops_per_s` (a constant per workload) converts the
// requested seconds into that count.
inline std::size_t measured_rounds(const run_config& cfg, double nominal_ops_per_s,
                                   std::size_t ops_per_round) {
  if (cfg.tiny) return 3;
  const double r = cfg.seconds * nominal_ops_per_s / static_cast<double>(ops_per_round);
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(r)));
}

// Whether round r of `total` is one of `count` rounds spread evenly over the
// run. Single-client rounds and the extra set-ups are placed this way among
// the multi-worker rounds, so every metric samples the whole run: a shared
// host's speed drifts over seconds, and a phase confined to one stretch of
// the run would inherit that stretch's speed.
inline bool spread_round(std::size_t r, std::size_t count, std::size_t total) {
  return (r * count) / total != ((r + 1) * count) / total;
}

// setup_s is the median of this many set-ups per run: the served one, and
// the rest spread over the run and discarded.
inline constexpr int setup_reps = 5;

// Seed of the `which`-th independent input stream of a run.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t which) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + (which + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 31)) * 0x94d049bb133111ebull;
  return z ^ (z >> 29);
}

// --- clocks and statistics ---------------------------------------------------

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? static_cast<double>(v[m])
                      : (static_cast<double>(v[m - 1]) + static_cast<double>(v[m])) / 2.0;
}

inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// Timings on a shared host: other tenants slow this process down for
// stretches of seconds (by up to ~2x on a busy host), and they only ever add
// time. So p50s and throughput are computed per time-local chunk, with
// chunks spread over the whole run, and the reported value is the chunk
// value a tenth of the chunks beat: the lower decile of chunk times, the
// upper decile of chunk rates. It tracks the program's own speed and stays
// put as long as a tenth of a run ran unimpeded; a change that slows the
// code slows every chunk. A p99 cannot be chunked that way: the tail is set
// by the rare expensive ops, and a chunk holds too few of them to estimate
// it. Nor can it be taken over the whole sample: one slow stretch lifts a
// whole round's ops into the tail. So a p99 is the p50 above times the p99
// of every op's latency relative to its time neighbours' median, pooled over
// the run (round_p99).
inline constexpr double fast_share = 0.1;

// Calls fn(round) with each non-empty single-client round of `v`; `ends`
// holds each round's end offset into `v`.
template <typename Fn>
void for_rounds(const std::vector<double>& v, const std::vector<std::size_t>& ends, Fn&& fn) {
  std::size_t lo = 0;
  for (const std::size_t hi : ends) {
    if (hi > lo) {
      fn(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                             v.begin() + static_cast<std::ptrdiff_t>(hi)));
    }
    lo = hi;
  }
}

// Latency p50 of a single-client sample: per single-client round (a short,
// time-local chunk), lower decile of the per-round medians.
inline double round_p50(const std::vector<double>& v, const std::vector<std::size_t>& ends) {
  std::vector<double> per;
  for_rounds(v, ends, [&](const std::vector<double>& round) {
    per.push_back(quantile(round, 0.5));
  });
  return quantile(per, fast_share);
}

// Latency p99 of a single-client sample: round_p50 times the p99, pooled
// over the run, of each op's latency divided by the median of its neighbours
// in its round: the ops within about p99_window_ns of it (by the round's
// median op time), at least two either side. A slow stretch of the host
// scales an op and its neighbours alike, so it leaves the ratio alone; a
// change that slows the rare expensive ops moves the ratio, one that slows
// every op moves the p50.
inline constexpr double p99_window_ns = 500e3;
inline double round_p99(const std::vector<double>& v, const std::vector<std::size_t>& ends) {
  std::vector<double> rel, near;
  rel.reserve(v.size());
  for_rounds(v, ends, [&](const std::vector<double>& round) {
    const double med = std::max(quantile(round, 0.5), 1.0);
    const auto reach = std::max<std::size_t>(2, static_cast<std::size_t>(p99_window_ns / med));
    for (std::size_t i = 0; i < round.size(); ++i) {
      const std::size_t lo = i - std::min(i, reach), hi = std::min(round.size(), i + reach + 1);
      near.assign(round.begin() + static_cast<std::ptrdiff_t>(lo),
                  round.begin() + static_cast<std::ptrdiff_t>(hi));
      const auto mid = near.begin() + static_cast<std::ptrdiff_t>((near.size() - 1) / 2);
      std::nth_element(near.begin(), mid, near.end());  // quantile(near, 0.5)
      rel.push_back(round[i] / std::max(*mid, 1.0));
    }
  });
  return round_p50(v, ends) * quantile(rel, 0.99);
}

// Throughput of the measured phase: its rounds cut into (up to) twenty
// contiguous segments, upper decile of the segments' ops/s. Segments hold
// whole periods of `period` rounds, so a maintenance step that recurs once a
// period (oned-hot-churn's kill burst and repair) lands in every segment in
// proportion to its rounds; the round count is a multiple of `period`.
inline double segmented_rate(const std::vector<double>& round_s, std::uint64_t ops_per_round,
                             std::size_t period) {
  const std::size_t periods = round_s.size() / period;
  const std::size_t k = std::min<std::size_t>(20, periods);
  std::vector<double> rates;
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t lo = period * (periods * c / k), hi = period * (periods * (c + 1) / k);
    double s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += round_s[i];
    rates.push_back(ratio(static_cast<double>((hi - lo) * ops_per_round), s));
  }
  return quantile(rates, 1.0 - fast_share);
}

// FNV-1a over raw bytes: the input digest the determinism test compares.
class digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  template <typename T>
  void add_pod(const T& v) {
    add(&v, sizeof(v));
  }
  void add_str(const std::string& s) {
    add(s.data(), s.size());
    add_pod(s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- oracle verdict ----------------------------------------------------------

// Counts sampled answers checked against brute force and the mismatches; the
// first few mismatches are printed to stderr with the run's seed.
class verdict {
 public:
  void expect(bool ok, const char* what, std::uint64_t seed) {
    ++checked_;
    if (ok) return;
    if (++mismatches_ <= 5) {
      std::fprintf(stderr, "oracle mismatch: %s (seed %llu)\n", what,
                   static_cast<unsigned long long>(seed));
    }
  }
  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

// --- tracing -----------------------------------------------------------------

// One span: a timed call into one layer. `name` is "<layer>.<call>"; spans of
// one request share `request`; `parent` is 0 for a request's root span.
struct span_record {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::uint64_t ops = 1;  // operations the call covered (batches cover many)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// A span id is its thread's buffer index above span_thread_shift bits of a
// per-thread count.
inline constexpr int span_thread_shift = 40;
inline std::uint64_t span_thread(std::uint64_t id) { return id >> span_thread_shift; }

// Process-wide span store. Each thread appends to its own buffer, so workers
// record without locking; buffers are read only after every job has ended.
class tracer {
 public:
  static tracer& get() {
    static tracer t;
    return t;
  }
  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  struct open_span {
    std::uint64_t id;
    std::uint64_t request;
  };
  struct thread_buffer {
    std::uint64_t index = 0;
    std::uint64_t next_local = 0;
    std::vector<span_record> spans;
    std::vector<open_span> stack;
  };

  thread_buffer& local() {
    thread_local thread_buffer* buf = nullptr;
    if (buf == nullptr) {
      std::scoped_lock lk(mu_);
      buffers_.push_back(std::make_unique<thread_buffer>());
      buf = buffers_.back().get();
      buf->index = buffers_.size();
    }
    return *buf;
  }
  std::uint64_t new_request() { return requests_.fetch_add(1, std::memory_order_relaxed) + 1; }

  // Every recorded span, after all recording threads are quiescent.
  [[nodiscard]] std::vector<span_record> collect() const {
    std::scoped_lock lk(mu_);
    std::vector<span_record> out;
    for (const auto& b : buffers_) out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
  }

 private:
  bool on_ = false;
  std::atomic<std::uint64_t> requests_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<thread_buffer>> buffers_;
};

// RAII span. With tracing off the constructor is one branch and nothing is
// recorded. By default the parent is the innermost open span of the calling
// thread; spans opened on executor workers name their parent explicitly.
class span {
 public:
  explicit span(const char* name, std::uint64_t ops = 1) {
    if (!tracer::get().on()) return;
    auto& b = tracer::get().local();
    const bool nested = !b.stack.empty();
    open(b, name, ops, nested ? b.stack.back().id : 0,
         nested ? b.stack.back().request : tracer::get().new_request());
  }
  span(const char* name, std::uint64_t ops, std::uint64_t parent, std::uint64_t request) {
    if (!tracer::get().on()) return;
    open(tracer::get().local(), name, ops, parent, request);
  }
  ~span() {
    if (buf_ == nullptr) return;
    rec_.end_ns = now_ns();
    buf_->stack.pop_back();
    buf_->spans.push_back(rec_);
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }
  [[nodiscard]] std::uint64_t request() const { return rec_.request; }

 private:
  void open(tracer::thread_buffer& b, const char* name, std::uint64_t ops, std::uint64_t parent,
            std::uint64_t request) {
    buf_ = &b;
    rec_.id = (b.index << span_thread_shift) | ++b.next_local;
    rec_.parent = parent;
    rec_.request = request;
    rec_.name = name;
    rec_.ops = ops;
    b.stack.push_back({rec_.id, request});
    rec_.start_ns = now_ns();
  }

  tracer::thread_buffer* buf_ = nullptr;
  span_record rec_;
};

// --- executor helpers --------------------------------------------------------

// Runs fn(lo, hi) over the executor's static partition of [0, n). Traced, the
// job gets a "serve.job" span and each worker's slice a "serve.slice" child,
// which is what the dispatch and imbalance metrics are computed from.
// Exceptions thrown by fn are caught on the worker and counted in `threw`.
template <typename Fn>
void run_slices(serve::executor& ex, std::size_t n, std::atomic<std::uint64_t>& threw, Fn&& fn) {
  span job("serve.job", n);
  const std::uint64_t parent = job.id(), request = job.request();
  ex.for_slices(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    span slice("serve.slice", hi - lo, parent, request);
    try {
      fn(lo, hi);
    } catch (...) {
      threw.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

// Traced runs hand the typed executor entry points (run_nearest, run_locate,
// run_contains) a view of the index instead of the index itself. The view
// forwards every call and records a span around each batch the executor
// passes it, parented to the caller's "serve.job" span. So the job, its
// batches and each worker's slice (from its first batch's start to its last
// batch's end) are timed on the library's own serving path.
struct job_link {
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

[[noreturn]] inline void read_only_view() {
  throw std::logic_error("perfbench: traced views serve queries only");
}

class traced_nearest final : public api::distributed_index {
 public:
  traced_nearest(const api::distributed_index& in, job_link job) : in_(in), job_(job) {}
  std::vector<api::nn_result> nearest_batch(const std::vector<std::uint64_t>& qs,
                                            skipweb::net::host_id origin) const override {
    span s("core.nearest_batch", qs.size(), job_.parent, job_.request);
    return in_.nearest_batch(qs, origin);
  }
  std::string_view backend() const override { return in_.backend(); }
  std::size_t size() const override { return in_.size(); }
  api::capability capabilities() const override { return in_.capabilities(); }
  api::nn_result nearest(std::uint64_t q, skipweb::net::host_id origin) const override {
    return in_.nearest(q, origin);
  }
  api::op_stats insert(std::uint64_t, skipweb::net::host_id) override { read_only_view(); }
  api::op_stats erase(std::uint64_t, skipweb::net::host_id) override { read_only_view(); }

 private:
  const api::distributed_index& in_;
  job_link job_;
};

class traced_contains final : public api::string_index {
 public:
  traced_contains(const api::string_index& in, job_link job) : in_(in), job_(job) {}
  std::vector<api::op_result<bool>> contains_batch(const std::vector<std::string>& qs,
                                                   skipweb::net::host_id origin) const override {
    span s("core.contains_batch", qs.size(), job_.parent, job_.request);
    return in_.contains_batch(qs, origin);
  }
  std::string_view backend() const override { return in_.backend(); }
  std::size_t size() const override { return in_.size(); }
  api::string_capability capabilities() const override { return in_.capabilities(); }
  api::op_result<bool> contains(const std::string& q, skipweb::net::host_id origin) const override {
    return in_.contains(q, origin);
  }
  api::op_stats insert(const std::string&, skipweb::net::host_id) override { read_only_view(); }
  api::op_stats erase(const std::string&, skipweb::net::host_id) override { read_only_view(); }
  api::op_result<std::vector<std::string>> prefix_match(const std::string& p,
                                                        skipweb::net::host_id origin,
                                                        std::size_t limit) const override {
    return in_.prefix_match(p, origin, limit);
  }
  api::op_result<std::uint64_t> prefix_count(const std::string& p,
                                             skipweb::net::host_id origin) const override {
    return in_.prefix_count(p, origin);
  }
  api::op_result<std::vector<std::string>> lex_range(const std::string& lo, const std::string& hi,
                                                     skipweb::net::host_id origin,
                                                     std::size_t limit) const override {
    return in_.lex_range(lo, hi, origin, limit);
  }
  api::op_result<std::vector<std::string>> intersect(const std::vector<std::string>& terms,
                                                     skipweb::net::host_id origin,
                                                     std::size_t limit) const override {
    return in_.intersect(terms, origin, limit);
  }

 private:
  const api::string_index& in_;
  job_link job_;
};

class traced_locate final : public api::spatial_index {
 public:
  traced_locate(const api::spatial_index& in, job_link job) : in_(in), job_(job) {}
  std::vector<api::spatial_locate_result> locate_batch(
      const std::vector<api::spatial_point>& qs, skipweb::net::host_id origin) const override {
    span s("core.locate_batch", qs.size(), job_.parent, job_.request);
    return in_.locate_batch(qs, origin);
  }
  std::string_view backend() const override { return in_.backend(); }
  int dims() const override { return in_.dims(); }
  std::size_t size() const override { return in_.size(); }
  api::spatial_capability capabilities() const override { return in_.capabilities(); }
  api::spatial_locate_result locate(const api::spatial_point& q,
                                    skipweb::net::host_id origin) const override {
    return in_.locate(q, origin);
  }
  api::op_stats insert(const api::spatial_point&, skipweb::net::host_id) override {
    read_only_view();
  }
  api::op_stats erase(const api::spatial_point&, skipweb::net::host_id) override {
    read_only_view();
  }
  api::op_result<std::vector<api::spatial_point>> orthogonal_range(
      const api::spatial_box& b, skipweb::net::host_id origin, std::size_t limit) const override {
    return in_.orthogonal_range(b, origin, limit);
  }

 private:
  const api::spatial_index& in_;
  job_link job_;
};

// Serves one job through a typed executor entry point: `typed(index)` with
// the index itself, or, traced, with a View of it (above) under a
// "serve.job" span.
template <typename View, typename Index, typename Typed>
auto serve_typed(const Index& idx, std::size_t n, Typed&& typed) {
  if (!tracer::get().on()) return typed(idx);
  span job("serve.job", n);
  const View view(idx, {job.id(), job.request()});
  return typed(static_cast<const Index&>(view));
}

// --- results -----------------------------------------------------------------

// What one workload run measured; main() turns it into the printed metrics.
struct run_result {
  std::size_t n = 0;            // keys (points, strings) after setup
  std::vector<double> setup_s;  // one entry per set-up in the run
  double bytes_per_key = 0;     // footprint after setup / n
  // Single-client phase: one caller, one public call at a time. The *_ends
  // hold the sample counts at the end of each single-client round. Per
  // round also: the busiest host's visits from the round's reads, and those
  // visits per read.
  std::vector<double> read_ns, write_ns;
  std::vector<std::size_t> read_ends, write_ends;
  api::op_stats read_stats, write_stats;
  std::vector<double> busiest_visits, congestion;
  std::vector<std::uint64_t> read_sim_ns;
  // Multi-worker measured phase: timed seconds of each round, all rounds
  // carrying the same number of ops.
  std::vector<double> round_s;
  std::uint64_t ops_per_round = 0;
  std::size_t round_period = 1;  // segmented_rate's period
  // Every op of the run (both phases): attempted, and failed = receipt
  // failed/timed_out, threw, or disagreed with the oracle.
  std::uint64_t attempted = 0, failed = 0;
  verdict oracle;
  std::uint64_t inputs_digest = 0;
  // Per-layer metrics measured directly (counts, direct timers); the
  // span-derived ones are added by main() in traced runs.
  std::map<std::string, double> layer;
  std::vector<std::string> layer_table;  // printed table rows (traced runs)

  void count_op(const api::op_stats& s) {
    ++attempted;
    if (s.failed || s.timed_out) ++failed;
  }
  void add_read(const api::op_stats& s, std::uint64_t ns) {
    read_ns.push_back(static_cast<double>(ns));
    read_stats += s;
    read_sim_ns.push_back(s.sim_latency_ns);
    count_op(s);
  }
  // Closes a single-client round's reads; the network's traffic was reset
  // before them, so its busiest host gives the round's congestion.
  void end_round_reads(const skipweb::net::network& net) {
    const std::size_t reads = read_ns.size() - (read_ends.empty() ? 0 : read_ends.back());
    read_ends.push_back(read_ns.size());
    const auto busiest = static_cast<double>(net.max_visits());
    busiest_visits.push_back(busiest);
    congestion.push_back(busiest / static_cast<double>(std::max<std::size_t>(reads, 1)));
  }
  void end_round_writes() { write_ends.push_back(write_ns.size()); }
  void fail(const char* what, std::uint64_t seed) {
    ++attempted;
    ++failed;
    oracle.expect(false, what, seed);
  }
  // Footprint after setup: bytes_per_key and the api.bytes.* split.
  void record_footprint(const api::memory_footprint& fp) {
    const double keys = static_cast<double>(n);
    bytes_per_key = static_cast<double>(fp.total_bytes()) / keys;
    layer["api.bytes.arena_per_key"] = static_cast<double>(fp.arena_bytes) / keys;
    layer["api.bytes.links_per_key"] = static_cast<double>(fp.link_bytes) / keys;
    layer["api.bytes.directory_per_key"] = static_cast<double>(fp.directory_bytes) / keys;
    layer["api.bytes.slack_per_key"] = static_cast<double>(fp.slack_bytes) / keys;
  }
  void add_write(const api::op_stats& s, std::uint64_t ns) {
    write_ns.push_back(static_cast<double>(ns));
    write_stats += s;
    count_op(s);
  }
};

// Sums the timed sections of the measured phase; oracle checks and input
// generation run between sections and are excluded.
class section_clock {
 public:
  template <typename Fn>
  auto timed(Fn&& fn) {
    const std::uint64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      total_ += now_ns() - t0;
    } else {
      auto r = fn();
      total_ += now_ns() - t0;
      return r;
    }
  }
  void add(std::uint64_t ns) { total_ += ns; }
  [[nodiscard]] double seconds() const { return static_cast<double>(total_) * 1e-9; }

 private:
  std::uint64_t total_ = 0;
};

// Times one single-writer update `fn()`, which returns its receipt, under a
// "core.insert" or "core.erase" span. With no clock it is a single-client
// write and joins the latency sample; otherwise its time adds to the
// measured round's clock. Returns false, the op counted failed, if it threw.
template <typename Fn>
bool timed_write(run_result& res, section_clock* clk, bool insert, std::uint64_t seed, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  try {
    api::op_stats s;
    {
      span sp(insert ? "core.insert" : "core.erase");
      s = fn();
    }
    const std::uint64_t ns = now_ns() - t0;
    if (clk == nullptr) {
      res.add_write(s, ns);
    } else {
      res.count_op(s);
      clk->add(ns);
    }
    return true;
  } catch (const std::exception&) {
    res.fail(insert ? "insert threw" : "erase threw", seed);
    return false;
  }
}

// Runs rounds [0, rounds): setup_reps - 1 extra timed set-ups and `single`
// rounds of `single_round(r)` spread over the run (spread_round), every other
// round `measured_round(r, clk, threw)`.
template <typename Setup, typename Single, typename Measured>
void serve_rounds(const run_config& cfg, run_result& res, std::size_t rounds, std::size_t single,
                  Setup&& setup, Single&& single_round, Measured&& measured_round) {
  section_clock clk;
  std::atomic<std::uint64_t> threw{0};
  for (std::size_t r = 0; r < rounds; ++r) {
    if (!cfg.trace && spread_round(r, setup_reps - 1, rounds)) (void)setup();
    if (spread_round(r, single, rounds)) {
      single_round(r);
    } else {
      measured_round(r, clk, threw);
    }
  }
  // A slice that threw stopped early; its answers were already counted as
  // attempted. Each throw counts as a failed op and marks the run incorrect.
  res.failed += threw.load();
  res.oracle.expect(threw.load() == 0, "served read threw", cfg.seed);
}

// Times `fn` `reps` times and returns the median wall seconds.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(s);
}

inline volatile std::uint64_t g_sink = 0;  // keeps timed loops' results observable

// Passes per layer-table and speedup timing; the median pass is reported.
inline constexpr int layer_reps = 5;

// The executor's default batch argument (see executor.h). The layer table's
// bare row calls the batch router directly in groups of this size, so the
// executor row adds the executor's dispatch cost alone.
inline constexpr std::size_t batch_width = 24;

// Median seconds of one pass of `batch(group)` over `stream` in groups of
// batch_width, on the calling thread: the direct-call baseline the layer
// table's executor row is compared against.
template <typename Query, typename Batch>
double direct_batched_seconds(const std::vector<Query>& stream, Batch&& batch) {
  std::vector<Query> group;
  std::uint64_t sink = 0;
  const double s = median_seconds(layer_reps, [&] {
    for (std::size_t base = 0; base < stream.size(); base += batch_width) {
      group.assign(stream.begin() + static_cast<std::ptrdiff_t>(base),
                   stream.begin() +
                       static_cast<std::ptrdiff_t>(std::min(base + batch_width, stream.size())));
      for (const auto& r : batch(group)) sink += r.stats.messages;
    }
  });
  g_sink = sink;
  return s;
}

// Adds one "layer." row to the per-layer metrics and the printed table: the
// plane's cumulative ns/read and its delta over the previous row.
inline void layer_row(run_result& res, const char* metric, const char* plane, double ns,
                      double& prev_ns) {
  const bool bare = prev_ns < 0;
  res.layer[metric] = bare ? ns : ns - prev_ns;
  char line[160];
  std::snprintf(line, sizeof line, "  %-18s %10.1f ns/read  %+10.1f", plane, ns,
                bare ? 0.0 : ns - prev_ns);
  res.layer_table.emplace_back(line);
  prev_ns = ns;
}

// `count` single-writer updates, alternately an insert (even j) and an
// erase: pick(ins) chooses the key, apply(key, ins) performs the update and
// returns its receipt, follow(key, ins) updates the oracle once the update
// went through. clk == nullptr: single-client writes (see timed_write).
template <typename Pick, typename Apply, typename Follow>
void write_mix(run_result& res, section_clock* clk, std::size_t count, std::uint64_t seed,
               Pick&& pick, Apply&& apply, Follow&& follow) {
  for (std::size_t j = 0; j < count; ++j) {
    const bool ins = j % 2 == 0;
    const auto key = pick(ins);
    if (timed_write(res, clk, ins, seed, [&] { return apply(key, ins); })) follow(key, ins);
  }
}

// --- mixed workloads -----------------------------------------------------------

// The rounds text-mixed and spatial-mixed share: reads of several kinds, one
// kind served through a typed executor entry point and the rest through
// for_slices, then single-writer updates. The workload W (a friend) supplies
//   sh_                     its shape: single_rounds, writes_per_round,
//                           nominal_ops_per_s, ops_per_round()
//   generate(), setup(), timed_setup(), network()
//   round_reads(r)          round r's read ops (W::read_op)
//   is_typed(op), typed_query(op)   the typed kind and its W::query
//   W::run_typed(ex, idx, qs)       the typed entry point, per-query results
//   W::batch(idx, group)    the batch router that entry point drives
//   typed_index(), W::view  the index it serves and its traced view
//   typed_answer(result)    a typed result as a W::answer
//   execute(op)             one public call under a span, as a W::answer
//   check(op, answer)       the oracle; check_stride(op): one in this many
//                           measured answers of op's kind is checked
//   write_key(ins), apply_write(key, ins), follow_write(key, ins)
//   layer_stream()          the typed queries of the speedup and layer rows
template <typename W>
class mixed_workload {
 public:
  mixed_workload(const run_config& cfg, run_result& res)
      : cfg_(cfg), res_(res), ex_(cfg.threads) {}

  void run() {
    auto& w = self();
    rounds_ = w.sh_.single_rounds +
              measured_rounds(cfg_, w.sh_.nominal_ops_per_s, w.sh_.ops_per_round());
    w.generate();
    w.setup();
    serve_rounds(
        cfg_, res_, rounds_, w.sh_.single_rounds, [&] { return w.timed_setup(); },
        [&](std::size_t r) { single_round(r); },
        [&](std::size_t r, section_clock& clk, std::atomic<std::uint64_t>& threw) {
          measured_round(r, clk, threw);
        });
    res_.layer["workloads.gen_s"] = static_cast<double>(gen_ns_) * 1e-9;
    res_.inputs_digest = digest_.value();
    if (cfg_.trace) speedup_and_layers();
  }

 protected:
  const run_config& cfg_;
  run_result& res_;
  serve::executor ex_;
  digest digest_;
  std::uint64_t gen_ns_ = 0;
  std::size_t rounds_ = 0;

 private:
  W& self() { return static_cast<W&>(*this); }

  void writes(section_clock* clk) {
    auto& w = self();
    write_mix(
        res_, clk, w.sh_.writes_per_round, cfg_.seed, [&](bool ins) { return w.write_key(ins); },
        [&](const auto& key, bool ins) { return w.apply_write(key, ins); },
        [&](const auto& key, bool ins) { w.follow_write(key, ins); });
  }

  // One caller, one call at a time; only its reads count toward congestion.
  void single_round(std::size_t r) {
    auto& w = self();
    const auto ops = w.round_reads(r);
    auto& n = w.network();
    n.reset_traffic();
    for (const auto& o : ops) {
      try {
        const std::uint64_t t0 = now_ns();
        auto a = w.execute(o);
        res_.add_read(a.stats, now_ns() - t0);
        w.check(o, std::move(a));
      } catch (const std::exception&) {
        res_.fail("read threw", cfg_.seed);
      }
    }
    res_.end_round_reads(n);
    writes(nullptr);
    res_.end_round_writes();
  }

  void measured_round(std::size_t r, section_clock& clk, std::atomic<std::uint64_t>& threw) {
    auto& w = self();
    const double before = clk.seconds();
    const auto ops = w.round_reads(r);
    std::vector<const typename W::read_op*> typed, rest;
    std::vector<typename W::query> qs;
    for (const auto& o : ops) {
      if (w.is_typed(o)) {
        typed.push_back(&o);
        qs.push_back(w.typed_query(o));
      } else {
        rest.push_back(&o);
      }
    }
    const auto results = clk.timed([&] {
      return serve_typed<typename W::view>(w.typed_index(), qs.size(), [&](const auto& idx) {
        return W::run_typed(ex_, idx, qs);
      });
    });
    std::vector<typename W::answer> answers(rest.size());
    clk.timed([&] {
      run_slices(ex_, rest.size(), threw, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) answers[i] = w.execute(*rest[i]);
      });
    });
    for (std::size_t i = 0; i < typed.size(); ++i) {
      auto a = w.typed_answer(results[i]);
      res_.count_op(a.stats);
      if (i % w.check_stride(*typed[i]) == 0) w.check(*typed[i], std::move(a));
    }
    for (std::size_t i = 0; i < rest.size(); ++i) {
      res_.count_op(answers[i].stats);
      if (i % w.check_stride(*rest[i]) == 0) w.check(*rest[i], std::move(answers[i]));
    }
    writes(&clk);
    res_.round_s.push_back(clk.seconds() - before);
  }

  // The same typed stream: direct batch-router calls, then the executor at
  // 1 and at T workers.
  void speedup_and_layers() {
    auto& w = self();
    const auto stream = w.layer_stream();
    const auto& idx = w.typed_index();
    const double per = 1e9 / static_cast<double>(stream.size());
    const double bare =
        direct_batched_seconds(stream, [&](const auto& g) { return W::batch(idx, g); });
    serve::executor one(1);
    const double t1 = median_seconds(layer_reps, [&] { (void)W::run_typed(one, idx, stream); });
    const double tt = median_seconds(layer_reps, [&] { (void)W::run_typed(ex_, idx, stream); });
    double prev = -1;
    layer_row(res_, "layer.bare_ns_per_read", "bare", bare * per, prev);
    layer_row(res_, "layer.executor_ns", "+executor", t1 * per, prev);
    res_.layer["serve.speedup_T_vs_1"] = ratio(t1, tt);
  }
};

// One workload entry point per family.
run_result run_oned(const run_config& cfg);
run_result run_text(const run_config& cfg);
run_result run_spatial(const run_config& cfg);

}  // namespace perfbench
