// The two 1-D workloads, both on the "skipweb1d" backend:
//
//   oned-bign-read  n = 2^20 uniform keys, read-only: 95% nearest (between-key
//                   probes) through executor::run_nearest, 5% native range
//                   with limit 8 through executor::for_slices. Every opt-in
//                   plane is off, so this is the "no change" control for
//                   route-cache, fault and latency work; the index (~740 MB)
//                   is larger than the last-level cache, so the arena walk and
//                   executor dispatch carry the cost.
//   oned-hot-churn  n = 2^18, Zipf(1.1) exact-key reads with ~10% single-writer
//                   inserts/erases, route cache + replication(2) + LogNormal
//                   latency with a deadline, and a seeded kill/revive schedule
//                   applied between jobs, each kill burst repaired to
//                   quiescence. The hot set fits the cache, so net, route
//                   cache, fault and the update path carry the cost.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>
#include <string>

#include "api/registry.h"
#include "bench.h"
#include "fault/injector.h"
#include "fault/repair.h"
#include "net/latency.h"
#include "net/network.h"
#include "persist/snapshot.h"
#include "serve/route_cache.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace net = skipweb::net;
namespace fault = skipweb::fault;
namespace persist = skipweb::persist;
namespace wl = skipweb::workloads;
using skipweb::util::rng;

constexpr net::host_id origin{0};  // writes, repair and the layer loops; never killed
// Reads rotate over this many frontends, in blocks of consecutive reads: a
// route starts at its origin's own root tower, so a single origin would tie a
// run's message counts to one tower's height.
constexpr std::uint32_t frontends = 64;
constexpr std::size_t frontend_block = 128;
constexpr std::uint64_t key_max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t key_span = std::uint64_t{1} << 62;  // uniform_keys' universe
constexpr std::size_t range_limit = 8;
// oned-hot-churn's latency plane: LogNormal hops with a 50 us median and a
// read deadline of 200 median hops, far above a repaired route (~20 hops),
// so the deadline bounds stragglers without failing healthy reads.
constexpr std::uint64_t hop_median_ns = 50'000;
constexpr std::uint64_t read_deadline_ns = 200 * hop_median_ns;
// oned-hot-churn's schedule: every churn_period measured rounds a burst of 8
// kills and one revive, so at least one host is dead from the first measured
// round on.
constexpr std::size_t churn_period = 8;

struct oned_shape {
  bool churn = false;
  std::size_t n = 0;
  std::size_t nearest_per_round = 0, ranges_per_round = 0, writes_per_round = 0;
  std::size_t single_rounds = 0;      // rounds of the single-client phase
  std::size_t write_probe_pairs = 0;  // read-only mix: timed fresh-key insert+erase pairs
  double nominal_ops_per_s = 0;       // converts --seconds into measured rounds
  std::size_t layer_stream = 0;       // probes per layer-table / speedup loop
  [[nodiscard]] std::size_t ops_per_round() const {
    return nearest_per_round + ranges_per_round + writes_per_round;
  }
  // Measured rounds come in whole periods, one churn step each.
  [[nodiscard]] std::size_t period() const { return churn ? churn_period : 1; }
};

oned_shape shape_for(const run_config& cfg) {
  oned_shape s;
  if (cfg.workload == "oned-hot-churn") {
    s = {true, std::size_t{1} << 18, 1024, 0, 114, 80, 0, 22'000, 20'000};
  } else {
    s = {false, std::size_t{1} << 20, 7'782, 410, 0, 24, 12'000, 1'200'000, 50'000};
  }
  if (cfg.tiny) {
    s.n = 4096;
    s.nearest_per_round = 480;
    s.ranges_per_round = s.churn ? 0 : 32;
    s.writes_per_round = s.churn ? 48 : 0;
    s.single_rounds = 2;
    s.write_probe_pairs = s.churn ? 0 : 100;
    s.layer_stream = 1000;
  }
  return s;
}

net::latency_model hop_latency(std::uint64_t seed) {
  return net::latency_model::lognormal(hop_median_ns, 0.5, seed);
}

// One served deployment. Members are declared so the index dies first and
// the route cache outlives the network it is attached to.
struct deployment {
  std::unique_ptr<serve::route_cache> cache;
  std::unique_ptr<net::network> net;
  std::unique_ptr<api::distributed_index> idx;
};

struct planes {
  bool cache = false, replication = false, latency = false, load_tracking = false;
};

// Empty network -> index ready to serve, each plane switched on through its
// public option. This is what setup_s times.
deployment deploy(const std::vector<std::uint64_t>& keys, std::uint64_t seed, planes p) {
  deployment d;
  d.net = std::make_unique<net::network>(1);
  auto opts = api::index_options{}.seed(seed);
  if (p.cache) {
    d.cache = std::make_unique<serve::route_cache>();
    opts.route_cache(d.cache.get());
  }
  if (p.replication) opts.replication(2);
  if (p.latency) opts.deadline(read_deadline_ns);
  {
    span s("api.make_index");
    d.idx = api::make_index("skipweb1d", keys, opts, *d.net);
  }
  if (p.latency) d.net->set_latency_model(hop_latency(sub_seed(seed, 6)));
  if (p.load_tracking) d.net->set_op_load_tracking(true);
  return d;
}

bool nearest_ok(const std::vector<std::uint64_t>& sorted, std::uint64_t q,
                const api::nn_result& r) {
  const auto it = std::upper_bound(sorted.begin(), sorted.end(), q);
  const bool has_pred = it != sorted.begin(), has_succ = it != sorted.end();
  return r.has_pred == has_pred && (!has_pred || r.pred == *(it - 1)) &&
         r.has_succ == has_succ && (!has_succ || r.succ == *it);
}

bool range_ok(const std::vector<std::uint64_t>& sorted, std::uint64_t lo,
              const std::vector<std::uint64_t>& got) {
  const auto it = std::lower_bound(sorted.begin(), sorted.end(), lo);
  const auto k = std::min<std::size_t>(range_limit, static_cast<std::size_t>(sorted.end() - it));
  return got.size() == k && std::equal(got.begin(), got.end(), it);
}

bool same_answer(const api::nn_result& a, const api::nn_result& b) {
  return a.has_pred == b.has_pred && a.pred == b.pred && a.has_succ == b.has_succ &&
         a.succ == b.succ && a.stats == b.stats;
}

class oned_workload {
 public:
  oned_workload(const run_config& cfg, run_result& res)
      : cfg_(cfg), res_(res), sh_(shape_for(cfg)), ex_(cfg.threads),
        write_rng_(sub_seed(cfg.seed, 4)) {}

  void run() {
    generate();
    setup();
    serve_rounds(
        cfg_, res_, rounds_, sh_.single_rounds, [&] { return timed_setup(); },
        [&](std::size_t r) { single_round(r); },
        [&](std::size_t r, section_clock& clk, std::atomic<std::uint64_t>& threw) {
          measured_round(r, clk, threw);
        });
    summarize();
    fault_metrics();
    if (cfg_.trace) {
      speedup();
      if (sh_.churn) {
        layer_table_churn();
      } else {
        layer_table_bare();
        persistence();
      }
    }
  }

 private:
  void generate() {
    const std::uint64_t t0 = now_ns();
    {
      span s("workloads.gen");
      rng r(sub_seed(cfg_.seed, 0));
      keys_ = wl::uniform_keys(sh_.n, r);
      const std::size_t p = sh_.period();
      measured_ = (measured_rounds(cfg_, sh_.nominal_ops_per_s, sh_.ops_per_round()) + p - 1) /
                  p * p;
      rounds_ = sh_.single_rounds + measured_;
      const std::size_t nq = rounds_ * sh_.nearest_per_round;
      nearest_q_ = sh_.churn ? wl::zipf_query_stream(keys_, nq, sub_seed(cfg_.seed, 1), 1.1)
                             : wl::query_stream(keys_, nq, sub_seed(cfg_.seed, 1));
      if (sh_.ranges_per_round > 0) {
        range_q_ = wl::query_stream(keys_, rounds_ * sh_.ranges_per_round, sub_seed(cfg_.seed, 2));
      }
    }
    gen_ns_ += now_ns() - t0;
    oracle_ = keys_;
    std::sort(oracle_.begin(), oracle_.end());
    digest_.add(keys_.data(), keys_.size() * sizeof(std::uint64_t));
    digest_.add(nearest_q_.data(), nearest_q_.size() * sizeof(std::uint64_t));
    digest_.add(range_q_.data(), range_q_.size() * sizeof(std::uint64_t));
  }

  // Empty network -> the workload's index ready to serve, timed.
  deployment timed_setup() {
    const std::uint64_t t0 = now_ns();
    auto d = deploy(keys_, cfg_.seed, sh_.churn ? planes{true, true, true, false} : planes{});
    res_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return d;
  }

  void setup() {
    dep_ = timed_setup();
    res_.n = keys_.size();
    res_.ops_per_round = sh_.ops_per_round();
    res_.round_period = sh_.period();
    res_.record_footprint(dep_.idx->footprint());
    res_.layer["api.make_index_s"] = res_.setup_s.front();
    if (sh_.churn) {
      const std::uint64_t t0 = now_ns();
      {
        span s("workloads.gen");
        churn_ = wl::churn_schedule(dep_.net->host_count(), measured_ / churn_period, 1.0, 1.0, 8,
                                    sub_seed(cfg_.seed, 3));
      }
      gen_ns_ += now_ns() - t0;
      for (const auto& e : churn_) {
        digest_.add_pod(e.at_op);
        digest_.add_pod(e.host.value);
        digest_.add_pod(static_cast<int>(e.act));
      }
      injector_ = std::make_unique<fault::injector>(*dep_.net, churn_);
    }
    res_.inputs_digest = digest_.value();
  }

  // The first round of every churn period (the m-th measured round) fires
  // the next slot of the schedule, a burst of kills and a revive, and
  // repairs after it, on the round's clock; the oracle then learns which
  // records the repair removed.
  void churn_step(std::size_t m, section_clock& clk) {
    if (!injector_ || m % churn_period != 0) return;
    const std::uint64_t t0 = now_ns();
    std::size_t fired = 0;
    {
      span s("fault.inject");
      fired = injector_->advance_to(m / churn_period);
    }
    const std::uint64_t t1 = now_ns();
    fault::repair_report rep;
    if (fired > 0) {
      span s("fault.repair");
      rep = fault::repair_to_quiescence(*dep_.idx, origin);
    }
    const std::uint64_t t2 = now_ns();
    clk.add(t2 - t0);
    if (fired == 0) return;
    inject_ns_.push_back(static_cast<double>(t1 - t0));
    repair_ns_.push_back(static_cast<double>(t2 - t1));
    repair_rounds_ += rep.rounds;
    repair_msgs_ += rep.cost.messages;
    repaired_ += rep.repaired;
    if (rep.repaired > 0) resync_oracle(rep.repaired);
  }

  // Repair unsplices the records of dead hosts. Enumerate the index with the
  // latency plane, deadline and cache detached (oracle work, untimed) and
  // check that exactly `repaired` previously stored keys vanished.
  void resync_oracle(std::size_t repaired) {
    auto& n = *dep_.net;
    n.attach_hop_cache(nullptr);
    n.set_latency_model(net::latency_model::none());
    n.set_op_deadline(0);
    const auto all = dep_.idx->range(0, key_max, origin, 0);
    n.set_op_deadline(read_deadline_ns);
    n.set_latency_model(hop_latency(sub_seed(cfg_.seed, 6)));
    n.attach_hop_cache(dep_.cache.get());
    const auto& got = all.value;
    const bool ok = !all.stats.failed &&
                    std::adjacent_find(got.begin(), got.end(), std::greater_equal<>()) ==
                        got.end() &&
                    std::includes(oracle_.begin(), oracle_.end(), got.begin(), got.end()) &&
                    oracle_.size() == got.size() + repaired;
    res_.oracle.expect(ok, "repair removed exactly the reported records", cfg_.seed);
    oracle_ = got;
  }

  [[nodiscard]] net::host_id read_origin(std::size_t i) const {
    const net::host_id h{static_cast<std::uint32_t>(i % frontends)};
    return dep_.net->host_alive(h) ? h : origin;
  }

  void reads_single(std::size_t r) {
    const std::size_t nr = sh_.nearest_per_round, rr = sh_.ranges_per_round, total = nr + rr;
    std::size_t ni = 0, ri = 0;
    for (std::size_t i = 0; i < total; ++i) {
      // Ranges spread evenly through the round.
      const bool range = ri < rr && (ri + 1) * total <= (i + 1) * rr;
      try {
        if (range) {
          const std::uint64_t lo = range_q_[r * rr + ri++];
          const std::uint64_t t0 = now_ns();
          api::op_result<std::vector<std::uint64_t>> out;
          {
            span s("core.range");
            out = dep_.idx->range(lo, key_max, read_origin(single_reads_ / frontend_block),
                                  range_limit);
          }
          res_.add_read(out.stats, now_ns() - t0);
          res_.oracle.expect(range_ok(oracle_, lo, out.value), "range", cfg_.seed);
        } else {
          const std::uint64_t q = nearest_q_[r * nr + ni++];
          const std::uint64_t t0 = now_ns();
          api::nn_result out;
          {
            span s("core.nearest");
            out = dep_.idx->nearest(q, read_origin(single_reads_ / frontend_block));
          }
          res_.add_read(out.stats, now_ns() - t0);
          res_.oracle.expect(nearest_ok(oracle_, q, out), "nearest", cfg_.seed);
        }
      } catch (const std::exception&) {
        res_.fail("read threw", cfg_.seed);
      }
      ++single_reads_;
    }
  }

  // Round r's ~10% single-writer updates: alternately insert a fresh key and
  // erase a stored one, so n stays put.
  void writes(section_clock* clk) {
    for (std::size_t j = 0; j < sh_.writes_per_round; ++j) {
      const bool ins = j % 2 == 0;
      std::uint64_t key = 0;
      if (ins) {
        do {
          key = write_rng_.uniform_u64(0, key_span - 1);
        } while (std::binary_search(oracle_.begin(), oracle_.end(), key));
      } else {
        key = oracle_[write_rng_.index(oracle_.size())];
      }
      write(key, ins, clk);
    }
  }

  // One write through timed_write (clk == nullptr: single-client), then the
  // oracle follows it.
  void write(std::uint64_t key, bool ins, section_clock* clk) {
    if (!timed_write(res_, clk, ins, cfg_.seed, [&] {
          return ins ? dep_.idx->insert(key, origin) : dep_.idx->erase(key, origin);
        })) {
      return;
    }
    const auto it = std::lower_bound(oracle_.begin(), oracle_.end(), key);
    if (ins) {
      oracle_.insert(it, key);
    } else {
      oracle_.erase(it);
    }
  }

  // Read-only mix: each single-client round also times `pairs` inserts of
  // fresh keys followed by their erases, leaving the key set as it was, so
  // the write metrics are defined on this workload too.
  void write_probes(std::size_t pairs) {
    std::set<std::uint64_t> fresh;
    while (fresh.size() < pairs) {
      const std::uint64_t k = write_rng_.uniform_u64(0, key_span - 1);
      if (!std::binary_search(oracle_.begin(), oracle_.end(), k)) fresh.insert(k);
    }
    for (const auto k : fresh) write(k, true, nullptr);
    for (const auto k : fresh) write(k, false, nullptr);
  }

  void summarize() {
    res_.layer["workloads.gen_s"] = static_cast<double>(gen_ns_) * 1e-9;
    if (dep_.cache) {
      const double reads = static_cast<double>(measured_reads_);
      const double hits = static_cast<double>(cache_hits_);
      res_.layer["route_cache.hits_per_read"] = hits / reads;
      res_.layer["route_cache.absorbed_share"] =
          ratio(hits, hits + static_cast<double>(read_msgs_));
      res_.layer["route_cache.dropped_commit_share"] = static_cast<double>(cache_dropped_) / reads;
      res_.layer["route_cache.replicated_hosts"] =
          static_cast<double>(dep_.cache->replicated().size());
    }
  }

  // One caller, one call at a time. Starts from a cleared route cache, so
  // its receipts do not depend on how earlier multi-worker rounds
  // interleaved; only its reads count toward congestion.
  void single_round(std::size_t r) {
    if (dep_.cache) dep_.cache->clear();
    auto& n = *dep_.net;
    n.reset_traffic();
    reads_single(r);
    res_.end_round_reads(n);
    writes(nullptr);
    if (sh_.write_probe_pairs > 0) write_probes(sh_.write_probe_pairs / sh_.single_rounds);
    res_.end_round_writes();
  }

  void measured_round(std::size_t r, section_clock& clk, std::atomic<std::uint64_t>& threw) {
    const double before = clk.seconds();
    if (dep_.cache) dep_.cache->reset_stats();
    const auto& idx = *dep_.idx;
    const std::size_t nr = sh_.nearest_per_round, rr = sh_.ranges_per_round;
    churn_step(measured_done_++, clk);
    const auto first = nearest_q_.begin() + static_cast<std::ptrdiff_t>(r * nr);
    const std::vector<std::uint64_t> qs(first, first + static_cast<std::ptrdiff_t>(nr));
    const net::host_id from = read_origin(r);
    const auto near = clk.timed([&] {
      return serve_typed<traced_nearest>(idx, qs.size(), [&](const auto& index) {
        return ex_.run_nearest(index, qs, from).results;
      });
    });
    std::vector<api::op_result<std::vector<std::uint64_t>>> ranges(rr);
    if (rr > 0) {
      clk.timed([&] {
        run_slices(ex_, rr, threw, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            span s("core.range");
            ranges[i] = idx.range(range_q_[r * rr + i], key_max, from, range_limit);
          }
        });
      });
    }
    for (std::size_t i = 0; i < nr; ++i) {
      res_.count_op(near[i].stats);
      read_msgs_ += near[i].stats.messages;
      if (i % 4 == 0) res_.oracle.expect(nearest_ok(oracle_, qs[i], near[i]), "nearest", cfg_.seed);
    }
    for (std::size_t i = 0; i < rr; ++i) {
      res_.count_op(ranges[i].stats);
      res_.oracle.expect(range_ok(oracle_, range_q_[r * rr + i], ranges[i].value), "range",
                         cfg_.seed);
    }
    measured_reads_ += nr + rr;
    if (dep_.cache) {
      cache_hits_ += dep_.cache->hits();
      cache_dropped_ += dep_.cache->dropped_commits();
    }
    writes(&clk);
    res_.round_s.push_back(clk.seconds() - before);
  }

  void fault_metrics() {
    if (!sh_.churn) return;
    res_.layer["fault.inject_us"] = median(inject_ns_) * 1e-3;
    res_.layer["fault.repair_s"] = median(repair_ns_) * 1e-9;
    res_.layer["fault.repair_rounds"] =
        ratio(static_cast<double>(repair_rounds_), static_cast<double>(repair_ns_.size()));
    res_.layer["fault.repair_msgs_per_dead_host"] =
        ratio(static_cast<double>(repair_msgs_), static_cast<double>(repaired_));
  }

  // The same stream served at 1 and at T workers.
  void speedup() {
    const std::size_t m = std::min(nearest_q_.size(), sh_.layer_stream * 2);
    const std::vector<std::uint64_t> s(nearest_q_.begin(),
                                       nearest_q_.begin() + static_cast<std::ptrdiff_t>(m));
    serve::executor one(1);
    const auto& idx = *dep_.idx;
    const double t1 = median_seconds(layer_reps, [&] { (void)one.run_nearest(idx, s, origin); });
    const double tt = median_seconds(layer_reps, [&] { (void)ex_.run_nearest(idx, s, origin); });
    res_.layer["serve.speedup_T_vs_1"] = ratio(t1, tt);
  }

  double loop_ns(const api::distributed_index& idx, const std::vector<std::uint64_t>& stream) {
    const double s =
        direct_batched_seconds(stream, [&](const auto& g) { return idx.nearest_batch(g, origin); });
    return s * 1e9 / static_cast<double>(stream.size());
  }

  double executor_ns(const api::distributed_index& idx, const std::vector<std::uint64_t>& stream) {
    serve::executor one(1);
    const double s =
        median_seconds(layer_reps, [&] { (void)one.run_nearest(idx, stream, origin); });
    return s * 1e9 / static_cast<double>(stream.size());
  }

  // oned-bign-read has no opt-in plane: the bare read and the executor.
  void layer_table_bare() {
    const auto stream = wl::query_stream(keys_, sh_.layer_stream, sub_seed(cfg_.seed, 5));
    double prev = -1;
    layer_row(res_, "layer.bare_ns_per_read", "bare", loop_ns(*dep_.idx, stream), prev);
    layer_row(res_, "layer.executor_ns", "+executor", executor_ns(*dep_.idx, stream), prev);
  }

  // Each plane switched on in turn through its public option, on the same
  // Zipf stream at one worker.
  void layer_table_churn() {
    const auto stream =
        wl::zipf_query_stream(keys_, sh_.layer_stream, sub_seed(cfg_.seed, 5), 1.1);
    const std::uint64_t seed = sub_seed(cfg_.seed, 8);
    double prev = -1;
    {
      auto a = deploy(keys_, seed, {});
      layer_row(res_, "layer.bare_ns_per_read", "bare", loop_ns(*a.idx, stream), prev);
      a.net->set_op_load_tracking(true);
      layer_row(res_, "layer.op_load_tracking_ns", "+op_load_tracking", loop_ns(*a.idx, stream),
                prev);
      a.net->set_latency_model(hop_latency(sub_seed(cfg_.seed, 6)));
      a.net->set_op_deadline(read_deadline_ns);
      layer_row(res_, "layer.latency_model_ns", "+latency_model", loop_ns(*a.idx, stream), prev);
    }
    {
      auto b = deploy(keys_, seed, {true, false, true, true});
      layer_row(res_, "layer.route_cache_ns", "+route_cache", loop_ns(*b.idx, stream), prev);
    }
    auto c = deploy(keys_, seed, {true, true, true, true});
    layer_row(res_, "layer.replication_ns", "+replication", loop_ns(*c.idx, stream), prev);
    // Kill 0.5% of the hosts; read once before repair (the unrepaired cost),
    // then time the fault-routing path on the repaired structure.
    rng kr(sub_seed(cfg_.seed, 7));
    const std::size_t hosts = c.net->host_count();
    std::set<std::uint32_t> victims;
    while (victims.size() < std::max<std::size_t>(1, hosts / 200)) {
      victims.insert(static_cast<std::uint32_t>(1 + kr.index(hosts - 1)));
    }
    for (const auto v : victims) c.net->kill_host(net::host_id{v});
    std::uint64_t msgs = 0;
    const std::size_t probe = std::min<std::size_t>(stream.size(), 4000);
    for (std::size_t i = 0; i < probe; ++i) {
      msgs += c.idx->nearest(stream[i], origin).stats.messages;
    }
    res_.layer["fault.msgs_per_read_unrepaired"] =
        static_cast<double>(msgs) / static_cast<double>(probe);
    (void)fault::repair_to_quiescence(*c.idx, origin);
    layer_row(res_, "layer.faults_ns", "+faults", loop_ns(*c.idx, stream), prev);
    layer_row(res_, "layer.executor_ns", "+executor", executor_ns(*c.idx, stream), prev);
  }

  // Save, map restore, load restore and the first query, each restored twin
  // checked against the original on a sample. Disk timing swings several-fold
  // between runs, so these stay per-layer metrics.
  void persistence() {
    namespace fs = std::filesystem;
    fs::create_directories(cfg_.trace_dir);
    const std::string path =
        cfg_.trace_dir + "/oned-bign-read-" + std::to_string(cfg_.seed) + ".snap";
    const auto sample = wl::query_stream(keys_, std::min<std::size_t>(sh_.layer_stream, 4000),
                                         sub_seed(cfg_.seed, 9));
    const std::uint64_t t0 = now_ns();
    {
      span s("persist.save");
      api::save_index_snapshot(*dep_.idx, path);
    }
    res_.layer["persist.save_s"] = static_cast<double>(now_ns() - t0) * 1e-9;
    res_.layer["persist.snapshot_bytes_per_key"] =
        static_cast<double>(fs::file_size(path)) / static_cast<double>(res_.n);
    const auto restore = [&](persist::restore_mode mode, const char* name, const char* metric) {
      net::network fresh(1);
      const std::uint64_t r0 = now_ns();
      std::unique_ptr<api::distributed_index> twin;
      {
        span s(name);
        twin = api::restore_index(path, mode, fresh);
      }
      res_.layer[metric] = static_cast<double>(now_ns() - r0) * 1e-9;
      if (mode == persist::restore_mode::map) {
        const std::uint64_t q0 = now_ns();
        api::nn_result first;
        {
          span s("persist.first_query");
          first = twin->nearest(sample[0], origin);
        }
        res_.layer["persist.first_query_ms"] = static_cast<double>(now_ns() - q0) * 1e-6;
        res_.oracle.expect(nearest_ok(oracle_, sample[0], first), "restored first query",
                           cfg_.seed);
      }
      for (const auto q : sample) {
        res_.oracle.expect(same_answer(dep_.idx->nearest(q, origin), twin->nearest(q, origin)),
                           "restored twin answers like the original", cfg_.seed);
      }
    };
    restore(persist::restore_mode::map, "persist.restore_map", "persist.restore_map_s");
    restore(persist::restore_mode::load, "persist.restore_load", "persist.restore_load_s");
    fs::remove(path);
  }

  const run_config& cfg_;
  run_result& res_;
  oned_shape sh_;
  serve::executor ex_;
  rng write_rng_;
  digest digest_;
  std::uint64_t gen_ns_ = 0;
  std::size_t rounds_ = 0, measured_ = 0, measured_done_ = 0, single_reads_ = 0;
  std::vector<std::uint64_t> keys_, oracle_, nearest_q_, range_q_;
  std::vector<wl::churn_event> churn_;
  deployment dep_;
  std::unique_ptr<fault::injector> injector_;
  std::vector<double> inject_ns_, repair_ns_;
  std::uint64_t repair_rounds_ = 0, repair_msgs_ = 0, repaired_ = 0;
  std::uint64_t read_msgs_ = 0, measured_reads_ = 0, cache_hits_ = 0, cache_dropped_ = 0;
};

}  // namespace

run_result run_oned(const run_config& cfg) {
  run_result res;
  oned_workload(cfg, res).run();
  return res;
}

}  // namespace perfbench
