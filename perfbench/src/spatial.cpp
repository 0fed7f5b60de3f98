// spatial-mixed: "skip_quadtree2" over n = 2^17 clustered 2-D points — the
// paper's d-dimensional case. locate through executor::run_locate; approx_nn
// and small orthogonal_range boxes through executor::for_slices; ~10%
// single-writer inserts/erases.
#include <algorithm>
#include <set>
#include <unordered_map>

#include "api/spatial_registry.h"
#include "bench.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace net = skipweb::net;
namespace wl = skipweb::workloads;
using skipweb::util::rng;
using api::spatial_point;

constexpr net::host_id origin{0};
constexpr int dims = 2;
constexpr std::uint64_t span_max = std::uint64_t{1} << 62;  // the shared grid
// Box half-side: about twenty points inside one of clustered_points' clusters.
constexpr std::uint64_t box_radius = span_max >> 14;
// Jitter of NN probes and inserted points around stored points: within a
// cluster's extent.
constexpr std::uint64_t jitter = span_max >> 12;

struct spatial_shape {
  std::size_t n = 0;
  std::size_t locate_per_round = 0, nn_per_round = 0, box_per_round = 0, writes_per_round = 0;
  std::size_t single_rounds = 0;
  double nominal_ops_per_s = 0;
  std::size_t layer_stream = 0;
  [[nodiscard]] std::size_t ops_per_round() const {
    return locate_per_round + nn_per_round + box_per_round + writes_per_round;
  }
};

spatial_shape shape_for(const run_config& cfg) {
  spatial_shape s{std::size_t{1} << 17, 1200, 300, 300, 200, 40, 270'000, 20'000};
  if (cfg.tiny) s = {4096, 120, 30, 30, 20, 2, 0, 500};
  return s;
}

enum class kind : std::uint8_t { locate, nn, box };

struct read_op {
  kind k = kind::locate;
  spatial_point p;  // locate / NN probe, or the box centre
};

struct point_hash {
  std::size_t operator()(const spatial_point& p) const {
    return std::hash<std::uint64_t>{}(p.x[0] * 0x9e3779b97f4a7c15ull ^ p.x[1]);
  }
};

// The brute-force side: an ordered set for locate and box scans, plus a
// swap-remove vector for uniform picks and the NN linear scan.
class point_oracle {
 public:
  explicit point_oracle(const std::vector<spatial_point>& pts) : items_(pts) {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      ordered_.insert(items_[i]);
      pos_[items_[i]] = i;
    }
  }
  [[nodiscard]] bool contains(const spatial_point& p) const { return ordered_.count(p) != 0; }
  [[nodiscard]] const spatial_point& pick(rng& r) const { return items_[r.index(items_.size())]; }
  void insert(const spatial_point& p) {
    ordered_.insert(p);
    pos_[p] = items_.size();
    items_.push_back(p);
  }
  void erase(const spatial_point& p) {
    ordered_.erase(p);
    const std::size_t i = pos_.at(p);
    pos_[items_.back()] = i;
    items_[i] = items_.back();
    items_.pop_back();
    pos_.erase(p);
  }
  [[nodiscard]] std::vector<spatial_point> box(const api::spatial_box& b) const {
    std::vector<spatial_point> out;
    for (auto it = ordered_.lower_bound(spatial_point{{b.lo.x[0], 0, 0}});
         it != ordered_.end() && it->x[0] <= b.hi.x[0]; ++it) {
      if (it->x[1] >= b.lo.x[1] && it->x[1] <= b.hi.x[1]) out.push_back(*it);
    }
    return out;
  }
  [[nodiscard]] api::spatial_dist2 nearest_dist2(const spatial_point& q) const {
    api::spatial_dist2 best = ~api::spatial_dist2{0};
    for (const auto& p : items_) best = std::min(best, api::spatial_point_dist2(p, q, dims));
    return best;
  }

 private:
  std::vector<spatial_point> items_;
  std::set<spatial_point> ordered_;
  std::unordered_map<spatial_point, std::size_t, point_hash> pos_;
};

spatial_point near_point(const spatial_point& c, rng& r) {
  spatial_point p;
  for (int d = 0; d < dims; ++d) {
    const auto i = static_cast<std::size_t>(d);
    p.x[i] = (c.x[i] + r.uniform_u64(0, 2 * jitter) + span_max - jitter) % span_max;
  }
  return p;
}

struct spatial_deployment {
  std::unique_ptr<net::network> net;
  std::unique_ptr<api::spatial_index> idx;
};

class spatial_workload : public mixed_workload<spatial_workload> {
 public:
  spatial_workload(const run_config& cfg, run_result& res)
      : mixed_workload(cfg, res), sh_(shape_for(cfg)), write_rng_(sub_seed(cfg.seed, 4)) {}

 private:
  friend class mixed_workload<spatial_workload>;
  using read_op = ::perfbench::read_op;
  using query = spatial_point;
  using view = traced_locate;

  void generate() {
    const std::uint64_t t0 = now_ns();
    {
      span s("workloads.gen");
      rng r(sub_seed(cfg_.seed, 0));
      points_ = wl::spatial_points(dims, sh_.n, true, r);
    }
    gen_ns_ += now_ns() - t0;
    oracle_ = std::make_unique<point_oracle>(points_);
    for (const auto& p : points_) digest_.add_pod(p);
  }

  // Empty network -> index ready to serve, timed.
  spatial_deployment timed_setup() {
    const std::uint64_t t0 = now_ns();
    spatial_deployment d;
    d.net = std::make_unique<net::network>(1);
    {
      span s("api.make_index");
      d.idx = api::make_spatial_index(
          "skip_quadtree2", points_,
          api::index_options{}.seed(sub_seed(cfg_.seed, 10)).initial_hosts(points_.size()),
          *d.net);
    }
    res_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return d;
  }

  void setup() {
    dep_ = timed_setup();
    res_.n = points_.size();
    res_.ops_per_round = sh_.ops_per_round();
    res_.record_footprint(dep_.idx->footprint());
    res_.layer["api.make_index_s"] = res_.setup_s.front();
  }

  // Round r's reads: locate probes half at stored points (hits), half
  // uniform; NN probes and box centres near stored points. (Uniform NN
  // probes would land far from the clusters, and their cost would then hinge
  // on each seed's cluster layout.)
  std::vector<read_op> round_reads(std::size_t r) {
    const std::uint64_t t0 = now_ns();
    span s("workloads.gen");
    auto g = rng::stream(sub_seed(cfg_.seed, 1000 + r), 0);
    std::vector<read_op> ops;
    for (std::size_t i = 0; i < sh_.locate_per_round; ++i) {
      ops.push_back({kind::locate, i % 2 ? oracle_->pick(g) : wl::spatial_probe(dims, g)});
    }
    for (std::size_t i = 0; i < sh_.nn_per_round; ++i) {
      ops.push_back({kind::nn, near_point(oracle_->pick(g), g)});
    }
    for (std::size_t i = 0; i < sh_.box_per_round; ++i) {
      ops.push_back({kind::box, oracle_->pick(g)});
    }
    for (std::size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[g.index(i)]);
    for (const auto& o : ops) digest_.add_pod(o.p);
    gen_ns_ += now_ns() - t0;
    return ops;
  }

  struct answer {
    bool found = false;
    std::vector<spatial_point> pts;
    api::op_stats stats;
  };

  answer execute(const read_op& o) const {
    answer a;
    switch (o.k) {
      case kind::locate: {
        span s("core.locate");
        const auto r = dep_.idx->locate(o.p, origin);
        a.found = r.found;
        a.stats = r.stats;
        break;
      }
      case kind::nn: {
        span s("core.approx_nn");
        const auto r = dep_.idx->approx_nn(o.p, origin);
        a.pts = {r.value};
        a.stats = r.stats;
        break;
      }
      case kind::box: {
        span s("core.orthogonal_range");
        auto r = dep_.idx->orthogonal_range(api::spatial_box_around(o.p, box_radius, dims), origin);
        a.pts = std::move(r.value);
        a.stats = r.stats;
        break;
      }
    }
    return a;
  }

  void check(const read_op& o, answer a) {
    switch (o.k) {
      case kind::locate:
        res_.oracle.expect(a.found == oracle_->contains(o.p), "locate", cfg_.seed);
        break;
      case kind::nn:
        // Any stored point at the minimum L2 distance is a correct answer.
        res_.oracle.expect(a.pts.size() == 1 && oracle_->contains(a.pts[0]) &&
                               api::spatial_point_dist2(a.pts[0], o.p, dims) ==
                                   oracle_->nearest_dist2(o.p),
                           "approx_nn", cfg_.seed);
        break;
      case kind::box:
        std::sort(a.pts.begin(), a.pts.end());
        res_.oracle.expect(
            a.pts == oracle_->box(api::spatial_box_around(o.p, box_radius, dims)),
            "orthogonal_range", cfg_.seed);
        break;
    }
  }

  // The typed kind: locate, through executor::run_locate.
  static bool is_typed(const read_op& o) { return o.k == kind::locate; }
  static const spatial_point& typed_query(const read_op& o) { return o.p; }
  static auto run_typed(serve::executor& ex, const api::spatial_index& idx,
                        const std::vector<spatial_point>& qs) {
    return ex.run_locate(idx, qs, origin).results;
  }
  static auto batch(const api::spatial_index& idx, const std::vector<spatial_point>& g) {
    return idx.locate_batch(g, origin);
  }
  [[nodiscard]] const api::spatial_index& typed_index() const { return *dep_.idx; }
  static answer typed_answer(const api::spatial_locate_result& r) {
    return {r.found, {}, r.stats};
  }
  // NN checks scan every point; they are sampled more sparsely.
  static std::size_t check_stride(const read_op& o) {
    return o.k == kind::locate ? 4 : o.k == kind::nn ? 128 : 8;
  }
  net::network& network() { return *dep_.net; }
  std::vector<spatial_point> layer_stream() {
    std::vector<spatial_point> stream;
    auto g = rng::stream(sub_seed(cfg_.seed, 5), 0);
    for (std::size_t i = 0; i < sh_.layer_stream; ++i) {
      stream.push_back(i % 2 ? oracle_->pick(g) : wl::spatial_probe(dims, g));
    }
    return stream;
  }

  // ~10% single-writer updates: alternately insert a fresh point near a
  // stored one and erase a stored point.
  spatial_point write_key(bool ins) {
    if (!ins) return oracle_->pick(write_rng_);
    spatial_point p;
    do {
      p = near_point(oracle_->pick(write_rng_), write_rng_);
    } while (oracle_->contains(p));
    return p;
  }
  api::op_stats apply_write(const spatial_point& p, bool ins) {
    return ins ? dep_.idx->insert(p, origin) : dep_.idx->erase(p, origin);
  }
  void follow_write(const spatial_point& p, bool ins) {
    if (ins) {
      oracle_->insert(p);
    } else {
      oracle_->erase(p);
    }
  }

  spatial_shape sh_;
  rng write_rng_;
  std::vector<spatial_point> points_;
  std::unique_ptr<point_oracle> oracle_;
  spatial_deployment dep_;
};

}  // namespace

run_result run_spatial(const run_config& cfg) {
  run_result res;
  spatial_workload(cfg, res).run();
  return res;
}

}  // namespace perfbench
