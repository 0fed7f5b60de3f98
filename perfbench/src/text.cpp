// text-mixed: two "string_skiptrie" indexes on one network.
//
//   words  dictionary_words, n = 2^16: contains through executor::run_contains;
//          prefix_match (limit 10) and top_k(8) over prefix_stream probes; ~5%
//          single-writer inserts/erases.
//   lines  log_lines, n = 2^15: 2-3-term intersect.
//
// The only workload on core/skip_trie and core/posting_index. top_k ranks the
// whole prefix subtree, so one-character prefixes make the tail; they stay in,
// because that is the real price.
#include <algorithm>
#include <map>
#include <string>

#include "api/string_registry.h"
#include "bench.h"
#include "net/network.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

namespace net = skipweb::net;
namespace wl = skipweb::workloads;
using skipweb::util::rng;

constexpr net::host_id origin{0};
constexpr std::size_t prefix_limit = 10;
constexpr std::size_t top_k = 8;

struct text_shape {
  std::size_t words = 0, lines = 0;
  std::size_t contains_per_round = 0, prefix_per_round = 0, topk_per_round = 0;
  std::size_t intersect_per_round = 0, writes_per_round = 0;
  std::size_t single_rounds = 0;
  double nominal_ops_per_s = 0;
  std::size_t layer_stream = 0;
  [[nodiscard]] std::size_t reads_per_round() const {
    return contains_per_round + prefix_per_round + topk_per_round + intersect_per_round;
  }
  [[nodiscard]] std::size_t ops_per_round() const { return reads_per_round() + writes_per_round; }
};

text_shape shape_for(const run_config& cfg) {
  text_shape s{std::size_t{1} << 16, std::size_t{1} << 15, 600, 150, 100, 100, 50, 20, 19'000,
               20'000};
  if (cfg.tiny) s = {2048, 1024, 120, 30, 20, 20, 10, 2, 0, 500};
  return s;
}

enum class kind : std::uint8_t { contains, prefix, topk, intersect };

struct read_op {
  kind k = kind::contains;
  std::string key;                 // contains probe or prefix
  std::vector<std::string> terms;  // intersect
};

struct text_deployment {
  std::unique_ptr<net::network> net;
  std::unique_ptr<api::string_index> words, lines;
};

bool starts_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() && std::equal(p.begin(), p.end(), s.begin());
}

class text_workload : public mixed_workload<text_workload> {
 public:
  text_workload(const run_config& cfg, run_result& res)
      : mixed_workload(cfg, res), sh_(shape_for(cfg)), write_rng_(sub_seed(cfg.seed, 4)) {}

 private:
  friend class mixed_workload<text_workload>;
  using read_op = ::perfbench::read_op;
  using query = std::string;
  using view = traced_contains;

  void generate() {
    const std::uint64_t t0 = now_ns();
    {
      span s("workloads.gen");
      rng r(sub_seed(cfg_.seed, 0));
      // Held-back words feed the inserts: distinct from the built set.
      const std::size_t inserts = rounds_ * ((sh_.writes_per_round + 1) / 2);
      words_ = wl::dictionary_words(sh_.words + inserts, r);
      pool_.assign(words_.begin() + static_cast<std::ptrdiff_t>(sh_.words), words_.end());
      words_.resize(sh_.words);
      rng lr(sub_seed(cfg_.seed, 1));
      lines_ = wl::log_lines(sh_.lines, lr);
    }
    gen_ns_ += now_ns() - t0;
    oracle_ = words_;
    std::sort(oracle_.begin(), oracle_.end());
    // Intersect oracle: the token scan, done once into per-token sorted
    // line positions.
    sorted_lines_ = lines_;
    std::sort(sorted_lines_.begin(), sorted_lines_.end());
    for (std::uint32_t i = 0; i < sorted_lines_.size(); ++i) {
      for (const auto& t : api::string_tokens(sorted_lines_[i])) postings_[t].push_back(i);
    }
    for (const auto& w : words_) digest_.add_str(w);
    for (const auto& w : pool_) digest_.add_str(w);
    for (const auto& l : lines_) digest_.add_str(l);
  }

  // Empty network -> both indexes ready to serve, timed.
  text_deployment timed_setup() {
    const std::uint64_t t0 = now_ns();
    text_deployment d;
    d.net = std::make_unique<net::network>(1);
    {
      span s("api.make_index");
      const std::uint64_t b0 = now_ns();
      d.words = api::make_string_index(
          "string_skiptrie", words_,
          api::index_options{}.seed(sub_seed(cfg_.seed, 10)).initial_hosts(words_.size()), *d.net);
      words_build_s_ = static_cast<double>(now_ns() - b0) * 1e-9;
    }
    {
      span s("api.make_index");
      const std::uint64_t b0 = now_ns();
      d.lines = api::make_string_index(
          "string_skiptrie", lines_,
          api::index_options{}.seed(sub_seed(cfg_.seed, 11)).initial_hosts(lines_.size()), *d.net);
      lines_build_s_ = static_cast<double>(now_ns() - b0) * 1e-9;
    }
    res_.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return d;
  }

  void setup() {
    dep_ = timed_setup();
    res_.n = words_.size() + lines_.size();
    res_.ops_per_round = sh_.ops_per_round();
    auto fp = dep_.words->footprint();
    fp += dep_.lines->footprint();
    res_.record_footprint(fp);
    res_.layer["api.make_index_s"] = words_build_s_;
    res_.layer["api.make_index_s.log_lines"] = lines_build_s_;
  }

  // Round r's reads, made from the key set as it stands at the round's start.
  std::vector<read_op> round_reads(std::size_t r) {
    const std::uint64_t t0 = now_ns();
    span s("workloads.gen");
    std::vector<read_op> ops;
    const std::uint64_t rs = sub_seed(cfg_.seed, 1000 + r);
    for (auto& q : wl::string_query_stream(oracle_, sh_.contains_per_round, rs)) {
      ops.push_back({kind::contains, std::move(q), {}});
    }
    auto prefixes = wl::prefix_stream(oracle_, sh_.prefix_per_round + sh_.topk_per_round, rs);
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      ops.push_back({i < sh_.prefix_per_round ? kind::prefix : kind::topk, std::move(prefixes[i]),
                     {}});
    }
    auto ir = rng::stream(rs, 1);
    for (std::size_t i = 0; i < sh_.intersect_per_round; ++i) {
      // 2-3 of a stored line's level/service/verb/resource tokens: a
      // non-empty answer by construction.
      auto toks = api::string_tokens(lines_[ir.index(lines_.size())]);
      toks.resize(4);
      for (std::size_t j = 3; j > 0; --j) std::swap(toks[j], toks[ir.index(j + 1)]);
      toks.resize(2 + ir.index(2));
      ops.push_back({kind::intersect, {}, std::move(toks)});
    }
    // Interleave the kinds so executor slices carry the same mix.
    for (std::size_t i = ops.size(); i > 1; --i) std::swap(ops[i - 1], ops[ir.index(i)]);
    for (const auto& o : ops) {
      digest_.add_str(o.key);
      for (const auto& t : o.terms) digest_.add_str(t);
    }
    gen_ns_ += now_ns() - t0;
    return ops;
  }

  // --- oracles ---------------------------------------------------------------

  bool contains_ok(const std::string& q, bool got) const {
    return got == std::binary_search(oracle_.begin(), oracle_.end(), q);
  }

  std::vector<std::string> prefix_expected(const std::string& p) const {
    std::vector<std::string> out;
    for (auto it = std::lower_bound(oracle_.begin(), oracle_.end(), p);
         it != oracle_.end() && starts_with(*it, p) && out.size() < prefix_limit; ++it) {
      out.push_back(*it);
    }
    return out;
  }

  // Ranked by (string_weight desc, key asc), as top_k documents.
  std::vector<std::string> topk_expected(const std::string& p) const {
    std::vector<std::pair<std::uint64_t, const std::string*>> all;
    for (auto it = std::lower_bound(oracle_.begin(), oracle_.end(), p);
         it != oracle_.end() && starts_with(*it, p); ++it) {
      all.emplace_back(api::string_weight(*it), &*it);
    }
    const std::size_t k = std::min(top_k, all.size());
    std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k), all.end(),
                      [](const auto& a, const auto& b) {
                        return a.first != b.first ? a.first > b.first : *a.second < *b.second;
                      });
    std::vector<std::string> out;
    for (std::size_t i = 0; i < k; ++i) out.push_back(*all[i].second);
    return out;
  }

  std::vector<std::string> intersect_expected(const std::vector<std::string>& terms) const {
    std::vector<std::uint32_t> hit;
    for (std::size_t t = 0; t < terms.size(); ++t) {
      const auto it = postings_.find(terms[t]);
      if (it == postings_.end()) return {};
      if (t == 0) {
        hit = it->second;
        continue;
      }
      std::vector<std::uint32_t> next;
      std::set_intersection(hit.begin(), hit.end(), it->second.begin(), it->second.end(),
                            std::back_inserter(next));
      hit.swap(next);
    }
    std::vector<std::string> out;
    for (const auto i : hit) out.push_back(sorted_lines_[i]);
    return out;
  }

  // One read through the public surface.
  struct answer {
    bool found = false;
    std::vector<std::string> keys;
    api::op_stats stats;
  };

  answer execute(const read_op& o) const {
    answer a;
    switch (o.k) {
      case kind::contains: {
        span s("core.contains");
        const auto r = dep_.words->contains(o.key, origin);
        a.found = r.value;
        a.stats = r.stats;
        break;
      }
      case kind::prefix: {
        span s("core.prefix_match");
        auto r = dep_.words->prefix_match(o.key, origin, prefix_limit);
        a.keys = std::move(r.value);
        a.stats = r.stats;
        break;
      }
      case kind::topk: {
        span s("core.top_k");
        auto r = dep_.words->top_k(o.key, top_k, origin);
        a.keys = std::move(r.value);
        a.stats = r.stats;
        break;
      }
      case kind::intersect: {
        span s("core.intersect");
        auto r = dep_.lines->intersect(o.terms, origin, 0);
        a.keys = std::move(r.value);
        a.stats = r.stats;
        break;
      }
    }
    return a;
  }

  void check(const read_op& o, const answer& a) {
    switch (o.k) {
      case kind::contains:
        res_.oracle.expect(contains_ok(o.key, a.found), "contains", cfg_.seed);
        break;
      case kind::prefix:
        res_.oracle.expect(a.keys == prefix_expected(o.key), "prefix_match", cfg_.seed);
        break;
      case kind::topk:
        res_.oracle.expect(a.keys == topk_expected(o.key), "top_k", cfg_.seed);
        break;
      case kind::intersect:
        res_.oracle.expect(a.keys == intersect_expected(o.terms), "intersect", cfg_.seed);
        break;
    }
  }

  // The typed kind: contains, through executor::run_contains.
  static bool is_typed(const read_op& o) { return o.k == kind::contains; }
  static const std::string& typed_query(const read_op& o) { return o.key; }
  static auto run_typed(serve::executor& ex, const api::string_index& idx,
                        const std::vector<std::string>& qs) {
    return ex.run_contains(idx, qs, origin).results;
  }
  static auto batch(const api::string_index& idx, const std::vector<std::string>& g) {
    return idx.contains_batch(g, origin);
  }
  [[nodiscard]] const api::string_index& typed_index() const { return *dep_.words; }
  static answer typed_answer(const api::op_result<bool>& r) { return {r.value, {}, r.stats}; }
  static std::size_t check_stride(const read_op&) { return 4; }
  net::network& network() { return *dep_.net; }
  std::vector<std::string> layer_stream() const {
    return wl::string_query_stream(oracle_, sh_.layer_stream, sub_seed(cfg_.seed, 5));
  }

  // ~5% single-writer updates: alternately insert a held-back word and erase
  // a stored one.
  std::string write_key(bool ins) {
    return ins ? pool_[next_insert_++] : oracle_[write_rng_.index(oracle_.size())];
  }
  api::op_stats apply_write(const std::string& key, bool ins) {
    return ins ? dep_.words->insert(key, origin) : dep_.words->erase(key, origin);
  }
  void follow_write(const std::string& key, bool ins) {
    const auto it = std::lower_bound(oracle_.begin(), oracle_.end(), key);
    if (ins) {
      oracle_.insert(it, key);
    } else {
      oracle_.erase(it);
    }
  }

  text_shape sh_;
  rng write_rng_;
  std::size_t next_insert_ = 0;
  std::vector<std::string> words_, pool_, lines_, oracle_, sorted_lines_;
  std::map<std::string, std::vector<std::uint32_t>> postings_;
  double words_build_s_ = 0, lines_build_s_ = 0;  // the latest set-up's two builds
  text_deployment dep_;
};

}  // namespace

run_result run_text(const run_config& cfg) {
  run_result res;
  text_workload(cfg, res).run();
  return res;
}

}  // namespace perfbench
