// The built-in string backends: thin adapters from string_index's uniform
// surface onto the promoted skip-trie text core and the distributed
// sorted-array baseline. Registered by register_builtin_string_backends()
// (called from the registry's ensure_builtins, never from global
// constructors). Both share one posting_index for multi-term intersection —
// the posting plane is layout-independent, so the differential suite pins
// the primary structures against each other while the intersection contract
// stays identical by construction.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/string_index.h"
#include "api/string_registry.h"
#include "core/posting_index.h"
#include "core/skip_trie.h"
#include "core/string_sorted.h"
#include "net/cursor.h"
#include "net/network.h"
#include "util/sw_assert.h"

namespace skipweb::api {

namespace {

constexpr string_capability string_base_caps =
    string_capability::contains | string_capability::insert | string_capability::erase |
    string_capability::prefix | string_capability::range | string_capability::top_k |
    string_capability::intersect | string_capability::snapshot;

// Replay-snapshot record keeping shared by both adapters (the string mirror
// of the spatial trie_adapter's): build input, seed, pre-build host count,
// and the structural op log with origins. Rows are recorded AFTER the core
// op succeeds, so failed ops leave no row.
struct replay_record {
  std::uint64_t seed;
  std::size_t pre_hosts;
  std::vector<std::string> build_keys;
  std::vector<string_replay_op> oplog;
  std::vector<std::string> oplog_keys;

  void save(persist::writer& w) const {
    w.add_u64("meta.kind", 1);  // replay
    w.add_u64("replay.seed", seed);
    w.add_u64("replay.pre_hosts", pre_hosts);
    add_string_table(w, "replay.build_keys", build_keys);
    w.add_vector("replay.oplog", oplog);
    add_string_table(w, "replay.oplog_keys", oplog_keys);
  }
  void record(std::uint64_t op, net::host_id origin, const std::string& key) {
    oplog.push_back({op, origin.value});
    oplog_keys.push_back(key);
  }
  void compact() {
    build_keys.shrink_to_fit();
    oplog.shrink_to_fit();
    oplog_keys.shrink_to_fit();
  }
};

// --- promoted skip-trie text core -------------------------------------------

class skiptrie_text_adapter final : public string_index {
 public:
  skiptrie_text_adapter(std::vector<std::string> keys, const index_options& opts,
                        net::network& net)
      : net_(&net),
        replay_{opts.seed(), net.host_count(), std::move(keys), {}, {}},
        impl_(replay_.build_keys, opts.seed(), net),
        postings_(net.host_count(), opts.seed() ^ 0x706f7374u) {
    for (const auto& k : replay_.build_keys) postings_.add(k);
  }

  [[nodiscard]] std::string_view backend() const override { return "string_skiptrie"; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] string_capability capabilities() const override {
    return string_base_caps | string_capability::native_prefix;
  }

  [[nodiscard]] op_result<bool> contains(const std::string& q,
                                         net::host_id origin) const override {
    return impl_.contains(q, origin);
  }

  op_stats insert(const std::string& s, net::host_id origin) override {
    const auto stats = impl_.insert(s, origin);
    postings_.add(s);
    replay_.record(0, origin, s);
    return stats;
  }
  op_stats erase(const std::string& s, net::host_id origin) override {
    const auto stats = impl_.erase(s, origin);
    postings_.remove(s);
    replay_.record(1, origin, s);
    return stats;
  }

  [[nodiscard]] op_result<std::vector<std::string>> prefix_match(
      const std::string& prefix, net::host_id origin, std::size_t limit) const override {
    return impl_.with_prefix(prefix, origin, limit);
  }

  // The trie pays the output-sensitive enumeration (one hop per subtree
  // node); the sorted baseline answers the same count from two binary
  // searches — the cost-shape contrast the differential suite pins.
  [[nodiscard]] op_result<std::uint64_t> prefix_count(const std::string& prefix,
                                                      net::host_id origin) const override {
    return impl_.prefix_count(prefix, origin);
  }

  // Same walk and receipt as prefix_match, ranked in place.
  [[nodiscard]] op_result<std::vector<std::string>> top_k(const std::string& prefix,
                                                          std::size_t k,
                                                          net::host_id origin) const override {
    return impl_.top_k(prefix, k, origin);
  }

  [[nodiscard]] op_result<std::vector<std::string>> lex_range(
      const std::string& lo, const std::string& hi, net::host_id origin,
      std::size_t limit) const override {
    return impl_.range(lo, hi, origin, limit);
  }

  [[nodiscard]] op_result<std::vector<std::string>> intersect(
      const std::vector<std::string>& terms, net::host_id origin,
      std::size_t limit) const override {
    net::cursor cur(*net_, origin);
    op_result<std::vector<std::string>> out;
    out.value = postings_.intersect(terms, cur, limit);
    out.stats = op_stats::of(cur);
    return out;
  }

  [[nodiscard]] memory_footprint footprint() const override {
    auto f = impl_.footprint();
    f += postings_.footprint();
    return f;
  }

  void save_snapshot(persist::writer& w) const override { replay_.save(w); }
  void compact() override {
    replay_.compact();
    postings_.compact();
  }

 private:
  net::network* net_;
  // Replay record precedes impl_: pre_hosts must read host_count() before
  // the build grows the deployment (members initialize in declaration
  // order), and impl_ borrows build_keys at construction.
  replay_record replay_;
  core::skip_trie impl_;
  core::posting_index postings_;
};

// --- sorted-array binary-search baseline ------------------------------------

class sorted_adapter final : public string_index {
 public:
  sorted_adapter(std::vector<std::string> keys, const index_options& opts, net::network& net)
      : net_(&net),
        replay_{opts.seed(), net.host_count(), std::move(keys), {}, {}},
        impl_(replay_.build_keys, opts.seed(), net),
        postings_(net.host_count(), opts.seed() ^ 0x706f7374u) {
    for (const auto& k : replay_.build_keys) postings_.add(k);
  }

  [[nodiscard]] std::string_view backend() const override { return "string_sorted"; }
  [[nodiscard]] std::size_t size() const override { return impl_.size(); }
  [[nodiscard]] string_capability capabilities() const override { return string_base_caps; }

  [[nodiscard]] op_result<bool> contains(const std::string& q,
                                         net::host_id origin) const override {
    return impl_.contains(q, origin);
  }

  op_stats insert(const std::string& s, net::host_id origin) override {
    const auto stats = impl_.insert(s, origin);
    postings_.add(s);
    replay_.record(0, origin, s);
    return stats;
  }
  op_stats erase(const std::string& s, net::host_id origin) override {
    const auto stats = impl_.erase(s, origin);
    postings_.remove(s);
    replay_.record(1, origin, s);
    return stats;
  }

  [[nodiscard]] op_result<std::vector<std::string>> prefix_match(
      const std::string& prefix, net::host_id origin, std::size_t limit) const override {
    return impl_.prefix_match(prefix, origin, limit);
  }

  [[nodiscard]] op_result<std::uint64_t> prefix_count(const std::string& prefix,
                                                      net::host_id origin) const override {
    return impl_.prefix_count(prefix, origin);
  }

  [[nodiscard]] op_result<std::vector<std::string>> lex_range(
      const std::string& lo, const std::string& hi, net::host_id origin,
      std::size_t limit) const override {
    return impl_.range(lo, hi, origin, limit);
  }

  [[nodiscard]] op_result<std::vector<std::string>> intersect(
      const std::vector<std::string>& terms, net::host_id origin,
      std::size_t limit) const override {
    net::cursor cur(*net_, origin);
    op_result<std::vector<std::string>> out;
    out.value = postings_.intersect(terms, cur, limit);
    out.stats = op_stats::of(cur);
    return out;
  }

  [[nodiscard]] memory_footprint footprint() const override {
    auto f = impl_.footprint();
    f += postings_.footprint();
    return f;
  }

  void save_snapshot(persist::writer& w) const override { replay_.save(w); }
  void compact() override {
    impl_.compact();
    replay_.compact();
    postings_.compact();
  }

 private:
  net::network* net_;
  replay_record replay_;  // before impl_, as in skiptrie_text_adapter
  core::string_sorted impl_;
  core::posting_index postings_;
};

}  // namespace

void register_builtin_string_backends(const string_registrar& add) {
  add("string_skiptrie",
      [](std::vector<std::string> keys, const index_options& opts, net::network& net) {
        return std::make_unique<skiptrie_text_adapter>(std::move(keys), opts, net);
      });
  add("string_sorted",
      [](std::vector<std::string> keys, const index_options& opts, net::network& net) {
        return std::make_unique<sorted_adapter>(std::move(keys), opts, net);
      });
}

}  // namespace skipweb::api
