#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "api/string_index.h"  // api::weight_ranker
#include "net/cursor.h"
#include "net/network.h"
#include "seq/trie.h"
#include "util/membership.h"
#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// Distributed trie skip-web (paper §3.2): the skip-web instantiation for
// character strings over a fixed alphabet.
//
// Level l holds one compressed trie per l-bit membership prefix set. For
// T ⊆ S every node of trie(T) — identified by its full path string — is a
// node of trie(S), so inter-level hyperlinks are the identity on paths: the
// query jumps from its deepest matched node at level l to the same node one
// level denser and resumes the descent, doing expected O(1) extra steps per
// level (Lemma 4). String search therefore costs O(log n) expected messages
// even when the underlying trie has Θ(n) depth.
//
// Concurrency contract (audited for the serving executor): the query surface
// (locate/contains/longest_common_prefix/with_prefix/prefix_count/top_k/
// range) reads tries_, bits_ and anchors_ without writing any shared state —
// traffic accounting rides in the cursor's local receipt — so concurrent
// const queries are data-race free. insert/erase are single-writer, never
// concurrent with queries.
class skip_trie {
 public:
  skip_trie(const std::vector<std::string>& keys, std::uint64_t seed, net::network& net)
      : net_(&net), rng_(seed) {
    SW_EXPECTS(!keys.empty());
    levels_ = levels_for(keys.size());
    tries_.resize(static_cast<std::size_t>(levels_) + 1);
    for (const auto& k : keys) {
      const auto bits = util::draw_membership(rng_);
      const bool fresh = bits_.emplace(k, bits).second;
      SW_EXPECTS(fresh);  // distinct keys
    }
    for (int l = 0; l <= levels_; ++l) {
      std::unordered_map<std::uint64_t, std::vector<std::string>> groups;
      for (const auto& k : keys) groups[util::prefix_of(bits_.at(k), l).bits].push_back(k);
      for (auto& [prefix, members] : groups) {
        tries_[static_cast<std::size_t>(l)].emplace(prefix, seq::trie(members));
      }
    }
    anchors_.reserve(net_->host_count());
    for (std::size_t h = 0; h < net_->host_count(); ++h) {
      anchors_.push_back(bits_.at(keys[h % keys.size()]));
      net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
    }
    charge_all(+1);
  }

  skip_trie(const skip_trie&) = delete;
  skip_trie& operator=(const skip_trie&) = delete;

  [[nodiscard]] std::size_t size() const { return bits_.size(); }
  [[nodiscard]] int levels() const { return levels_; }
  [[nodiscard]] const seq::trie& ground() const { return tries_[0].begin()->second; }

  struct locate_result {
    std::string matched_path;   // deepest ground-trie node path that prefixes q
    std::size_t matched = 0;    // characters of q matched (incl. partial edge)
    bool is_key = false;        // q itself is stored
    api::op_stats stats;
  };

  // Distributed descent for a query string (exact-match / longest-prefix).
  [[nodiscard]] locate_result locate(const std::string& q, net::host_id origin) const {
    net::cursor cur(*net_, origin);
    const auto w = anchors_[origin.value];
    std::string path;  // deepest matched node path so far (root of next tree)
    seq::trie::locate_result last{};
    for (int l = levels_; l >= 0; --l) {
      const auto prefix = util::prefix_of(w, l).bits;
      auto it = tries_[static_cast<std::size_t>(l)].find(prefix);
      if (it == tries_[static_cast<std::size_t>(l)].end()) continue;
      const seq::trie& t = it->second;
      int node = t.node_for_path(path);
      SW_ASSERT(node >= 0);  // subset property: the path exists one level denser
      cur.move_to(host_of(l, prefix, node));
      last = descend(t, node, q, l, prefix, cur);
      path = t.node(last.node).path;
    }
    locate_result out;
    out.matched_path = path;
    out.matched = last.matched;
    const seq::trie& g = ground();
    out.is_key = last.partial_edge == 0 && last.matched == q.size() &&
                 g.node(g.node_for_path(path)).is_key && path.size() == q.size();
    out.stats = api::op_stats::of(cur);
    return out;
  }

  [[nodiscard]] api::op_result<bool> contains(const std::string& q, net::host_id origin) const {
    const auto r = locate(q, origin);
    return {r.is_key, r.stats};
  }

  // Longest prefix of q that prefixes any stored string (paper's string
  // queries; used for approximate/auto-complete searches).
  [[nodiscard]] api::op_result<std::string> longest_common_prefix(const std::string& q,
                                                                  net::host_id origin) const {
    const auto r = locate(q, origin);
    return {q.substr(0, r.matched), r.stats};
  }

  // All stored strings with the given prefix (the ISBN/publisher scenario),
  // ascending, capped at `limit` (0 = none).
  [[nodiscard]] api::op_result<std::vector<std::string>> with_prefix(
      const std::string& prefix, net::host_id origin, std::size_t limit = 0) const {
    api::op_result<std::vector<std::string>> res;
    res.stats = visit_prefix(prefix, origin, limit,
                             [&](const std::string& key) { res.value.push_back(key); });
    return res;
  }

  // How many stored strings extend `prefix`: the same walk and receipt as
  // with_prefix, without copying a key.
  [[nodiscard]] api::op_result<std::uint64_t> prefix_count(const std::string& prefix,
                                                           net::host_id origin) const {
    std::uint64_t n = 0;
    const auto stats = visit_prefix(prefix, origin, 0, [&](const std::string&) { ++n; });
    return {n, stats};
  }

  // The k strings extending `prefix` ranked by (string_weight desc, key
  // asc): the same walk and receipt as with_prefix, ranking node paths in
  // place and copying only the k winners.
  [[nodiscard]] api::op_result<std::vector<std::string>> top_k(const std::string& prefix,
                                                               std::size_t k,
                                                               net::host_id origin) const {
    api::weight_ranker rank(k);
    const auto stats =
        visit_prefix(prefix, origin, 0, [&](const std::string& key) { rank.offer(key); });
    return {rank.take(), stats};
  }

  // All stored strings in the closed lexicographic window [lo, hi] (the
  // string plane's range query): the skip levels route to the window's left
  // boundary (the O(log n) descent every query pays), then the ground trie
  // is walked with interval pruning — a subtree rooted at path p holds
  // exactly the keys extending p, so it is skipped entirely when p > hi
  // (every extension sorts after the window) or when p < lo without
  // prefixing lo (every extension sorts before it). Visited nodes are the
  // answer plus the boundary paths, each one priced hop, in lexicographic
  // order — deadline give-up returns an honest prefix.
  [[nodiscard]] api::op_result<std::vector<std::string>> range(const std::string& lo,
                                                               const std::string& hi,
                                                               net::host_id origin,
                                                               std::size_t limit = 0) const {
    SW_EXPECTS(lo <= hi);
    const auto route = locate(lo, origin);
    net::cursor cur(*net_, origin);
    api::op_result<std::vector<std::string>> res;
    const seq::trie& g = ground();
    const std::uint64_t p0 = tries_[0].begin()->first;
    std::vector<int> stack{g.root()};
    while (!stack.empty()) {
      if (limit != 0 && res.value.size() >= limit) break;
      if (cur.expired()) {
        cur.mark_degraded();
        break;
      }
      const int v = stack.back();
      stack.pop_back();
      cur.move_to(host_of(0, p0, v));
      const auto& nd = g.node(v);
      cur.note_comparisons(2);
      if (nd.path > hi) continue;  // whole subtree sorts after the window
      if (nd.path < lo && lo.compare(0, nd.path.size(), nd.path) != 0) {
        continue;  // not a prefix of lo: whole subtree sorts before it
      }
      if (nd.is_key && nd.path >= lo) res.value.push_back(nd.path);
      for (auto it = nd.children.rbegin(); it != nd.children.rend(); ++it) {
        stack.push_back(it->second);
      }
    }
    res.stats = route.stats + api::op_stats::of(cur);
    return res;
  }

  // Insert a string (paper §4): O(1) structural edits per level of the
  // string's own prefix chain.
  api::op_stats insert(const std::string& s, net::host_id origin) {
    SW_EXPECTS(bits_.find(s) == bits_.end());
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    const auto bits = util::draw_membership(rng_);
    bits_.emplace(s, bits);
    std::string path;
    for (int l = levels_; l >= 0; --l) {
      const auto prefix = util::prefix_of(bits, l).bits;
      auto [it, fresh] = tries_[static_cast<std::size_t>(l)].try_emplace(prefix);
      seq::trie& t = it->second;
      int node = fresh ? t.root() : t.node_for_path(path);
      if (node < 0) node = t.root();
      cur.move_to(host_of(l, prefix, node));
      const auto loc = descend(t, node, s, l, prefix, cur);
      path = t.node(loc.node).path;
      const auto made = t.insert(s);
      charge_key(l, prefix, s, +1);
      for (int created : {made.a, made.b}) {
        if (created >= 0) {
          cur.move_to(host_of(l, prefix, created));
          charge_node(l, prefix, created, +1);
        }
      }
    }
    return api::op_stats::of(cur);
  }

  api::op_stats erase(const std::string& s, net::host_id origin) {
    SW_EXPECTS(bits_.size() >= 2);  // the structure never becomes empty
    auto bit_it = bits_.find(s);
    SW_EXPECTS(bit_it != bits_.end());
    const auto bits = bit_it->second;
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    std::string path;
    for (int l = levels_; l >= 0; --l) {
      const auto prefix = util::prefix_of(bits, l).bits;
      auto it = tries_[static_cast<std::size_t>(l)].find(prefix);
      SW_ASSERT(it != tries_[static_cast<std::size_t>(l)].end());
      seq::trie& t = it->second;
      int node = t.node_for_path(path);
      if (node < 0) node = t.root();
      cur.move_to(host_of(l, prefix, node));
      const auto loc = descend(t, node, s, l, prefix, cur);
      path = t.node(loc.node).path;
      const auto freed = t.erase(s);
      charge_key(l, prefix, s, -1);
      for (int gone : {freed.a, freed.b}) {
        if (gone >= 0) charge_node(l, prefix, gone, -1);
      }
      if (t.size() == 0) tries_[static_cast<std::size_t>(l)].erase(it);
      // `path` was captured before this level's erase, so the subset
      // property still guarantees it exists one level denser.
    }
    bits_.erase(bit_it);
    return api::op_stats::of(cur);
  }

  // Structural invariants, for tests after randomized churn:
  //  - partition by prefix: level l's tries hold exactly the stored keys
  //    grouped by their l-bit membership prefix (S_b = the b-prefixed keys);
  //  - nesting: every node path of a level-l trie is a node path of the
  //    parent-prefix trie one level denser (what the identity-on-paths
  //    hyperlinks rely on, Lemma 4's setting);
  //  - each trie is internally consistent: path = parent path + edge,
  //    children sorted by first edge byte (unsigned), and every non-root
  //    node is branching or a key end (compression leaves nothing else).
  [[nodiscard]] bool check_invariants() const {
    for (int l = 0; l <= levels_; ++l) {
      const auto& tier = tries_[static_cast<std::size_t>(l)];
      // Partition: every stored key lives in (exactly) its prefix's trie.
      std::unordered_map<std::uint64_t, std::size_t> counts;
      for (const auto& [k, bits] : bits_) {
        const auto prefix = util::prefix_of(bits, l).bits;
        const auto it = tier.find(prefix);
        if (it == tier.end() || !it->second.contains(k)) return false;
        ++counts[prefix];
      }
      if (counts.size() != tier.size()) return false;  // no empty tries linger
      for (const auto& [prefix, t] : tier) {
        const auto cit = counts.find(prefix);
        if (cit == counts.end() || t.size() != cit->second) return false;

        const seq::trie* denser = nullptr;
        if (l > 0) {
          const auto parent_prefix = util::level_prefix{l, prefix}.parent().bits;
          const auto pit = tries_[static_cast<std::size_t>(l - 1)].find(parent_prefix);
          if (pit == tries_[static_cast<std::size_t>(l - 1)].end()) return false;
          denser = &pit->second;
        }
        std::vector<int> stack{t.root()};
        while (!stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          const auto& nd = t.node(v);
          if (v != t.root()) {
            if (nd.edge.empty()) return false;
            if (t.node(nd.parent).path + nd.edge != nd.path) return false;
            if (!nd.is_key && nd.children.size() < 2) return false;
          }
          if (t.node_for_path(nd.path) != v) return false;
          if (denser != nullptr && denser->node_for_path(nd.path) < 0) return false;
          for (std::size_t i = 0; i < nd.children.size(); ++i) {
            const auto& [c, child] = nd.children[i];
            if (i > 0 && !(static_cast<unsigned char>(nd.children[i - 1].first) <
                           static_cast<unsigned char>(c))) {
              return false;
            }
            const auto& edge = t.node(child).edge;
            if (edge.empty() || edge[0] != c) return false;
            stack.push_back(child);
          }
        }
      }
    }
    return true;
  }

  [[nodiscard]] net::host_id host_of(int level, std::uint64_t prefix, int node) const {
    std::uint64_t z = static_cast<std::uint64_t>(level) * 0x9e3779b97f4a7c15ull + prefix;
    z ^= static_cast<std::uint64_t>(node) + 0x2545f4914f6cdd1dull + (z << 6) + (z >> 2);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return net::host_id{static_cast<std::uint32_t>((z ^ (z >> 31)) % net_->host_count())};
  }

  // Measured resident bytes (DESIGN.md §12): the trie node arenas (child
  // tables embedded) are arena bytes; the prefix→trie maps, the per-key
  // membership map with its heap strings, and the anchors are directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f;
    f.directory_bytes = api::vector_bytes(tries_) + api::map_bytes(bits_) +
                        api::vector_bytes(anchors_);
    for (const auto& [key, unused] : bits_) f.directory_bytes += key.capacity();
    for (const auto& level : tries_) {
      f.directory_bytes += api::map_bytes(level);
      for (const auto& [prefix, t] : level) f.arena_bytes += t.resident_bytes();
    }
    return f;
  }

 private:
  // The one prefix-subtree walk behind with_prefix / prefix_count / top_k:
  // locate the subtree via the skip levels, then walk it, paying one hop per
  // trie node visited (output-sensitive enumeration), and hand each stored
  // key's node path to `emit` — a reference into the ground trie, valid for
  // the call. Stops after `limit` keys (0 = none).
  template <typename Emit>
  api::op_stats visit_prefix(const std::string& prefix, net::host_id origin, std::size_t limit,
                             Emit&& emit) const {
    net::cursor cur(*net_, origin);
    const auto loc = locate(prefix, origin);
    if (loc.matched < prefix.size()) return loc.stats;  // no stored string extends it
    const seq::trie& g = ground();
    const std::uint64_t p0 = tries_[0].begin()->first;
    int top = g.node_for_path(loc.matched_path);
    SW_ASSERT(top >= 0);
    if (loc.matched > loc.matched_path.size()) {
      // The prefix ends inside an edge: the subtree below that edge matches.
      const auto& children = g.node(top).children;
      const char c = prefix[loc.matched_path.size()];
      int child = -1;
      for (const auto& [ch, idx] : children) {
        if (ch == c) child = idx;
      }
      SW_ASSERT(child >= 0);
      top = child;
    }
    // DFS over the matching subtree, hopping to each node's host. Children
    // are sorted by first byte and pushed in reverse, so keys are emitted in
    // ascending lexicographic order — a deadline give-up or the limit cap
    // therefore leaves an honest lexicographic prefix.
    std::size_t emitted = 0;
    std::vector<int> stack{top};
    while (!stack.empty()) {
      if (limit != 0 && emitted >= limit) break;
      if (cur.expired()) {
        cur.mark_degraded();
        break;
      }
      const int v = stack.back();
      stack.pop_back();
      cur.move_to(host_of(0, p0, v));
      const auto& nd = g.node(v);
      if (nd.is_key) {
        emit(nd.path);
        ++emitted;
      }
      for (auto it = nd.children.rbegin(); it != nd.children.rend(); ++it) {
        stack.push_back(it->second);
      }
    }
    return loc.stats + api::op_stats::of(cur);
  }

  static int levels_for(std::size_t n) {
    int l = 0;
    while ((std::size_t{1} << l) < n) ++l;
    return l;
  }

  seq::trie::locate_result descend(const seq::trie& t, int node, const std::string& q, int level,
                                   std::uint64_t prefix, net::cursor& cur) const {
    // Walk edge by edge so each visited trie node charges its hop, then let
    // locate_from report the partial-edge tail from the final node.
    for (;;) {
      const int step = one_step(t, node, q);
      if (step == node) break;
      node = step;
      cur.move_to(host_of(level, prefix, node));
    }
    return t.locate_from(node, q);
  }

  [[nodiscard]] int one_step(const seq::trie& t, int node, const std::string& q) const {
    const auto& nd = t.node(node);
    const std::size_t depth = nd.path.size();
    if (depth >= q.size()) return node;
    int child = -1;
    for (const auto& [c, idx] : nd.children) {
      if (c == q[depth]) child = idx;
    }
    if (child < 0) return node;
    const auto& edge = t.node(child).edge;
    if (q.size() - depth < edge.size()) return node;
    if (q.compare(depth, edge.size(), edge) != 0) return node;
    return child;
  }

  void charge_node(int level, std::uint64_t prefix, int node, std::int64_t sign) {
    const auto h = host_of(level, prefix, node);
    net_->charge(h, net::memory_kind::node, sign);
    net_->charge(h, net::memory_kind::host_ref, 3 * sign);
  }

  void charge_key(int level, std::uint64_t prefix, const std::string& s, std::int64_t sign) {
    const auto salt = static_cast<int>(std::hash<std::string>{}(s) & 0x3fffffff);
    const auto h = host_of(level, prefix, salt);
    net_->charge(h, level == 0 ? net::memory_kind::item : net::memory_kind::pointer, sign);
  }

  void charge_all(std::int64_t sign) {
    for (int l = 0; l <= levels_; ++l) {
      for (const auto& [prefix, t] : tries_[static_cast<std::size_t>(l)]) {
        for (int i = 0; i < static_cast<int>(t.node_count()); ++i) charge_node(l, prefix, i, sign);
        for (const auto& k : t.keys()) charge_key(l, prefix, k, sign);
      }
    }
  }

  std::vector<std::unordered_map<std::uint64_t, seq::trie>> tries_;
  std::unordered_map<std::string, util::membership_bits> bits_;
  net::network* net_;
  util::rng rng_;
  std::vector<util::membership_bits> anchors_;
  int levels_ = 0;
};

}  // namespace skipweb::core
