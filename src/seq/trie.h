#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/sw_assert.h"

namespace skipweb::seq {

// Compressed digital trie (radix tree) over a fixed alphabet (paper §2.1 and
// §3.2). Nodes are the root, every branching position, and every position
// where a stored string ends; single-child chains are compressed into
// labelled edges. The range of a node is the set of stored strings below it;
// the range of an edge is the strings passing through it.
//
// Subset property used by the skip-web levels: for T ⊆ S, every node of
// trie(T) appears — identified by its full path string — as a node of
// trie(S) (two strings of T diverging at a position also diverge in S, and a
// string ending in T also ends in S). Tests verify this on random subsets.
class trie {
 public:
  trie() { root_ = new_node(-1, "", ""); }

  explicit trie(const std::vector<std::string>& keys) : trie() {
    for (const auto& k : keys) insert(k);
  }

  [[nodiscard]] std::size_t size() const { return key_count_; }
  [[nodiscard]] std::size_t node_count() const { return live_nodes_; }
  [[nodiscard]] int root() const { return root_; }

  struct node_t {
    std::int32_t parent = -1;
    std::string edge;              // label on the edge from the parent
    std::string path;              // full string from the root (node identity)
    std::vector<std::pair<char, std::int32_t>> children;  // sorted by first byte
    bool is_key = false;
  };

  [[nodiscard]] const node_t& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }

  // Allocator-held bytes of the node arena: the slot vector plus every
  // node's heap strings and child table (capacity-based; small strings that
  // fit the SSO buffer report their capacity anyway, a deliberate
  // conservative overcount — the buffer is resident either way).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    std::uint64_t b = static_cast<std::uint64_t>(nodes_.capacity()) * sizeof(node_t) +
                      static_cast<std::uint64_t>(free_.capacity()) * sizeof(int);
    for (const node_t& v : nodes_) {
      b += v.edge.capacity() + v.path.capacity() +
           v.children.capacity() * sizeof(std::pair<char, std::int32_t>);
    }
    return b;
  }

  // Result of descending toward q: the deepest node whose path is a prefix
  // of q, plus how many further characters of q matched inside the outgoing
  // edge (0 when q diverges or ends exactly at the node).
  struct locate_result {
    int node = -1;
    std::size_t matched = 0;        // total characters of q matched (path + partial edge)
    std::size_t partial_edge = 0;   // characters matched inside the outgoing edge
  };

  [[nodiscard]] locate_result locate(const std::string& q, std::uint64_t* steps = nullptr) const {
    return locate_from(root_, q, steps);
  }

  // Continue the descent from `start`, whose path must be a prefix of q.
  // `steps` counts nodes visited — the distributed structure's per-level
  // message-relevant walk length (paper Lemma 4 bounds its expectation).
  [[nodiscard]] locate_result locate_from(int start, const std::string& q,
                                          std::uint64_t* steps = nullptr) const {
    SW_EXPECTS(q.size() >= node(start).path.size() &&
               std::equal(node(start).path.begin(), node(start).path.end(), q.begin()));
    int cur = start;
    std::size_t depth = node(start).path.size();
    std::uint64_t n_steps = 1;
    for (;;) {
      if (depth == q.size()) break;
      const int child = child_for(cur, q[depth]);
      if (child < 0) break;
      const std::string& edge = node(child).edge;
      const std::size_t can = std::min(edge.size(), q.size() - depth);
      std::size_t k = 0;
      while (k < can && edge[k] == q[depth + k]) ++k;
      if (k < edge.size()) {
        // Divergence (or q exhausted) inside the edge: the maximal range
        // containing q is this link.
        if (steps != nullptr) *steps = n_steps;
        return {cur, depth + k, k};
      }
      cur = child;
      depth += edge.size();
      ++n_steps;
    }
    if (steps != nullptr) *steps = n_steps;
    return {cur, depth, 0};
  }

  [[nodiscard]] bool contains(const std::string& q) const {
    const auto loc = locate(q);
    return loc.partial_edge == 0 && loc.matched == q.size() && node(loc.node).is_key &&
           node(loc.node).path.size() == q.size();
  }

  // Node index for an exact path string, or -1; how skip-web levels jump to
  // "the same node one level denser".
  [[nodiscard]] int node_for_path(const std::string& path) const {
    auto it = path_index_.find(path);
    return it == path_index_.end() ? -1 : it->second;
  }

  // Longest prefix of q that is a prefix of some stored string.
  [[nodiscard]] std::string longest_common_prefix(const std::string& q) const {
    const auto loc = locate(q);
    return q.substr(0, loc.matched);
  }

  // All stored strings with the given prefix, in sorted order, capped at
  // `limit` (0 = unlimited).
  [[nodiscard]] std::vector<std::string> with_prefix(const std::string& prefix,
                                                     std::size_t limit = 0) const {
    std::vector<std::string> out;
    const auto loc = locate(prefix);
    if (loc.matched < prefix.size()) return out;  // diverged or fell off: no matches
    int top = loc.node;
    if (loc.partial_edge > 0) {
      // The prefix ends inside the edge to one child; exactly that child's
      // subtree matches.
      top = child_for(loc.node, prefix[node(loc.node).path.size()]);
      SW_ASSERT(top >= 0);
    }
    collect(top, out, limit);
    return out;
  }

  // Structural result of an update: the nodes created (insert) or freed
  // (erase), at most two of each. The distributed layer uses these to keep
  // per-host memory ledgers honest.
  struct update_info {
    int a = -1, b = -1;
  };

  update_info insert(const std::string& s) {
    const auto loc = locate(s);
    node_t& v = nodes_[static_cast<std::size_t>(loc.node)];
    if (loc.partial_edge == 0 && loc.matched == s.size()) {
      SW_EXPECTS(!v.is_key);  // duplicate keys are not representable
      v.is_key = true;
      ++key_count_;
      return {};
    }
    if (loc.partial_edge == 0) {
      // Fell off at a node: add a fresh leaf child.
      const int leaf = new_node(loc.node, s.substr(loc.matched), s);
      nodes_[static_cast<std::size_t>(leaf)].is_key = true;
      link_child(loc.node, leaf);
      ++key_count_;
      return {leaf, -1};
    }
    // Diverged inside the edge to `child` after matching partial_edge chars:
    // split the edge with a new mid node.
    const std::size_t node_depth = node(loc.node).path.size();
    const int child = child_for(loc.node, s[node_depth]);
    SW_ASSERT(child >= 0);
    const std::string edge = node(child).edge;
    const std::size_t k = loc.partial_edge;
    SW_ASSERT(k > 0 && k < edge.size());

    const int mid = new_node(loc.node, edge.substr(0, k), node(loc.node).path + edge.substr(0, k));
    unlink_child(loc.node, child);
    link_child(loc.node, mid);
    nodes_[static_cast<std::size_t>(child)].parent = mid;
    nodes_[static_cast<std::size_t>(child)].edge = edge.substr(k);
    link_child(mid, child);

    if (loc.matched == s.size()) {
      nodes_[static_cast<std::size_t>(mid)].is_key = true;  // s ends exactly at mid
      ++key_count_;
      return {mid, -1};
    }
    const int leaf = new_node(mid, s.substr(loc.matched), s);
    nodes_[static_cast<std::size_t>(leaf)].is_key = true;
    link_child(mid, leaf);
    ++key_count_;
    return {mid, leaf};
  }

  update_info erase(const std::string& s) {
    const int v = node_for_path(s);
    SW_EXPECTS(v >= 0 && node(v).is_key);
    nodes_[static_cast<std::size_t>(v)].is_key = false;
    --key_count_;
    update_info freed;
    cleanup(v, &freed);
    return freed;
  }

  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    collect(root_, out, 0);
    return out;
  }

 private:
  // Child tables are ordered by first edge byte as UNSIGNED — std::string's
  // order — so a pre-order walk emits stored strings in ascending order for
  // any bytes, not only ASCII.
  static bool child_before(const std::pair<char, std::int32_t>& pair, char key) {
    return static_cast<unsigned char>(pair.first) < static_cast<unsigned char>(key);
  }

  [[nodiscard]] int child_for(int nidx, char c) const {
    const auto& ch = node(nidx).children;
    auto it = std::lower_bound(ch.begin(), ch.end(), c, child_before);
    return (it != ch.end() && it->first == c) ? it->second : -1;
  }

  int new_node(int parent, std::string edge, std::string path) {
    SW_EXPECTS(parent < 0 || !edge.empty());
    int idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      nodes_[static_cast<std::size_t>(idx)] = node_t{};
    } else {
      idx = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
    }
    node_t& n = nodes_[static_cast<std::size_t>(idx)];
    n.parent = parent;
    n.edge = std::move(edge);
    n.path = std::move(path);
    path_index_[n.path] = idx;
    ++live_nodes_;
    return idx;
  }

  void free_node(int idx) {
    path_index_.erase(nodes_[static_cast<std::size_t>(idx)].path);
    free_.push_back(idx);
    --live_nodes_;
  }

  void link_child(int parent, int child) {
    auto& ch = nodes_[static_cast<std::size_t>(parent)].children;
    const char c = nodes_[static_cast<std::size_t>(child)].edge[0];
    auto it = std::lower_bound(ch.begin(), ch.end(), c, child_before);
    SW_ASSERT(it == ch.end() || it->first != c);
    ch.insert(it, {c, child});
  }

  void unlink_child(int parent, int child) {
    auto& ch = nodes_[static_cast<std::size_t>(parent)].children;
    for (auto it = ch.begin(); it != ch.end(); ++it) {
      if (it->second == child) {
        ch.erase(it);
        return;
      }
    }
    SW_ASSERT(false);
  }

  // Restore the invariant "every non-root node is branching or a key-end"
  // after a key removal at v; records freed nodes into `freed`.
  void cleanup(int v, update_info* freed) {
    node_t& n = nodes_[static_cast<std::size_t>(v)];
    if (v == root_ || n.is_key) return;
    if (n.children.empty()) {
      const int parent = n.parent;
      unlink_child(parent, v);
      free_node(v);
      record_freed(freed, v);
      cleanup(parent, freed);
      return;
    }
    if (n.children.size() == 1) {
      // Merge v into its only child: the child keeps its path identity, its
      // edge absorbs v's edge.
      const int child = n.children.front().second;
      const int parent = n.parent;
      nodes_[static_cast<std::size_t>(child)].edge =
          n.edge + nodes_[static_cast<std::size_t>(child)].edge;
      nodes_[static_cast<std::size_t>(child)].parent = parent;
      unlink_child(parent, v);
      free_node(v);
      record_freed(freed, v);
      link_child(parent, child);
    }
  }

  static void record_freed(update_info* freed, int v) {
    if (freed->a < 0) {
      freed->a = v;
    } else {
      SW_ASSERT(freed->b < 0);
      freed->b = v;
    }
  }

  void collect(int nidx, std::vector<std::string>& out, std::size_t limit) const {
    if (limit != 0 && out.size() >= limit) return;
    const node_t& n = node(nidx);
    if (n.is_key) out.push_back(n.path);
    for (const auto& [c, child] : n.children) {
      if (limit != 0 && out.size() >= limit) return;
      collect(child, out, limit);
    }
  }

  std::vector<node_t> nodes_;
  std::vector<int> free_;
  std::unordered_map<std::string, int> path_index_;
  int root_ = -1;
  std::size_t live_nodes_ = 0;
  std::size_t key_count_ = 0;
};

}  // namespace skipweb::seq
