#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/distributed_index.h"  // api::unsupported_operation
#include "api/memory_footprint.h"
#include "api/op_stats.h"
#include "net/types.h"
#include "util/sw_assert.h"

namespace skipweb::api {

// The text counterpart of distributed_index / spatial_index: one abstract
// surface over every string-keyed skip-web in the library (the promoted
// skip-trie text core and the sorted-array baseline), so benches, tests and
// workloads drive *any* of them through the registry (string_registry.h)
// exactly like the 1-D and spatial backends. Keys are arbitrary byte
// strings; order everywhere is plain lexicographic byte order, which fixes
// the output order of prefix and range queries across backends.

// What a string backend can do. `native_prefix` marks backends whose own
// layout answers prefix queries by structural descent (the trie walks its
// subtree); without it the backend prices whatever sweep it affords (the
// sorted array scans its contiguous window).
enum class string_capability : std::uint32_t {
  contains = 1u << 0,
  insert = 1u << 1,
  erase = 1u << 2,
  prefix = 1u << 3,
  range = 1u << 4,
  top_k = 1u << 5,
  intersect = 1u << 6,
  native_prefix = 1u << 7,
  // Persistence (DESIGN.md §13/§14): save_snapshot() serializes a
  // deterministic replay record and api::restore_string_index rebuilds a
  // byte-identical twin.
  snapshot = 1u << 8,
};

[[nodiscard]] constexpr string_capability operator|(string_capability a, string_capability b) {
  return static_cast<string_capability>(static_cast<std::uint32_t>(a) |
                                        static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr bool has(string_capability set, string_capability c) {
  return (static_cast<std::uint32_t>(set) & static_cast<std::uint32_t>(c)) ==
         static_cast<std::uint32_t>(c);
}

// Completion weight of a stored key: a pure function of the bytes (splitmix
// finalizer over a running mix), shared by every backend AND the test
// oracles, so top-k rankings are deterministic and differentially testable
// without storing per-key payloads. Real deployments would plug popularity
// counters in here; the contract (order by weight desc, then key asc) stays.
[[nodiscard]] inline std::uint64_t string_weight(std::string_view key) {
  std::uint64_t z = 0x9e3779b97f4a7c15ull;
  for (const char c : key) {
    z ^= static_cast<std::uint8_t>(c);
    z *= 0xbf58476d1ce4e5b9ull;
  }
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Streaming top-k under the (string_weight desc, key asc) order: each
// offered key is weighed once and held by pointer in a k-entry heap whose
// worst entry sits on top, so ranking N keys costs O(N log k) and copies only
// the k winners. Offered strings must stay alive until take(). Stored keys
// are distinct, so the order is total and the winners are exactly the first
// k of a full sort.
class weight_ranker {
 public:
  explicit weight_ranker(std::size_t k) : k_(k) { SW_EXPECTS(k > 0); }

  void offer(const std::string& key) {
    const entry e{string_weight(key), &key};
    if (heap_.size() < k_) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), ranks_before);
    } else if (ranks_before(e, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), ranks_before);
      heap_.back() = e;
      std::push_heap(heap_.begin(), heap_.end(), ranks_before);
    }
  }

  // The winners, best first; the ranker is empty afterwards.
  [[nodiscard]] std::vector<std::string> take() {
    std::sort_heap(heap_.begin(), heap_.end(), ranks_before);
    std::vector<std::string> out;
    out.reserve(heap_.size());
    for (const entry& e : heap_) out.push_back(*e.key);
    heap_.clear();
    return out;
  }

 private:
  struct entry {
    std::uint64_t weight;
    const std::string* key;
  };
  static bool ranks_before(const entry& a, const entry& b) {
    return a.weight != b.weight ? a.weight > b.weight : *a.key < *b.key;
  }

  std::size_t k_;
  std::vector<entry> heap_;
};

// Tokenization shared by the posting plane (multi-term intersection) and its
// oracles: maximal runs of ASCII alphanumerics; every other byte separates.
// A key with no separators is its own single token.
[[nodiscard]] inline std::vector<std::string> string_tokens(std::string_view key) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : key) {
    const bool alnum = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    if (alnum) {
      cur.push_back(c);
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

/// \brief The uniform public surface of every distributed text index —
/// the string mirror of distributed_index. `origin` is the host an operation
/// is issued from; every operation returns its op_stats receipt.
///
/// \par Thread-safety plane
/// As for the other two interfaces: the const query surface (contains /
/// contains_batch / prefix_match / prefix_count / lex_range / top_k /
/// intersect) may be called from any number of threads concurrently on one
/// instance (cursor-local receipts, audited read paths); insert/erase are
/// single-writer, never concurrent with queries. serve::executor::
/// run_contains is the canonical multi-threaded driver.
class string_index {
 public:
  virtual ~string_index() = default;
  string_index(const string_index&) = delete;
  string_index& operator=(const string_index&) = delete;

  /// \brief Registry name of the backend ("string_skiptrie",
  /// "string_sorted", ...). \note Query plane; O(1).
  [[nodiscard]] virtual std::string_view backend() const = 0;
  /// \brief Stored key count. Structural plane (read between query phases);
  /// O(1).
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// \brief Native support bitmask (see api::string_capability). O(1).
  [[nodiscard]] virtual string_capability capabilities() const = 0;
  /// \brief Convenience: `has(capabilities(), c)`.
  [[nodiscard]] bool supports(string_capability c) const { return has(capabilities(), c); }

  /// \brief Exact match: is `q` a stored key?
  /// \note Query plane (thread-safe const). Expected O(log n) messages.
  [[nodiscard]] virtual op_result<bool> contains(const std::string& q,
                                                 net::host_id origin) const = 0;

  /// \brief Batched exact match: MUST behave exactly as contains() called
  /// once per query — same answers, same per-op receipts (tested). The
  /// default is that loop; backends with an interleaved router override it.
  /// \note Query plane; receipts commit once per query, not per batch.
  [[nodiscard]] virtual std::vector<op_result<bool>> contains_batch(
      const std::vector<std::string>& qs, net::host_id origin) const {
    std::vector<op_result<bool>> out;
    out.reserve(qs.size());
    for (const auto& q : qs) out.push_back(contains(q, origin));
    return out;
  }

  /// \brief Insert key `s` (must be absent).
  /// \note Structural plane: single writer. Expected O(log n) messages.
  virtual op_stats insert(const std::string& s, net::host_id origin) = 0;
  /// \brief Erase key `s` (must be present; structures never become empty).
  /// \note Structural plane. Expected O(log n) messages.
  virtual op_stats erase(const std::string& s, net::host_id origin) = 0;

  /// \brief All stored keys extending `prefix`, ascending lexicographically;
  /// `limit` caps the output (0 = unlimited; the cap keeps the smallest
  /// matches — the walk is in order). The empty prefix matches every key.
  /// \note Query plane. O(log n + k) messages with
  ///       string_capability::native_prefix; the window-scan price otherwise.
  ///       Under a deadline the walk gives up mid-subtree and returns an
  ///       honest lexicographic prefix tagged op_stats::degraded.
  [[nodiscard]] virtual op_result<std::vector<std::string>> prefix_match(
      const std::string& prefix, net::host_id origin, std::size_t limit = 0) const = 0;

  /// \brief Number of stored keys extending `prefix`. Same answer as
  /// `prefix_match(prefix).value.size()` — but a backend may know it without
  /// enumerating (the sorted array subtracts two binary searches).
  /// \note Query plane.
  [[nodiscard]] virtual op_result<std::uint64_t> prefix_count(const std::string& prefix,
                                                              net::host_id origin) const = 0;

  /// \brief All stored keys in the closed lexicographic window [lo, hi],
  /// ascending; `limit` caps the output at the smallest keys. \pre lo <= hi.
  /// \note Query plane. Deadline give-up returns an honest prefix, as for
  ///       prefix_match.
  [[nodiscard]] virtual op_result<std::vector<std::string>> lex_range(
      const std::string& lo, const std::string& hi, net::host_id origin,
      std::size_t limit = 0) const = 0;

  /// \brief Top-k completion: the k stored keys extending `prefix` ranked by
  /// (string_weight desc, key asc). The default enumerates the prefix
  /// subtree via prefix_match and ranks — the honest output-sensitive price,
  /// with prefix_match's receipt; a backend that walks its own subtree ranks
  /// in place (same receipt), one with score-ordered skip pointers would
  /// override with a cheaper one.
  /// \pre k > 0. \note Query plane.
  [[nodiscard]] virtual op_result<std::vector<std::string>> top_k(const std::string& prefix,
                                                                  std::size_t k,
                                                                  net::host_id origin) const {
    weight_ranker rank(k);
    const auto res = prefix_match(prefix, origin);
    for (const auto& key : res.value) rank.offer(key);
    return {rank.take(), res.stats};
  }

  /// \brief Multi-term posting intersection: all stored keys containing
  /// EVERY term of `terms` as a token (see string_tokens), ascending
  /// lexicographically, `limit` capping the output (which keys survive the
  /// cap is backend-defined — posting-list order, not key order). The
  /// routers skip between match positions: the rarest term's posting list
  /// drives, and every other list is galloped forward past runs of
  /// non-matching positions instead of scanning them.
  /// \pre !terms.empty(). \note Query plane.
  [[nodiscard]] virtual op_result<std::vector<std::string>> intersect(
      const std::vector<std::string>& terms, net::host_id origin, std::size_t limit = 0) const = 0;

  /// \brief Measured resident bytes, split arena / links / directory — same
  /// contract as distributed_index::footprint() (DESIGN.md §12); all-zero
  /// when the backend does not implement the surface.
  [[nodiscard]] virtual memory_footprint footprint() const { return {}; }

  /// \brief Serialize into the open snapshot `w`
  /// (string_capability::snapshot only; DESIGN.md §13). Drive through
  /// api::save_string_snapshot. \note Structural plane: quiescent instance.
  virtual void save_snapshot(persist::writer& w) const {
    (void)w;
    throw unsupported_operation(backend(), "save_snapshot");
  }

  /// \brief Shrink internal containers to size (footprint slack -> ~0), as
  /// distributed_index::compact(). Safe no-op without the surface.
  virtual void compact() {}

 protected:
  string_index() = default;
};

}  // namespace skipweb::api
