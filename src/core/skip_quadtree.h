#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "api/op_stats.h"
#include "core/quad_levels.h"
#include "net/cursor.h"
#include "net/network.h"
#include "persist/net_snapshot.h"
#include "persist/snapshot.h"
#include "seq/quadtree.h"
#include "util/membership.h"
#include "util/rng.h"
#include "util/sw_assert.h"

namespace skipweb::core {

// Distributed skip quadtree/octree (paper §3.1): the skip-web instantiation
// for d-dimensional point sets, the distributed analogue of Eppstein,
// Goodrich & Sun's skip quadtree.
//
// Every point carries a membership bit vector; level l holds one compressed
// quadtree per l-bit prefix set S_b (the sets partition the points). Since
// S_b ⊆ S_parent(b), every interesting cube of a level-l tree is also an
// interesting cube of the parent-level tree (Lemma 3's setting), so the
// inter-level hyperlink is the *identity on cubes*: a query that located its
// deepest cube at level l jumps to the same cube one level denser and
// resumes the descent there, doing expected O(1) extra steps per level.
// Point location therefore costs O(log n) expected messages even when the
// underlying compressed tree has Θ(n) depth.
//
// Storage is the flat multi-level arena of core::quad_levels: the identity
// hyperlink is a stored slot index and child cubes are cached in the parent
// rows, so the query path performs no hash lookups (see quad_levels.h).
// Nodes (interesting cubes) are spread over all hosts by hashing — the
// arbitrary assignment of §2.4 — giving O(2^d log n) expected memory per
// host for H = n.
//
// Fault plane (DESIGN.md §10): with `replication` = k > 0, every node record
// is stored on k+1 hosts — the salted hash window replica_host(l, prefix,
// node, base..base+k), base = 0 until a repair re-homes the record. Queries
// under active faults hop to the first reachable replica (each dead
// candidate costs its timed-out probe); repair_step() moves a record whose
// window contains dead hosts onto a fresh all-live window and re-charges the
// ledger. k = 0 keeps routing, receipts and the ledger byte-identical to the
// unreplicated structure.
template <int D>
class skip_quadtree {
 public:
  using point = seq::qpoint<D>;
  using cube = seq::qcube<D>;
  using arena = quad_levels<D>;
  static constexpr int fanout = arena::fanout;

  // `bulk` selects the level-major bulk build (DESIGN.md §12) — byte-
  // identical to the point-by-point construction (same slots, same receipts)
  // and several times faster at n >= 1M; `false` forces the reference path
  // for twin tests and build microbenches.
  skip_quadtree(const std::vector<point>& pts, std::uint64_t seed, net::network& net,
                std::size_t replication = 0, bool bulk = true)
      : net_(&net),
        rng_(seed),
        levels_(levels_for(pts.size())),
        q_(levels_),
        replication_(std::min<std::size_t>(replication, 8)) {
    SW_EXPECTS(!pts.empty());
    if (bulk) {
      bulk_build(pts);
    } else {
      for (const auto& p : pts) {
        SW_EXPECTS(q_.find_point(p) < 0);  // distinct points
        insert_chain(p, util::draw_membership(rng_), nullptr);
      }
    }
    // Anchor membership per host: selects the chain of prefix sets a search
    // from that host descends (any chain reaches the ground set).
    anchors_.reserve(net_->host_count());
    for (std::size_t h = 0; h < net_->host_count(); ++h) {
      anchors_.push_back(q_.point_bits(static_cast<int>(h % pts.size())));
      net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
    }
  }

  // Restore from a snapshot written by save_snapshot(), onto a FRESH network
  // (hosts grown + memory ledger replayed exactly, so check_invariants()'
  // ledger equality holds on the restored twin). The arenas come back as
  // borrowed views over the reader's blob — zero-copy in mmap mode — and
  // materialize copy-on-first-write at the first structural edit.
  skip_quadtree(persist::reader& r, net::network& net) : net_(&net), rng_(0), q_(r, "q") {
    std::size_t nmeta = 0;
    const auto* meta = r.array<std::uint64_t>("impl.meta", nmeta);
    if (nmeta != 2) throw persist::error("snapshot: quadtree meta malformed");
    levels_ = static_cast<int>(meta[0]);
    replication_ = meta[1];
    if (levels_ != q_.levels()) {
      throw persist::error("snapshot: quadtree level count disagrees with its arena");
    }
    std::istringstream iss(r.str("impl.rng"));
    iss >> rng_.engine();
    if (!iss) throw persist::error("snapshot: unreadable rng state");
    std::size_t nkeys = 0;
    std::size_t nbases = 0;
    const auto* rh_keys = r.array<std::uint64_t>("impl.rehome_keys", nkeys);
    const auto* rh_bases = r.array<std::uint32_t>("impl.rehome_bases", nbases);
    if (nkeys != nbases) throw persist::error("snapshot: rehome tables disagree");
    for (std::size_t i = 0; i < nkeys; ++i) rehome_.emplace(rh_keys[i], rh_bases[i]);
    {
      std::size_t n = 0;
      const auto* a = r.array<util::membership_bits>("impl.anchors", n);
      anchors_.assign(a, a + n);
    }
    persist::restore_network(r, net, "net");
    if (anchors_.size() != net_->host_count()) {
      throw persist::error("snapshot: anchor table disagrees with host count");
    }
  }

  // --- persistence (DESIGN.md §13) ------------------------------------------
  //
  // Arenas, chain metadata, per-host anchors, the fault plane's re-home map,
  // rng state, and the deployment ledger, as named sections of `w`.
  void save_snapshot(persist::writer& w) const {
    q_.save(w, "q");
    const std::uint64_t meta[2] = {static_cast<std::uint64_t>(levels_), replication_};
    w.add_array("impl.meta", meta, 2);
    std::ostringstream oss;
    oss << rng_.engine();
    w.add_string("impl.rng", oss.str());
    std::vector<std::uint64_t> rh_keys;
    std::vector<std::uint32_t> rh_bases;
    rh_keys.reserve(rehome_.size());
    rh_bases.reserve(rehome_.size());
    for (const auto& [k, b] : rehome_) {
      rh_keys.push_back(k);
      rh_bases.push_back(b);
    }
    w.add_vector("impl.rehome_keys", rh_keys);
    w.add_vector("impl.rehome_bases", rh_bases);
    w.add_vector("impl.anchors", anchors_);
    persist::save_network(w, *net_, "net");
  }

  // Shrink every arena to its size (footprint slack -> ~0) so resident bytes
  // match the snapshot payload.
  void compact() {
    q_.compact();
    anchors_.shrink_to_fit();
  }

  ~skip_quadtree() = default;
  skip_quadtree(const skip_quadtree&) = delete;
  skip_quadtree& operator=(const skip_quadtree&) = delete;

  [[nodiscard]] std::size_t size() const { return q_.point_count(); }
  [[nodiscard]] int levels() const { return levels_; }
  // Extra replica hosts per node record (0 = unreplicated; DESIGN.md §10).
  [[nodiscard]] std::size_t replication() const { return replication_; }
  [[nodiscard]] int depth() const { return q_.depth(); }
  [[nodiscard]] std::size_t ground_node_count() const { return q_.node_count(0); }
  [[nodiscard]] const arena& structure() const { return q_; }

  struct locate_result {
    cube cell;              // deepest interesting cube of D(S) containing q
    bool is_point = false;  // q coincides with a stored point
    api::op_stats stats;
  };

  // Distributed point location (the paper's core query): find the smallest
  // interesting cube of the ground structure containing q.
  [[nodiscard]] locate_result locate(const point& q, net::host_id origin) const {
    net::cursor cur(*net_, origin);
    auto [l, prefix, node] = chain_top(anchors_[origin.value]);
    hop(cur, l, prefix, node);
    for (;;) {
      for (;;) {
        const int nx = q_.step(l, node, q);
        if (nx < 0) break;
        node = nx;
        hop(cur, l, prefix, node);
      }
      if (l == 0) break;
      node = q_.down_of(l, node);  // the same cube, one level denser
      --l;
      prefix = util::prefix_of(anchors_[origin.value], l).bits;
      hop(cur, l, prefix, node);
    }
    locate_result out;
    out.cell = q_.box_at(0, node);
    out.is_point = q_.point_here(0, node, q);
    out.stats = api::op_stats::of(cur);
    return out;
  }

  // Batched point location: the given descents run interleaved, one step per
  // query per round, each query's next child row prefetched a round ahead so
  // the independent walks' memory latency overlaps. Results and per-op
  // receipts are identical to locate() called serially (tests assert it).
  [[nodiscard]] std::vector<locate_result> locate_batch(const std::vector<point>& qs,
                                                        net::host_id origin) const {
    struct lane {
      net::cursor cur;
      int l, node;
      std::uint64_t prefix;
      bool done = false;
    };
    const auto w = anchors_[origin.value];
    const auto [l0, prefix0, node0] = chain_top(w);
    std::vector<lane> lanes;
    lanes.reserve(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      lanes.push_back(lane{net::cursor(*net_, origin), l0, node0, prefix0});
      hop(lanes.back().cur, l0, prefix0, node0);
    }
    std::vector<locate_result> out(qs.size());
    // Active-lane list, compacted order-preserving as descents land: late
    // rounds touch only the stragglers instead of sweeping every done-flag.
    std::vector<std::uint32_t> active(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) active[i] = static_cast<std::uint32_t>(i);
    while (!active.empty()) {
      std::size_t kept = 0;
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t i = active[a];
        lane& ln = lanes[i];
        const int nx = q_.step(ln.l, ln.node, qs[i]);
        if (nx >= 0) {
          ln.node = nx;
          hop(ln.cur, ln.l, ln.prefix, nx);
        } else if (ln.l > 0) {
          ln.node = q_.down_of(ln.l, ln.node);
          --ln.l;
          ln.prefix = util::prefix_of(w, ln.l).bits;
          hop(ln.cur, ln.l, ln.prefix, ln.node);
        } else {
          out[i].cell = q_.box_at(0, ln.node);
          out[i].is_point = q_.point_here(0, ln.node, qs[i]);
          out[i].stats = api::op_stats::of(ln.cur);
          ln.done = true;
        }
        if (!ln.done) {
          q_.prefetch_node(ln.l, ln.node);  // warm next round's read
          active[kept++] = static_cast<std::uint32_t>(i);
        }
      }
      active.resize(kept);
    }
    return out;
  }

  [[nodiscard]] api::op_result<bool> contains(const point& q, net::host_id origin) const {
    const auto r = locate(q, origin);
    return {r.is_point, r.stats};
  }

  // Exact distributed nearest neighbour: best-first cube search on the
  // ground tree. (The paper reduces approximate NN to point location via
  // [6]; the exact variant exercises the same routing and is testable
  // against the sequential oracle.)
  [[nodiscard]] api::op_result<point> nearest(const point& q, net::host_id origin) const {
    SW_EXPECTS(size() > 0);
    net::cursor cur(*net_, origin);
    const int root = q_.tree(0, 0)->root;

    struct item {
      typename seq::quadtree<D>::dist2_t dist;
      int node;
      int point;
      bool operator>(const item& o) const { return dist > o.dist; }
    };
    std::priority_queue<item, std::vector<item>, std::greater<item>> heap;
    heap.push({0, root, -1});
    auto best = ~typename seq::quadtree<D>::dist2_t{0};
    point best_point{};
    while (!heap.empty()) {
      const item top = heap.top();
      heap.pop();
      if (top.dist >= best) break;
      if (top.node < 0) {
        best = top.dist;
        best_point = q_.point_at(top.point);
        continue;
      }
      hop(cur, 0, 0, top.node);  // expanding a node = visiting its host
      for (int c = 0; c < fanout; ++c) {
        const auto& e = q_.child_at(0, top.node, c);
        if (e.point >= 0) {
          heap.push({seq::quadtree<D>::point_dist2(q_.point_at(e.point), q), -1, e.point});
        }
        if (e.node >= 0) heap.push({seq::quadtree<D>::cube_dist2(e.box, q), e.node, -1});
      }
    }
    return {best_point, api::op_stats::of(cur)};
  }

  // Orthogonal range search (paper §3): all stored points inside the closed
  // axis-aligned box [lo, hi]. The skip levels route to the smallest
  // interesting cube containing the whole box (O(log n) expected messages);
  // the ground walk below it pays one hop per visited node — output-
  // sensitive enumeration, O(log n + answer + boundary cubes).
  // Results ascend lexicographically by coordinates; `limit` caps them
  // (0 = unlimited), stopping the walk early once reached.
  [[nodiscard]] api::op_result<std::vector<point>> range(const point& lo, const point& hi,
                                                         net::host_id origin,
                                                         std::size_t limit = 0) const {
    for (int d = 0; d < D; ++d) SW_EXPECTS(lo.x[d] <= hi.x[d]);
    net::cursor cur(*net_, origin);
    auto [l, prefix, node] = chain_top(anchors_[origin.value]);
    hop(cur, l, prefix, node);
    for (;;) {
      for (;;) {
        const int nx = step_box(l, node, lo, hi);
        if (nx < 0) break;
        node = nx;
        hop(cur, l, prefix, node);
      }
      if (l == 0) break;
      node = q_.down_of(l, node);
      --l;
      prefix = util::prefix_of(anchors_[origin.value], l).bits;
      hop(cur, l, prefix, node);
    }

    api::op_result<std::vector<point>> res;
    std::vector<int> stack{node};
    bool capped = false;
    while (!stack.empty() && !capped) {
      const int v = stack.back();
      stack.pop_back();
      hop(cur, 0, 0, v);
      for (int c = 0; c < fanout; ++c) {
        const auto& e = q_.child_at(0, v, c);
        if (e.point >= 0) {
          cur.note_comparisons(1);
          const point& p = q_.point_at(e.point);
          if (inside(p, lo, hi)) {
            res.value.push_back(p);
            if (limit != 0 && res.value.size() >= limit) {
              capped = true;
              break;
            }
          }
        } else if (e.node >= 0 && intersects(e.box, lo, hi)) {
          stack.push_back(e.node);
        }
      }
    }
    std::sort(res.value.begin(), res.value.end(),
              [](const point& a, const point& b) { return a.x < b.x; });
    res.stats = api::op_stats::of(cur);
    return res;
  }

  // Insert a point (paper §4): one structural O(1) edit per level of the
  // point's own prefix chain, found by the same top-down descent.
  api::op_stats insert(const point& p, net::host_id origin) {
    SW_EXPECTS(q_.find_point(p) < 0);
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    insert_chain(p, util::draw_membership(rng_), &cur);
    clean_epoch_ = no_epoch;  // fresh records sit on base-0 windows, dead hosts or not
    return api::op_stats::of(cur);
  }

  // Remove a point; splices out at most one cube per level of its chain.
  api::op_stats erase(const point& p, net::host_id origin) {
    SW_EXPECTS(size() >= 2);  // the structure never becomes empty
    const int pid = q_.find_point(p);
    SW_EXPECTS(pid >= 0);
    const auto bits = q_.point_bits(pid);
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, origin);
    int start = -1;  // captured down link; -1 selects the level's root
    for (int l = levels_; l >= 0; --l) {
      const auto prefix = util::prefix_of(bits, l).bits;
      const auto* tr = q_.tree(l, prefix);
      SW_ASSERT(tr != nullptr);
      int node = start >= 0 ? start : tr->root;
      hop(cur, l, prefix, node);
      for (;;) {
        const int nx = q_.step(l, node, p);
        if (nx < 0) break;
        node = nx;
        hop(cur, l, prefix, node);
      }
      // Capture the hyperlink before the edit can splice the node away.
      start = l > 0 ? q_.down_of(l, node) : -1;
      const int freed = q_.erase_at(l, node, pid);
      charge_point(l, prefix, p, -1);
      if (freed >= 0) {
        charge_node(l, prefix, freed, -1);  // de-charge at the current window
        forget_rehome(l, freed);            // the recycled slot restarts at base 0
      }
      q_.bump_tree(l, prefix, -1);
      const int dead_root = q_.destroy_tree_if_empty(l, prefix);
      if (dead_root >= 0) {
        charge_node(l, prefix, dead_root, -1);
        forget_rehome(l, dead_root);
      }
    }
    q_.free_point(pid);
    return api::op_stats::of(cur);
  }

  // Host assignment for a structure node (the §2.4 balanced placement): the
  // primary copy, i.e. replica 0 of the record's current salt window.
  [[nodiscard]] net::host_id host_of(int level, std::uint64_t prefix, int node) const {
    return replica_host(level, prefix, node, rehome_base(level, node));
  }

  // Host of one replica of a node record. salt 0 is the pre-fault placement
  // (byte-identical to the unreplicated layout); a record re-homed r times
  // with replication k lives on salts r*(k+1) .. r*(k+1)+k.
  [[nodiscard]] net::host_id replica_host(int level, std::uint64_t prefix, int node,
                                          std::uint32_t salt) const {
    std::uint64_t z = static_cast<std::uint64_t>(level) * 0x9e3779b97f4a7c15ull + prefix +
                      static_cast<std::uint64_t>(salt) * 0xd1342543de82ef95ull;
    z ^= static_cast<std::uint64_t>(node) + 0x2545f4914f6cdd1dull + (z << 6) + (z >> 2);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return net::host_id{static_cast<std::uint32_t>((z ^ (z >> 31)) % net_->host_count())};
  }

  // Current salt-window base of a node record (0 = never re-homed; exposed
  // for tests, which rebuild the repair scan by brute force).
  [[nodiscard]] std::uint32_t rehome_base(int level, int node) const {
    if (rehome_.empty()) return 0;
    const auto it = rehome_.find(rehome_key(level, node));
    return it == rehome_.end() ? 0 : it->second;
  }

  // --- self-repair (replication > 0 only; DESIGN.md §10) --------------------
  //
  // One repair step: find one node record whose replica window contains a
  // dead host while at least one replica survives, and re-home the record
  // onto the next fully-live salt window — one read hop from a survivor
  // (dead replicas before it cost their timed-out probes) plus one write hop
  // per fresh replica, the memory ledger moving with it. Returns the number
  // of records re-homed (0 = every record fully live; drive with
  // fault::repair_to_quiescence). Records whose whole window is dead are
  // lost until a revive and are skipped. Structural plane. A clean step
  // marks the structure clean, so further idle steps are O(1) until the
  // mark lapses (see marked_clean).
  api::op_result<std::size_t> repair_step(net::host_id origin) {
    SW_EXPECTS(replication_ > 0);
    const net::structural_section sw_structural_guard(*net_);
    net::cursor cur(*net_, net_->host_alive(origin) ? origin : net_->any_live_host(origin));
    if (marked_clean()) return {0, api::op_stats::of(cur)};
    std::size_t repaired = 0;
    scan_windows([&](int l, std::uint64_t prefix, int node, std::uint32_t base) {
      if (repaired > 0) return false;  // one record per step
      if (!window_needs_rehome(l, prefix, node, base)) return true;
      // Read the record from the first surviving replica (each dead replica
      // before it costs its detection probe), then write the k+1 fresh
      // copies. Window liveness itself comes from the membership service
      // (net::network::host_alive), not from extra probes.
      for (std::uint32_t j = 0; j <= replication_; ++j) {
        if (cur.try_move_to(replica_host(l, prefix, node, base + j))) break;
      }
      const std::uint32_t fresh = next_live_window(l, prefix, node, base);
      charge_node(l, prefix, node, -1);  // de-charge the old window...
      rehome_[rehome_key(l, node)] = fresh;
      charge_node(l, prefix, node, +1);  // ...and charge the new one
      for (std::uint32_t j = 0; j <= replication_; ++j) {
        cur.move_to(replica_host(l, prefix, node, fresh + j));
      }
      ++repaired;
      return false;
    });
    if (repaired == 0) {
      clean_epoch_ = net_->liveness_epoch();
      clean_hosts_ = net_->host_count();
    }
    return {repaired, api::op_stats::of(cur)};
  }

  // True while some node record's replica window mixes dead and live hosts
  // (local bookkeeping scan, no charges). Records with zero live replicas
  // are lost, not repairable, and do not count. O(1) while marked clean.
  [[nodiscard]] bool needs_repair() const {
    if (replication_ == 0 || !net_->faults_active() || marked_clean()) return false;
    bool found = false;
    scan_windows([&](int l, std::uint64_t prefix, int node, std::uint32_t base) {
      if (window_needs_rehome(l, prefix, node, base)) {
        found = true;
        return false;
      }
      return true;
    });
    return found;
  }

  // Arena invariants (quad_levels::check_invariants) plus ledger agreement:
  // the network's memory total must equal what the live structure implies.
  [[nodiscard]] bool check_invariants() const {
    if (!q_.check_invariants()) return false;
    std::uint64_t expected = net_->host_count();  // one anchor host_ref per host
    for (int l = 0; l <= levels_; ++l) {
      // Each node record is stored once per replica (fault plane).
      expected += q_.node_count(l) * static_cast<std::uint64_t>(fanout + 2) *
                  static_cast<std::uint64_t>(replication_ + 1);
    }
    expected += q_.point_count() * static_cast<std::uint64_t>(levels_ + 1);
    return net_->total_memory() == expected;
  }

  // Measured resident bytes (DESIGN.md §12): arena/link split from
  // quad_levels; per-host anchors and the fault plane's re-home map are
  // directory.
  [[nodiscard]] api::memory_footprint footprint() const {
    api::memory_footprint f = q_.footprint();
    f.directory_bytes += api::vector_bytes(anchors_) + api::map_bytes(rehome_);
    return f;
  }

 private:
  static int levels_for(std::size_t n) {
    int l = 0;
    while ((std::size_t{1} << l) < n) ++l;
    return l;
  }

  // Top of a membership chain: the highest level whose prefix set is
  // non-empty (its tree root starts the descent). Levels are empty only
  // from some height up, so the scan touches the root directories once.
  [[nodiscard]] std::tuple<int, std::uint64_t, int> chain_top(util::membership_bits w) const {
    for (int l = levels_;; --l) {
      const auto prefix = util::prefix_of(w, l).bits;
      if (const auto* tr = q_.tree(l, prefix)) return {l, prefix, tr->root};
      SW_ASSERT(l > 0);  // the ground tree always exists
    }
  }

  // One descend step for range search: advance while a child cube contains
  // the whole query box.
  [[nodiscard]] int step_box(int l, int node, const point& lo, const point& hi) const {
    const cube& b = q_.box_at(l, node);
    if (b.level >= seq::coord_bits) return -1;
    const int quad = b.quadrant_of(lo);
    if (quad != b.quadrant_of(hi)) return -1;
    const auto& e = q_.child_at(l, node, quad);
    if (e.node < 0 || !e.box.contains(lo) || !e.box.contains(hi)) return -1;
    return e.node;
  }

  static bool inside(const point& p, const point& lo, const point& hi) {
    for (int d = 0; d < D; ++d) {
      if (p.x[d] < lo.x[d] || p.x[d] > hi.x[d]) return false;
    }
    return true;
  }

  static bool intersects(const cube& c, const point& lo, const point& hi) {
    const seq::coord_t side = c.side();
    for (int d = 0; d < D; ++d) {
      if (c.corner[d] > hi.x[d]) return false;
      if (c.corner[d] + (side - 1) < lo.x[d]) return false;
    }
    return true;
  }

  // The shared top-down chain walk of build and insert: place p in every
  // tree of its prefix chain, resolving the identity hyperlinks of cubes
  // (and fresh roots) that become interesting one level up. `cur` meters
  // hops when non-null (inserts); the bulk build passes nullptr.
  void insert_chain(const point& p, util::membership_bits bits, net::cursor* cur) {
    const int pid = q_.new_point(p, bits);
    int start = -1;            // captured down link; -1 selects the level's root
    int pending_root = -1;     // fresh root one level up, awaiting its hyperlink
    int pending_created = -1;  // cube created one level up, awaiting its hyperlink
    for (int l = levels_; l >= 0; --l) {
      const auto prefix = util::prefix_of(bits, l).bits;
      const auto [root, fresh] = q_.ensure_tree(l, prefix);
      if (fresh) charge_node(l, prefix, root, +1);
      int node = start >= 0 ? start : root;
      if (pending_root >= 0) {
        q_.set_down(l + 1, pending_root, root);  // whole space = whole space
        pending_root = -1;
      }
      if (cur != nullptr) hop(*cur, l, prefix, node);
      for (;;) {
        const int nx = q_.step(l, node, p);
        if (nx < 0) break;
        node = nx;
        if (cur != nullptr) hop(*cur, l, prefix, node);
      }
      start = l > 0 ? q_.down_of(l, node) : -1;  // -1 exactly when this level is fresh
      const auto outcome = q_.insert_at(l, node, pid);
      charge_point(l, prefix, p, +1);
      q_.bump_tree(l, prefix, +1);
      if (outcome.created >= 0) {
        if (cur != nullptr) hop(*cur, l, prefix, outcome.created);
        charge_node(l, prefix, outcome.created, +1);
      }
      if (pending_created >= 0) {
        // The cube that became interesting one level up now exists here too
        // (subset property); it sits on the root path of p's deepest node.
        const int target =
            q_.resolve_cube(l, outcome.attached, q_.box_at(l + 1, pending_created));
        q_.set_down(l + 1, pending_created, target);
      }
      pending_created = outcome.created;
      if (fresh) pending_root = root;
    }
  }

  // Level-major bulk build: the exact per-(point, level) body of
  // insert_chain, executed one LEVEL at a time (all points in input order per
  // level) instead of one point at a time. Correctness of the reordering
  // (DESIGN.md §12): every point visits every level, each level's arena is
  // touched only by that level's visits, and pure inserts never free a slot —
  // so the arena state a visit (point i, level l) observes is "points 0..i-1
  // done at level l" under either order, and every slot is allocated at the
  // same moment relative to its level's history. Down links are the one
  // cross-level read; insert_chain reads down_of(l, node) for nodes created
  // by earlier (completed) points, which under level-major order is exactly
  // "after the level-(l-1) resolutions of points 0..i-1" — so the read moves
  // to the start of the point's level-(l-1) visit and sees the same value
  // (-1 precisely for a root this point itself freshly created). The payoff:
  // one level's arena, tree directory and child rows stay cache-resident for
  // a whole pass, and the directory is probed once per visit instead of
  // twice (ensure_tree_ref). Byte-identical structure, uids and receipts
  // (tested in test_bulk_build).
  void bulk_build(const std::vector<point>& pts) {
    const std::size_t n = pts.size();
    q_.reserve_points(n);
    std::vector<util::membership_bits> bits(n);
    for (auto& b : bits) b = util::draw_membership(rng_);  // input order, as insert_chain draws
    std::vector<std::int32_t> pid(n);
    for (std::size_t i = 0; i < n; ++i) {
      pid[i] = static_cast<std::int32_t>(q_.new_point(pts[i], bits[i]));
    }
    // Point-payload charge salts are level-independent: hoist the hash out of
    // the level loop (one per point instead of one per point per level).
    std::vector<int> psalt(n);
    for (std::size_t i = 0; i < n; ++i) {
      psalt[i] = static_cast<int>(seq::qpoint_hash<D>{}(pts[i]) & 0x3fffffff);
    }
    std::vector<std::int32_t> final_node(n, -1);  // descend endpoint one level up
    std::vector<std::int32_t> pend_root(n, -1);
    std::vector<std::int32_t> pend_created(n, -1);
    for (int l = levels_; l >= 0; --l) {
      // <= n slots materialize per level (see reserve_level); tree count is
      // bounded by both the points and the l-bit prefix space.
      const std::size_t prefixes =
          l < 62 ? std::min<std::size_t>(n, std::size_t{1} << l) : n;
      q_.reserve_level(l, n + 1, prefixes + 1);
      for (std::size_t i = 0; i < n; ++i) {
        const point& p = pts[i];
        if (l == 0) SW_EXPECTS(q_.find_point(p) < 0);  // distinct points
        const auto prefix = util::prefix_of(bits[i], l).bits;
        const int start = final_node[i] >= 0 ? q_.down_of(l + 1, final_node[i]) : -1;
        const auto [tr, fresh] = q_.ensure_tree_ref(l, prefix);
        const int root = tr->root;
        if (fresh) charge_node(l, prefix, root, +1);
        int node = start >= 0 ? start : root;
        if (pend_root[i] >= 0) {
          q_.set_down(l + 1, pend_root[i], root);
          pend_root[i] = -1;
        }
        node = q_.locate_local(l, node, p);
        final_node[i] = node;  // its down link resolves during the next pass
        const auto outcome = q_.insert_at(l, node, pid[i]);
        charge_point(l, prefix, psalt[i], +1);
        ++tr->points;
        if (outcome.created >= 0) charge_node(l, prefix, outcome.created, +1);
        if (pend_created[i] >= 0) {
          const int target =
              q_.resolve_cube(l, outcome.attached, q_.box_at(l + 1, pend_created[i]));
          q_.set_down(l + 1, pend_created[i], target);
        }
        pend_created[i] = outcome.created;
        if (fresh) pend_root[i] = root;
      }
    }
  }

  void charge_node(int level, std::uint64_t prefix, int node, std::int64_t sign) {
    // An interesting cube stores 2^D child references plus the identity
    // hyperlink one level down — once per replica of its current window.
    const std::uint32_t base = rehome_base(level, node);
    for (std::uint32_t j = 0; j <= replication_; ++j) {
      const auto h = replica_host(level, prefix, node, base + j);
      net_->charge(h, net::memory_kind::node, sign);
      net_->charge(h, net::memory_kind::host_ref, (fanout + 1) * sign);
    }
  }

  void charge_point(int level, std::uint64_t prefix, const point& p, std::int64_t sign) {
    charge_point(level, prefix, static_cast<int>(seq::qpoint_hash<D>{}(p) & 0x3fffffff), sign);
  }

  void charge_point(int level, std::uint64_t prefix, int salt, std::int64_t sign) {
    // Point payloads live with the tree they appear in; the level-0 copy is
    // the data item itself, upper copies are references. Payloads are not
    // replicated (salt 0 — the fault plane replicates routing state).
    const auto h = replica_host(level, prefix, salt, 0);
    net_->charge(h, level == 0 ? net::memory_kind::item : net::memory_kind::pointer, sign);
  }

  // --- fault plane ----------------------------------------------------------

  // Queries pay the replica-scanning route only when they must: replication
  // installed AND some fault currently active on the network.
  [[nodiscard]] bool fault_routing() const {
    return replication_ > 0 && net_->faults_active();
  }

  // One routing hop to a node record. Fault-free: a plain move to the
  // primary (byte-identical to the unreplicated walk). Under active faults:
  // try the record's replicas in window order, each dead candidate costing
  // its timed-out probe; a fully-dead window marks the op failed and the
  // walk continues mechanically (per the ghost-hop contract in cursor.h).
  void hop(net::cursor& cur, int level, std::uint64_t prefix, int node) const {
    if (!fault_routing()) {
      cur.move_to(host_of(level, prefix, node));
      return;
    }
    const std::uint32_t base = rehome_base(level, node);
    for (std::uint32_t j = 0; j <= replication_; ++j) {
      if (cur.try_move_to(replica_host(level, prefix, node, base + j))) return;
    }
    cur.mark_failed();
  }

  [[nodiscard]] static std::uint64_t rehome_key(int level, int node) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(level)) << 32) |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(node));
  }

  void forget_rehome(int level, int node) {
    if (!rehome_.empty()) rehome_.erase(rehome_key(level, node));
  }

  // A window needs re-homing when it mixes dead and live replicas; all-live
  // is healthy and all-dead is lost (nothing left to copy from).
  [[nodiscard]] bool window_needs_rehome(int level, std::uint64_t prefix, int node,
                                         std::uint32_t base) const {
    std::uint32_t live = 0;
    for (std::uint32_t j = 0; j <= replication_; ++j) {
      if (net_->host_alive(replica_host(level, prefix, node, base + j))) ++live;
    }
    return live != 0 && live != replication_ + 1;
  }

  // First fully-live window after `base` (windows advance in strides of
  // k+1 so successive homes never overlap). One exists: kill_host keeps at
  // least one host alive and the salts sweep the whole host space.
  [[nodiscard]] std::uint32_t next_live_window(int level, std::uint64_t prefix, int node,
                                               std::uint32_t base) const {
    const auto stride = static_cast<std::uint32_t>(replication_ + 1);
    for (std::uint32_t b = base + stride;; b += stride) {
      bool ok = true;
      for (std::uint32_t j = 0; j <= replication_; ++j) {
        if (!net_->host_alive(replica_host(level, prefix, node, b + j))) {
          ok = false;
          break;
        }
      }
      if (ok) return b;
    }
  }

  // The clean mark: the last repair_step found no mixed window, and nothing
  // that could create one has happened since. A kill or revive moves the
  // liveness epoch (a revive can turn a lost all-dead window mixed); a new
  // host re-maps every window, since replica_host hashes modulo the host
  // count; an insert places records on base-0 windows (it drops the mark
  // itself). Erases only free records and leave every surviving window as
  // it was, so they keep the mark.
  [[nodiscard]] bool marked_clean() const {
    return clean_epoch_ == net_->liveness_epoch() && clean_hosts_ == net_->host_count();
  }

  // Visit every live node record (level, prefix, node, window base), top
  // level first; the visitor returns false to stop the scan.
  template <typename F>
  void scan_windows(F&& f) const {
    for (int l = levels_; l >= 0; --l) {
      bool go = true;
      q_.for_each_tree(l, [&](std::uint64_t prefix, const auto& tr) {
        if (!go) return;
        std::vector<int> stack{tr.root};
        while (go && !stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          if (!f(l, prefix, v, rehome_base(l, v))) {
            go = false;
            break;
          }
          for (int c = 0; c < fanout; ++c) {
            const auto& e = q_.child_at(l, v, c);
            if (e.node >= 0) stack.push_back(e.node);
          }
        }
      });
      if (!go) return;
    }
  }

  net::network* net_;
  util::rng rng_;
  int levels_ = 0;
  arena q_;
  std::size_t replication_ = 0;
  // Re-homed node records: rehome_key(level, node) → current window base.
  // Absent = base 0. Entries die with their slot (see erase()).
  std::unordered_map<std::uint64_t, std::uint32_t> rehome_;
  std::vector<util::membership_bits> anchors_;
  // Clean mark (see marked_clean); structural plane writes only. Not
  // persisted: a restored index starts unmarked.
  static constexpr std::uint64_t no_epoch = ~std::uint64_t{0};
  std::uint64_t clean_epoch_ = no_epoch;
  std::size_t clean_hosts_ = 0;
};

}  // namespace skipweb::core
