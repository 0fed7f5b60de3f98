#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/latency.h"
#include "net/receipt.h"
#include "net/types.h"
#include "util/sw_assert.h"

namespace skipweb::net {

// What a host stores, following the paper's memory definition (§1.1): "the
// number of data items, data structure nodes, pointers, and host IDs that
// any host can store."
enum class memory_kind : std::uint8_t { item, node, pointer, host_ref };

// Client-side routing-replica hook (the congestion plane's cache seam).
// A hop cache models a serving frontend that holds *replicas of the routing
// entries of a few hot hosts*: when the query locus would hop to a host
// whose entries are replicated — and the route is still in its first
// `absorb_depth()` hops, i.e. top-level routing — the hop is answered from
// the local replica instead of the network. The routing decision itself is
// unchanged (the replica holds the same entries), so answers are
// byte-identical with and without a cache; only the traffic receipt (and
// therefore the congestion ledger) shrinks.
//
// Concurrency: `absorbs()` is called on the query plane from any number of
// threads and must be data-race free against `on_commit()`, which the
// network calls once per committed operation (also query-plane).
// `serve::route_cache` is the concrete implementation.
class hop_cache {
 public:
  virtual ~hop_cache() = default;

  // True if a hop to `h` can be served from the local replica. Called only
  // when the hop would actually be absorbed, so implementations may count
  // hits inside. Must be thread-safe against concurrent on_commit().
  [[nodiscard]] virtual bool absorbs(host_id h) const = 0;

  // How many leading hops of one operation may be absorbed (the "top-level
  // routing" window). 0 disables absorption entirely.
  [[nodiscard]] virtual std::size_t absorb_depth() const = 0;

  // Learning feed: every receipt merged by network::commit() is offered
  // here, so the cache sees exactly the traffic the congestion ledger sees.
  virtual void on_commit(const traffic_receipt& r) = 0;
};

// The quiescent-only congestion report: how query traffic distributed over
// the hosts since the last reset_traffic(). `total_visits` equals
// total_messages() by construction (every charged hop increments exactly
// one host's counter — including timed-out probes toward dead hosts, whose
// bandwidth was spent toward that host), which tests reconcile.
//
// Killed hosts are excluded from the distribution statistics (max/mean/p99/
// hosts_touched): a dead host serves no traffic, and folding its slot in as
// a zero-visit host would deflate the mean and p99 of the hosts actually
// carrying load. `total_visits` still sums every slot so the reconciliation
// invariant holds regardless of churn.
struct congestion_profile {
  std::uint64_t hosts = 0;           // LIVE hosts in the network
  std::uint64_t hosts_killed = 0;    // killed hosts (excluded from the stats)
  std::uint64_t hosts_touched = 0;   // live hosts with at least one visit
  std::uint64_t max_visits = 0;      // the busiest live host (the paper's C(n))
  std::uint64_t p99_visits = 0;      // 99th-percentile live host
  double mean_visits = 0.0;          // live-host visits / live hosts
  std::uint64_t total_visits = 0;    // all slots, dead included; == total_messages()
  std::uint64_t max_op_host_load = 0;  // worst single-host load of any ONE op
};

// The simulated peer-to-peer network. It does not move bytes; it is a
// ledger. Distributed structures register what each host stores (memory),
// and route every query/update through a `cursor` (see cursor.h), which
// accumulates a thread-private traffic_receipt and merges it here — one
// commit() per operation — into sharded atomic per-host visit counters.
// Those ledgers are exactly the paper's M, Q(n)/U(n) and C(n).
//
// Concurrency model (two planes):
//  - Query plane: any number of threads may run const queries on the
//    structures concurrently; each operation's cursor commits its receipt
//    with relaxed atomic increments. Commits from different threads
//    interleave freely and totals are exact.
//  - Structural plane: add_host(), charge() and the traffic *getters*
//    (total_messages, visits, max_visits, reset_traffic) are quiescent-only:
//    they require no commit to be in flight (asserted under SW_CONTRACTS).
//    Builds, inserts and erases are structural and must be externally
//    serialized against the query plane — the same single-writer contract
//    the data structures themselves have.
class network {
 public:
  explicit network(std::size_t host_count);

  // Not copyable/movable: cursors and structures hold stable pointers to it.
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  [[nodiscard]] std::size_t host_count() const { return hosts_; }

  // Bring a fresh host online (e.g. to own a newly inserted item, or to take
  // a bucket skip-web block split). Returns its id. Structural-plane only.
  //
  // Growth policy: visit counters live in fixed 4096-slot blocks that are
  // never moved once allocated (only the small block directory grows, with
  // geometric reserve), so host ids handed out earlier keep their counter
  // slots for the life of the network; the memory ledger is a plain vector
  // with geometric growth, touched only on this plane.
  host_id add_host();

  // Grow by `count` hosts in one structural step: one ledger resize and one
  // visit-block growth instead of `count` round trips. Tower-placement bulk
  // builds add a host per item (a million add_host calls at n = 1M), which
  // is why this exists. Returns the first new host id.
  host_id add_hosts(std::size_t count);

  // --- memory ledger (structural plane) ------------------------------------
  void charge(host_id h, memory_kind kind, std::int64_t delta);
  [[nodiscard]] std::uint64_t memory_used(host_id h) const;
  [[nodiscard]] std::uint64_t memory_used(host_id h, memory_kind kind) const;
  [[nodiscard]] std::uint64_t max_memory() const;
  [[nodiscard]] double mean_memory() const;
  [[nodiscard]] std::uint64_t total_memory() const;

  // --- traffic ledger -------------------------------------------------------
  //
  // Written exclusively through commit(): one call per finished operation,
  // merging the cursor's hop log. Safe to call from any number of threads.
  void commit(const traffic_receipt& r);

  // True when no commit is executing right now. The traffic getters below
  // are only coherent in that state (between operations, or after worker
  // threads joined); they assert it so a racy read is caught, not returned.
  [[nodiscard]] bool traffic_quiescent() const {
    return commits_in_flight_.load(std::memory_order_acquire) == 0;
  }

  [[nodiscard]] std::uint64_t total_messages() const {
    SW_EXPECTS(traffic_quiescent());
    return total_messages_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t visits(host_id h) const;
  [[nodiscard]] std::uint64_t max_visits() const;

  // The heaviest single-host load any ONE committed operation imposed (max
  // over committed receipts of receipt.max_host_load()): the per-op slice of
  // the congestion axis, updated at commit time. Quiescent-only getter.
  //
  // Tracking is OFF by default: folding a per-receipt multiplicity count
  // into every commit costs hop-heavy backends up to ~2x serial ops/s
  // (family_tree's ~35-hop receipts, chord's floods), so only the
  // congestion surfaces (bench_congestion, the congestion tests) pay for
  // it. When tracking was never enabled this reads 0.
  [[nodiscard]] std::uint64_t max_op_host_load() const {
    SW_EXPECTS(traffic_quiescent());
    return max_op_host_load_.load(std::memory_order_relaxed);
  }

  // Enable/disable the per-op max-host-load fold above. Structural plane:
  // flip only while quiescent (asserted), like attach_hop_cache.
  void set_op_load_tracking(bool on) {
    SW_EXPECTS(traffic_quiescent());
    op_load_tracking_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool op_load_tracking() const {
    return op_load_tracking_.load(std::memory_order_relaxed);
  }

  // One-call congestion report over the visit ledger (max/mean/p99 host
  // visits, touched-host count, per-op max host load). Quiescent-only, like
  // every traffic getter.
  [[nodiscard]] struct congestion_profile congestion_profile() const;

  // Zero the message/visit counters between workload phases; memory stays.
  // Quiescent-only, like the getters.
  void reset_traffic();

  // --- client-side routing replicas (the congestion plane's cache seam) ----
  //
  // Attaching a hop cache makes every subsequently constructed *query-plane*
  // cursor offer its first `absorb_depth()` hops to the cache (see
  // cursor::move_to), and makes commit() feed each merged receipt to
  // `on_commit()` so the cache can learn where the traffic concentrates.
  // Detach with nullptr. Structural plane: attach/detach only while
  // quiescent. The cache must outlive its attachment.
  void attach_hop_cache(hop_cache* cache) {
    SW_EXPECTS(traffic_quiescent());
    hop_cache_ = cache;
  }
  [[nodiscard]] hop_cache* attached_hop_cache() const { return hop_cache_; }

  // Structural sections: a routing replica can serve *reads*; it cannot
  // absorb the cost of a structural update. Backends bracket their
  // insert/erase bodies (and the registries bracket builds) with a
  // structural_section, and cursors constructed inside one never absorb —
  // including the cursors of nested query sub-calls a structural op makes
  // while routing (e.g. bucket_skipgraph::insert routing via its skip
  // graph's nearest). A network-global flag is sound here because the
  // structural plane is single-writer and never concurrent with queries —
  // the same contract the structures themselves have (§two-plane model,
  // DESIGN.md §8). Re-entrant (sections nest).
  void enter_structural_section() {
    structural_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  void exit_structural_section() {
    SW_ASSERT(structural_depth_.load(std::memory_order_relaxed) > 0);
    structural_depth_.fetch_sub(1, std::memory_order_relaxed);
  }
  [[nodiscard]] bool in_structural_section() const {
    return structural_depth_.load(std::memory_order_relaxed) > 0;
  }

  // --- fault plane ----------------------------------------------------------
  //
  // The failure model of the P2P setting: hosts crash (kill_host), come back
  // (revive_host), the network splits into groups that cannot exchange
  // messages (set_partitions), and individual messages are lost with a seeded
  // probability (set_message_loss). All of it is injected at the cursor/hop
  // seam — cursor::move_to / try_move_to consult reachable() — so every
  // backend sees the same fault semantics without per-backend plumbing.
  //
  // Concurrency: kill/revive/partition/loss mutations are structural-plane
  // (quiescent-only, asserted), exactly like add_host; the read side
  // (host_alive, reachable, faults_active) is query-plane and reads plain
  // memory that is only written while no query is in flight. When no fault
  // was ever configured, faults_active() is false and cursors take a code
  // path byte-identical to the fault-free build (answers AND receipts).
  void kill_host(host_id h);
  void revive_host(host_id h);
  [[nodiscard]] bool host_alive(host_id h) const {
    SW_EXPECTS(h.valid() && h.value < hosts_);
    return dead_.empty() || dead_[h.value] == 0;
  }
  [[nodiscard]] std::size_t hosts_killed() const { return killed_count_; }
  // Bumped on every real alive/dead transition (a kill of a live host or a
  // revive of a dead one; repeats are no-ops). Structures that cache "no
  // record depends on a dead host" key the cache on this counter, so the
  // check is O(1) until liveness actually changes (DESIGN.md §10). Same
  // write discipline as dead_.
  [[nodiscard]] std::uint64_t liveness_epoch() const { return liveness_epoch_; }
  [[nodiscard]] std::size_t live_host_count() const { return hosts_ - killed_count_; }
  // Any live host, scanning from `near` upward (wrapping): the fallback
  // query entry point when a preferred origin is dead. Asserts at least one
  // live host exists.
  [[nodiscard]] host_id any_live_host(host_id near = host_id{0}) const;

  // Split the network: hosts in groups[i] get partition id i+1; hosts not
  // named get id 0 (the "main" partition). Messages cross partitions only if
  // both endpoints share an id. Pass {} / clear_partitions() to heal.
  void set_partitions(const std::vector<std::vector<host_id>>& groups);
  void clear_partitions() { set_partitions({}); }
  [[nodiscard]] bool partitioned() const { return !partition_.empty(); }

  // Seeded probabilistic loss: each attempted hop is independently lost with
  // probability p (the retry charge is computed statelessly per attempt from
  // (seed, from, to, attempt-serial) inside the cursor, so receipts stay
  // thread-count-deterministic). p = 0 disables. Requires 0 <= p < 1.
  void set_message_loss(double p, std::uint64_t seed);
  [[nodiscard]] double message_loss() const { return loss_p_; }
  [[nodiscard]] std::uint64_t message_loss_seed() const { return loss_seed_; }

  // One flag the hot path checks: true iff any host is dead, a partition is
  // installed, or message loss is configured. Cursors capture it at
  // construction (like the hop cache), so a fault-free network never pays
  // for the plane's existence.
  [[nodiscard]] bool faults_active() const {
    return killed_count_ > 0 || !partition_.empty() || loss_p_ > 0.0;
  }

  // Can a message from `from` be delivered to `to` right now? (Both alive
  // and, if partitioned, in the same partition. Loss is orthogonal: a lossy
  // link is reachable, it just costs retries.)
  [[nodiscard]] bool reachable(host_id from, host_id to) const {
    if (!host_alive(to) || !host_alive(from)) return false;
    if (partition_.empty()) return true;
    return partition_[from.value] == partition_[to.value];
  }

  // --- latency plane (the deadline plane, DESIGN.md §11) --------------------
  //
  // A pluggable per-hop latency model (net/latency.h) makes every charged
  // hop cost simulated nanoseconds, accumulated into the cursor's receipt
  // and folded here at commit. Per-host slowdown multipliers model "gray"
  // hosts — alive and answering, just slow — the failure mode kills cannot
  // express. An op deadline makes routers give up mid-route (op_stats::
  // timed_out / degraded); a slow-host threshold makes upper-level routing
  // detour around suspected-slow express stops (answers unchanged — level-0
  // hops always go through, so the flanks are exact).
  //
  // Concurrency: all setters are structural-plane (quiescent-only, like
  // kill_host); the read side (hop_cost_ns, host_slowdown, the *_active
  // flags) is query-plane, captured or read from plain memory only written
  // while no query is in flight. With shape::zero (the default) cursors take
  // a code path byte-identical to the pre-latency build — answers AND
  // receipts.
  void set_latency_model(const latency_model& m) {
    SW_EXPECTS(traffic_quiescent());
    latency_ = m;
  }
  [[nodiscard]] const latency_model& hop_latency() const { return latency_; }
  [[nodiscard]] bool latency_active() const { return latency_.active(); }

  // Install/clear a per-host latency multiplier (1.0 = nominal; >= applied
  // on top of every hop draw TOWARD h). Lazily sized like dead_.
  void set_host_slowdown(host_id h, double factor);
  void clear_host_slowdowns();
  [[nodiscard]] double host_slowdown(host_id h) const {
    return slowdown_.empty() ? 1.0 : slowdown_[h.value];
  }
  [[nodiscard]] std::size_t hosts_slowed() const { return slowed_count_; }

  // Per-op simulated deadline (0 = none): query-plane cursors constructed
  // while a latency model is active flag timed_out once their accumulated
  // simulated time exceeds it, and deadline-aware walks give up mid-route
  // (degraded partial results). Structural ops ignore deadlines — an insert
  // must finish what it started.
  void set_op_deadline(std::uint64_t ns) {
    SW_EXPECTS(traffic_quiescent());
    op_deadline_ns_ = ns;
  }
  [[nodiscard]] std::uint64_t op_deadline_ns() const { return op_deadline_ns_; }

  // Suspected-slow avoidance: upper-level routing treats a next hop whose
  // slowdown multiplier is >= t as an overshoot and descends early (a pure
  // detour; answers are byte-identical because level 0 never detours).
  // 0 disables.
  void set_slow_host_threshold(double t) {
    SW_EXPECTS(traffic_quiescent());
    SW_EXPECTS(t >= 0.0);
    slow_threshold_ = t;
  }
  [[nodiscard]] double slow_host_threshold() const { return slow_threshold_; }
  [[nodiscard]] bool slow_detours_active() const {
    return latency_.active() && slow_threshold_ > 0.0 && slowed_count_ > 0;
  }

  // True when timing can alter a route (deadline give-up or slow detours):
  // interleaved batch routers fall back to the serial path so batch == serial
  // receipt equality is preserved hop for hop.
  [[nodiscard]] bool adaptive_routing_active() const {
    return latency_.active() && (op_deadline_ns_ > 0 || slow_detours_active());
  }

  // The simulated cost of one delivered hop from->to: the model draw times
  // the destination's slowdown multiplier. Query-plane, called by cursors.
  [[nodiscard]] std::uint64_t hop_cost_ns(host_id from, host_id to, std::uint64_t serial) const {
    std::uint64_t ns = latency_.sample_ns(from, to, serial);
    if (!slowdown_.empty()) {
      const double m = slowdown_[to.value];
      if (m != 1.0) ns = static_cast<std::uint64_t>(static_cast<double>(ns) * m);
    }
    return ns;
  }

  // Total simulated nanoseconds of every committed receipt since the last
  // reset_traffic(): the time-integral sibling of total_messages().
  // Quiescent-only, like every traffic getter.
  [[nodiscard]] std::uint64_t total_sim_ns() const {
    SW_EXPECTS(traffic_quiescent());
    return total_sim_ns_.load(std::memory_order_relaxed);
  }

 private:
  // Visit-counter shard: a fixed-size block of atomics. Blocks are allocated
  // once and never relocated, so concurrent commits may increment counters
  // while (quiescent-only) add_host calls append fresh blocks.
  static constexpr std::size_t block_bits = 12;
  static constexpr std::size_t block_size = std::size_t{1} << block_bits;

  [[nodiscard]] std::atomic<std::uint64_t>& visit_slot(std::uint32_t host) const {
    return visit_blocks_[host >> block_bits][host & (block_size - 1)];
  }

  void grow_visit_blocks_to(std::size_t hosts);

  struct memory_row {
    std::uint64_t counts[4] = {0, 0, 0, 0};
  };

  std::vector<memory_row> memory_;
  std::vector<std::unique_ptr<std::atomic<std::uint64_t>[]>> visit_blocks_;
  std::size_t hosts_ = 0;
  // Fault plane. dead_/partition_ are lazily sized on first use (empty means
  // "everything alive / no partitions"), written only on the structural
  // plane, read concurrently on the query plane — race-free under the
  // two-plane contract.
  std::vector<std::uint8_t> dead_;
  std::vector<std::uint32_t> partition_;
  std::size_t killed_count_ = 0;
  std::uint64_t liveness_epoch_ = 0;
  double loss_p_ = 0.0;
  std::uint64_t loss_seed_ = 0;
  // Latency plane (same write discipline as dead_/partition_).
  latency_model latency_;
  std::vector<double> slowdown_;
  std::size_t slowed_count_ = 0;
  std::uint64_t op_deadline_ns_ = 0;
  double slow_threshold_ = 0.0;
  std::atomic<std::uint64_t> total_sim_ns_{0};
  std::atomic<std::uint64_t> total_messages_{0};
  std::atomic<std::uint64_t> max_op_host_load_{0};
  std::atomic<bool> op_load_tracking_{false};
  std::atomic<std::uint32_t> structural_depth_{0};
  hop_cache* hop_cache_ = nullptr;
  mutable std::atomic<std::uint32_t> commits_in_flight_{0};
};

// RAII bracket for one structural operation (insert/erase/build): cursors
// constructed while any section is open never absorb hops from the attached
// hop cache, so update receipts price the full route with or without a
// cache. See network::enter_structural_section.
class structural_section {
 public:
  explicit structural_section(network& net) : net_(&net) { net.enter_structural_section(); }
  ~structural_section() { net_->exit_structural_section(); }
  structural_section(const structural_section&) = delete;
  structural_section& operator=(const structural_section&) = delete;

 private:
  network* net_;
};

}  // namespace skipweb::net
