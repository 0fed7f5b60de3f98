#include "core/skipweb_1d.h"

#include <algorithm>
#include <sstream>

#include "core/routing_1d.h"
#include "persist/net_snapshot.h"
#include "util/radix_sort.h"
#include "util/prefetch.h"

namespace skipweb::core {

namespace {

std::vector<std::uint64_t> sorted_unique(std::vector<std::uint64_t> keys) {
  util::radix_sort_u64(keys);  // ~4x std::sort at bulk-build sizes
  SW_EXPECTS(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  return keys;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

level_lists skipweb_1d::make_lists(std::vector<std::uint64_t> keys, util::rng& r, bool bulk) {
  auto sorted = sorted_unique(std::move(keys));
  SW_EXPECTS(!sorted.empty());
  const int levels = level_lists::levels_for(std::max<std::size_t>(sorted.size(), 2));
  if (bulk) return level_lists::build_from_sorted(std::move(sorted), r, levels);
  return level_lists(std::move(sorted), r, levels);
}

skipweb_1d::skipweb_1d(std::vector<std::uint64_t> keys, std::uint64_t seed, net::network& net,
                       placement p, std::size_t replication, bool bulk)
    : rng_(seed), lists_(make_lists(std::move(keys), rng_, bulk)), net_(&net), policy_(p) {
  if (policy_ == placement::tower) {
    // One host per item; grow the network if the caller sized it smaller.
    if (net_->host_count() < lists_.size()) net_->add_hosts(lists_.size() - net_->host_count());
    owner_.resize(lists_.arena_size());
    for (std::size_t i = 0; i < lists_.arena_size(); ++i) {
      owner_[i] = net::host_id{static_cast<std::uint32_t>(i)};
    }
    // Successor/predecessor replica lists (tower placement only — see the
    // header). Installed before the memory ledger pass so the replica
    // host_refs are charged alongside the rest of each item's footprint.
    if (replication > 0) lists_.set_replication(replication);
  }
  // Every host gets a root: an anchor item whose tower top seeds searches
  // (paper §1.1: "each host has a reference to the place where any search
  // from that host should begin").
  root_item_.assign(net_->host_count(), -1);
  for (std::size_t h = 0; h < net_->host_count(); ++h) {
    root_item_[h] = static_cast<int>(h % lists_.arena_size());
    net_->charge(net::host_id{static_cast<std::uint32_t>(h)}, net::memory_kind::host_ref, 1);
  }
  // Register the structure in the memory ledger.
  for (int i = 0; i < static_cast<int>(lists_.arena_size()); ++i) charge_item_memory(i, +1);
}

skipweb_1d::skipweb_1d(persist::reader& r, net::network& net)
    : rng_(0),
      lists_(r, "lists"),
      net_(&net),
      policy_(r.u64("impl.policy") == 0 ? placement::tower : placement::balanced) {
  std::istringstream iss(r.str("impl.rng"));
  iss >> rng_.engine();
  if (!iss) throw persist::error("snapshot: unreadable rng state");
  owner_ = r.vec<net::host_id>("impl.owner");
  root_item_ = r.vec<int>("impl.root_item");
  if (policy_ == placement::tower && owner_.size() != lists_.arena_size()) {
    throw persist::error("snapshot: owner table disagrees with arena size");
  }
  // Replaying the ledger grows the fresh network to the saved host count, so
  // root_for's per-host table lines up again after the check below.
  persist::restore_network(r, net, "net");
  if (root_item_.size() != net_->host_count()) {
    throw persist::error("snapshot: root table disagrees with host count");
  }
}

void skipweb_1d::save_snapshot(persist::writer& w) const {
  lists_.save(w, "lists");
  w.add_u64("impl.policy", policy_ == placement::tower ? 0u : 1u);
  // mt19937_64's full 2.5KB state round-trips through its stream operators.
  std::ostringstream oss;
  oss << rng_.engine();
  w.add_string("impl.rng", oss.str());
  w.add_vector("impl.owner", owner_);
  w.add_vector("impl.root_item", root_item_);
  persist::save_network(w, *net_, "net");
}

void skipweb_1d::compact() {
  lists_.compact();
  owner_.shrink_to_fit();
  root_item_.shrink_to_fit();
}

void skipweb_1d::prefetch_host(int item) const {
  if (policy_ == placement::tower) util::prefetch(&owner_[static_cast<std::size_t>(item)]);
}

net::host_id skipweb_1d::host_of(int item, int level) const {
  if (policy_ == placement::tower) return owner_[static_cast<std::size_t>(item)];
  return net::host_id{
      static_cast<std::uint32_t>(mix(lists_.uid(item), static_cast<std::uint64_t>(level)) %
                                 net_->host_count())};
}

int skipweb_1d::root_for(net::host_id origin) const {
  SW_EXPECTS(origin.value < root_item_.size());
  int item = root_item_[origin.value];
  // A deleted anchor leaves a redirect to its old successor; follow it (the
  // replacement pointer handed over when the anchor's owner left).
  while (item >= 0 && !lists_.alive(item)) item = lists_.redirect(item);
  if (item < 0) item = lists_.any_alive();
  SW_EXPECTS(item >= 0);
  return item;
}

int skipweb_1d::fault_root(net::cursor& cur, net::host_id origin) const {
  // Try the origin's own root tower first, then successive hosts' roots —
  // each unreachable entry tower costs one timed-out probe. At a dead
  // fraction f the expected number of probes is 1/(1-f).
  const std::size_t hosts = root_item_.size();
  for (std::size_t attempt = 0; attempt < hosts; ++attempt) {
    const auto h = static_cast<std::uint32_t>((origin.value + attempt) % hosts);
    int item = root_item_[h];
    while (item >= 0 && !lists_.alive(item)) item = lists_.redirect(item);
    if (item < 0) item = lists_.any_alive();
    SW_EXPECTS(item >= 0);
    if (cur.try_move_to(host_of(item, lists_.levels()))) return item;
  }
  cur.mark_failed();  // no live entry tower found from any host's root
  return lists_.any_alive();
}

api::nn_result skipweb_1d::nearest_fault(std::uint64_t q, net::host_id origin) const {
  api::nn_result out;
  net::cursor cur(*net_, origin);
  const int root = fault_root(cur, origin);
  const auto [pred, succ] =
      route_search_fault(lists_, *net_, q, root, lists_.levels(), cur,
                         [this](int i, int l) { return host_of(i, l); },
                         [this](int i) { prefetch_host(i); });
  if (pred >= 0) {
    out.has_pred = true;
    out.pred = lists_.key(pred);
  }
  if (succ >= 0) {
    out.has_succ = true;
    out.succ = lists_.key(succ);
  }
  out.stats = api::op_stats::of(cur);
  return out;
}

api::nn_result skipweb_1d::nearest(std::uint64_t q, net::host_id origin) const {
  if (fault_routing()) return nearest_fault(q, origin);
  api::nn_result out;
  net::cursor cur(*net_, origin);
  const int root = root_for(origin);
  cur.move_to(host_of(root, lists_.levels()));
  const auto [pred, succ] =
      route_search(lists_, q, root, lists_.levels(), cur,
                   [this](int i, int l) { return host_of(i, l); },
                   [this](int i) { prefetch_host(i); });
  if (pred >= 0) {
    out.has_pred = true;
    out.pred = lists_.key(pred);
  }
  if (succ >= 0) {
    out.has_succ = true;
    out.succ = lists_.key(succ);
  }
  out.stats = api::op_stats::of(cur);
  return out;
}

std::vector<api::nn_result> skipweb_1d::nearest_batch(const std::vector<std::uint64_t>& qs,
                                                      net::host_id origin) const {
  std::vector<api::nn_result> out(qs.size());
  if (qs.empty()) return out;
  if (fault_routing() || net_->adaptive_routing_active()) {
    // The interleaved router is neither replica- nor deadline-aware; the
    // batch == serial receipt contract is preserved by simply running
    // serially under faults, per-op deadlines or slow-host detours. (Pure
    // latency accumulation needs no gate: draw serials are cursor-private,
    // so the interleaved walk prices hops identically to the serial one.)
    for (std::size_t i = 0; i < qs.size(); ++i) {
      out[i] = fault_routing() ? nearest_fault(qs[i], origin) : nearest(qs[i], origin);
    }
    return out;
  }
  const int root = root_for(origin);
  // Interleave in chunks: each in-flight query holds about one outstanding
  // miss, and a couple dozen chains saturate the core's miss parallelism.
  constexpr std::size_t kChunk = 24;
  std::vector<net::cursor> curs;
  std::vector<std::pair<int, int>> flanks(kChunk);
  for (std::size_t base = 0; base < qs.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, qs.size() - base);
    curs.clear();
    for (std::size_t i = 0; i < count; ++i) {
      curs.emplace_back(*net_, origin);
      curs.back().move_to(host_of(root, lists_.levels()));
    }
    route_search_batch(
        lists_, qs.data() + base, count, root, lists_.levels(), curs.data(), flanks.data(),
        [this](int i, int l) { return host_of(i, l); }, [this](int i) { prefetch_host(i); });
    for (std::size_t i = 0; i < count; ++i) {
      const auto [pred, succ] = flanks[i];
      api::nn_result& r = out[base + i];
      if (pred >= 0) {
        r.has_pred = true;
        r.pred = lists_.key(pred);
      }
      if (succ >= 0) {
        r.has_succ = true;
        r.succ = lists_.key(succ);
      }
      r.stats = api::op_stats::of(curs[i]);
    }
  }
  return out;
}

api::op_result<bool> skipweb_1d::contains(std::uint64_t q, net::host_id origin) const {
  const auto r = nearest(q, origin);
  return {r.has_pred && r.pred == q, r.stats};
}

api::op_result<std::vector<std::uint64_t>> skipweb_1d::range(std::uint64_t lo, std::uint64_t hi,
                                                             net::host_id origin,
                                                             std::size_t limit) const {
  SW_EXPECTS(lo <= hi);
  if (fault_routing()) {
    // Route to lo with the replica-aware descent, then walk the base list
    // stepping over dead runs: every live item visited is charged, every
    // dead candidate inspected costs one timed-out probe, and a run longer
    // than k marks the op failed (results up to the break are returned).
    api::op_result<std::vector<std::uint64_t>> out;
    net::cursor cur(*net_, origin);
    const int root = fault_root(cur, origin);
    const auto [pred, succ] =
        route_search_fault(lists_, *net_, lo, root, lists_.levels(), cur,
                           [this](int i, int l) { return host_of(i, l); },
                           [this](int i) { prefetch_host(i); });
    const std::size_t k = lists_.replication();
    int item = (pred >= 0 && lists_.key(pred) == lo) ? pred : succ;
    if (item >= 0) cur.move_to(host_of(item, 0));  // flanks are live by contract
    while (item >= 0 && lists_.key(item) <= hi) {
      if (limit != 0 && out.value.size() >= limit) break;
      // Deadline plane: give up mid-sweep, returning the keys gathered so
      // far as a degraded (honest-prefix) answer. The >= lo guard keeps the
      // prefix honest even when the descent itself gave up short of lo.
      if (cur.expired()) {
        cur.mark_degraded();
        break;
      }
      if (lists_.key(item) >= lo) out.value.push_back(lists_.key(item));
      // Advance to the first live known successor.
      int next_item = -1;
      for (std::size_t j = 0; j <= k; ++j) {
        const int cand = j == 0 ? lists_.next(item, 0) : lists_.fwd_replica(item, j - 1).to;
        if (cand < 0) break;  // clean end of the list
        if (cur.try_move_to(host_of(cand, 0))) {
          next_item = cand;
          break;
        }
        if (j == k) cur.mark_failed();  // dead run exceeds the horizon
      }
      item = next_item;
    }
    out.stats = api::op_stats::of(cur);
    return out;
  }
  net::cursor cur(*net_, origin);
  const int root = root_for(origin);
  cur.move_to(host_of(root, lists_.levels()));
  const auto [pred, succ] = route_search(lists_, lo, root, lists_.levels(), cur,
                                         [this](int i, int l) { return host_of(i, l); },
                                         [this](int i) { prefetch_host(i); });
  api::op_result<std::vector<std::uint64_t>> out;
  int item = (pred >= 0 && lists_.key(pred) == lo) ? pred : succ;
  while (item >= 0 && lists_.key(item) <= hi) {
    if (limit != 0 && out.value.size() >= limit) break;
    // Deadline give-up, exactly as in the fault-routed sweep above.
    if (cur.expired()) {
      cur.mark_degraded();
      break;
    }
    cur.move_to(host_of(item, 0));
    if (lists_.key(item) >= lo) out.value.push_back(lists_.key(item));
    item = lists_.next(item, 0);
  }
  out.stats = api::op_stats::of(cur);
  return out;
}

api::op_stats skipweb_1d::insert(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  net::cursor cur(*net_, origin);
  auto host_fn = [this](int i, int l) { return host_of(i, l); };
  std::pair<int, int> flanks;
  if (fault_routing()) {
    // Structural edits require a repaired structure (no dead item still
    // spliced): the fault route returns LIVE flanks, and splice_in needs
    // the direct ones — after repair they coincide.
    advance_repair_scan();  // keeps the check below O(1) per write
    SW_EXPECTS(!needs_repair());
    const int root = fault_root(cur, origin);
    flanks = route_search_fault(lists_, *net_, key, root, lists_.levels(), cur, host_fn,
                                [this](int i) { prefetch_host(i); });
  } else {
    const int root = root_for(origin);
    cur.move_to(host_of(root, lists_.levels()));
    flanks = route_search(lists_, key, root, lists_.levels(), cur, host_fn,
                          [this](int i) { prefetch_host(i); });
  }
  const auto [pred0, succ0] = flanks;
  SW_EXPECTS(pred0 < 0 || lists_.key(pred0) != key);  // duplicate keys rejected

  const auto bits = util::draw_membership(rng_);
  const auto nbrs = find_insert_neighbors(lists_, bits, pred0, succ0, cur, host_fn);

  const int item = lists_.splice_in(key, bits, nbrs);
  if (policy_ == placement::tower) {
    // The new item's tower gets its own fresh host, which also seeds its
    // searches at the new item.
    const auto fresh = net_->add_host();
    if (owner_.size() < lists_.arena_size()) owner_.resize(lists_.arena_size());
    owner_[static_cast<std::size_t>(item)] = fresh;
    root_item_.push_back(item);
    net_->charge(fresh, net::memory_kind::host_ref, 1);
  }

  // Place the new nodes and update both flanking nodes per level: visiting
  // the new node's host and any remote neighbours is what §4's bottom-up
  // repair costs.
  for (int l = 0; l <= lists_.levels(); ++l) {
    cur.move_to(host_of(item, l));
    const auto [left, right] = nbrs[static_cast<std::size_t>(l)];
    if (left >= 0) cur.move_to(host_of(left, l));
    if (right >= 0) cur.move_to(host_of(right, l));
  }
  // Replica maintenance (replication k > 0): the k nearest neighbours on
  // each side refreshed their successor/predecessor lists — one visit each.
  charge_replica_refresh(cur, lists_.prev(item, 0), lists_.next(item, 0));
  charge_item_memory(item, +1);
  return api::op_stats::of(cur);
}

api::op_stats skipweb_1d::erase(std::uint64_t key, net::host_id origin) {
  const net::structural_section sw_structural_guard(*net_);
  SW_EXPECTS(lists_.size() >= 2);  // the structure never becomes empty
  net::cursor cur(*net_, origin);
  auto host_fn = [this](int i, int l) { return host_of(i, l); };
  std::pair<int, int> flanks;
  if (fault_routing()) {
    advance_repair_scan();
    SW_EXPECTS(!needs_repair());  // see insert
    const int root = fault_root(cur, origin);
    flanks = route_search_fault(lists_, *net_, key, root, lists_.levels(), cur, host_fn,
                                [this](int i) { prefetch_host(i); });
  } else {
    const int root = root_for(origin);
    cur.move_to(host_of(root, lists_.levels()));
    flanks = route_search(lists_, key, root, lists_.levels(), cur, host_fn,
                          [this](int i) { prefetch_host(i); });
  }
  const auto [pred0, succ0] = flanks;
  (void)succ0;
  SW_EXPECTS(pred0 >= 0 && lists_.key(pred0) == key);  // key must be present
  const int item = pred0;

  // Unsplice level by level, visiting the node and its remote neighbours.
  for (int l = 0; l <= lists_.levels(); ++l) {
    cur.move_to(host_of(item, l));
    const int pv = lists_.prev(item, l);
    const int nx = lists_.next(item, l);
    if (pv >= 0) cur.move_to(host_of(pv, l));
    if (nx >= 0) cur.move_to(host_of(nx, l));
  }
  const int pv0 = lists_.prev(item, 0);
  const int nx0 = lists_.next(item, 0);
  charge_item_memory(item, -1);
  lists_.unsplice(item);
  // Survivors flanking the removal refreshed their replica lists.
  charge_replica_refresh(cur, pv0, nx0);
  return api::op_stats::of(cur);
}

void skipweb_1d::charge_replica_refresh(net::cursor& cur, int left0, int right0) {
  const std::size_t k = lists_.replication();
  if (k == 0) return;
  // Rows reach neighbours up to distance k+1, so k+1 items per side refresh
  // (mirrors level_lists::unsplice / rebuild_replicas_around).
  int s = left0;
  for (std::size_t j = 0; j <= k && s >= 0; ++j, s = lists_.prev(s, 0)) {
    (void)cur.try_move_to(host_of(s, 0));  // dead neighbours cost the probe only
  }
  s = right0;
  for (std::size_t j = 0; j <= k && s >= 0; ++j, s = lists_.next(s, 0)) {
    (void)cur.try_move_to(host_of(s, 0));
  }
}

bool skipweb_1d::needs_repair() const {
  if (lists_.replication() == 0 || !net_->faults_active()) return false;
  for (int i = repair_scan_start(); i < static_cast<int>(lists_.arena_size()); ++i) {
    if (dead_owned(i)) return true;
  }
  return false;
}

int skipweb_1d::advance_repair_scan() {
  if (lists_.replication() == 0 || !net_->faults_active()) return -1;
  scanned_ = repair_scan_start();
  scan_epoch_ = net_->liveness_epoch();
  for (; scanned_ < static_cast<int>(lists_.arena_size()); ++scanned_) {
    if (dead_owned(scanned_)) return scanned_;
  }
  return -1;
}

api::op_result<std::size_t> skipweb_1d::repair_step(net::host_id origin) {
  SW_EXPECTS(lists_.replication() > 0);  // repair is part of the replication plane
  const net::structural_section sw_structural_guard(*net_);
  // Repair is driven from a live host (the daemon runs somewhere alive).
  net::cursor cur(*net_, net_->host_alive(origin) ? origin : net_->any_live_host(origin));
  // The lowest dead-owned slot, as a scan from slot 0 would find it; the
  // cache only skips the prefix an earlier step already proved clean.
  const int i = advance_repair_scan();
  if (i < 0) return {0, api::op_stats::of(cur)};
  const auto owner = owner_[static_cast<std::size_t>(i)];
  SW_EXPECTS(lists_.size() >= 2);  // the structure never becomes empty
  // The failed ping that detected the crash.
  (void)cur.try_move_to(owner);
  // Relink every level around the dead item, visiting each surviving
  // neighbour (dead neighbours — not yet repaired themselves — cost the
  // detection probe only; their own step removes them later, and
  // unsplicing in any order keeps the lists consistent).
  for (int l = 0; l <= lists_.levels(); ++l) {
    const int pv = lists_.prev(i, l);
    const int nx = lists_.next(i, l);
    if (pv >= 0) (void)cur.try_move_to(host_of(pv, l));
    if (nx >= 0) (void)cur.try_move_to(host_of(nx, l));
  }
  const int pv0 = lists_.prev(i, 0);
  const int nx0 = lists_.next(i, 0);
  charge_item_memory(i, -1);
  lists_.unsplice(i);
  charge_replica_refresh(cur, pv0, nx0);
  return {1, api::op_stats::of(cur)};
}

void skipweb_1d::charge_item_memory(int item, std::int64_t sign) {
  // Per level node: the node itself, prev/next remote references, and the
  // hyperlink to the same item's node one level down (paper §2.3). The data
  // item lives with the level-0 node, alongside its replica lists (k further
  // host references per direction) when replication is on.
  const auto k = static_cast<std::int64_t>(lists_.replication());
  if (policy_ == placement::tower) {
    // Tower placement maps every level of an item to the same host, so the
    // whole tower's ledger entries collapse into one charge per kind — the
    // bulk build registers n items in a row and the per-level loop (42
    // ledger calls per item at n = 1M) was a measurable slice of its wall
    // clock.
    const auto h = host_of(item, 0);
    const auto tower = static_cast<std::int64_t>(lists_.levels()) + 1;
    net_->charge(h, net::memory_kind::node, tower * sign);
    net_->charge(h, net::memory_kind::host_ref, (3 * tower + 2 * k) * sign);
    net_->charge(h, net::memory_kind::item, sign);
    return;
  }
  for (int l = 0; l <= lists_.levels(); ++l) {
    const auto h = host_of(item, l);
    net_->charge(h, net::memory_kind::node, sign);
    net_->charge(h, net::memory_kind::host_ref, 3 * sign);
  }
  net_->charge(host_of(item, 0), net::memory_kind::item, sign);
  if (k > 0) net_->charge(host_of(item, 0), net::memory_kind::host_ref, 2 * k * sign);
}

}  // namespace skipweb::core
