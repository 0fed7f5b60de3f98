// The failure plane (DESIGN.md §10): fault injection on net::network,
// replicated routing that survives dead hosts, and self-repair under churn.
// Suite names matter: the CI TSan job runs everything matching
// Failure|Repair|Churn, and RepairDaemon.* is the headline repair-racing-
// the-query-plane target.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.h"
#include "api/spatial_registry.h"
#include "api/string_registry.h"
#include "core/skip_quadtree.h"
#include "core/skipweb_1d.h"
#include "fault/injector.h"
#include "fault/repair.h"
#include "net/cursor.h"
#include "net/network.h"
#include "persist/snapshot.h"
#include "temp_path.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using core::skipweb_1d;
using net::host_id;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

host_id h(std::uint32_t v) { return host_id{v}; }

// Kill every 10th host starting at 1 (host 0 stays alive — tests issue from
// it). Returns the victims.
std::vector<host_id> kill_tenth(network& net) {
  std::vector<host_id> dead;
  for (std::uint32_t v = 1; v < net.host_count(); v += 10) {
    net.kill_host(h(v));
    dead.push_back(h(v));
  }
  return dead;
}

// The keys the structure still holds, discovered through the public surface
// (under fault routing, contains() answers against live flanks only).
std::set<std::uint64_t> surviving_keys(const skipweb_1d& web,
                                       const std::vector<std::uint64_t>& keys) {
  std::set<std::uint64_t> out;
  for (const auto k : keys) {
    if (web.contains(k, h(0)).value) out.insert(k);
  }
  return out;
}

void expect_matches_oracle(const api::nn_result& r, const std::set<std::uint64_t>& oracle,
                           std::uint64_t q) {
  auto it = oracle.upper_bound(q);
  const bool has_pred = it != oracle.begin();
  ASSERT_EQ(r.has_pred, has_pred) << "q=" << q;
  if (has_pred) EXPECT_EQ(r.pred, *std::prev(it)) << "q=" << q;
  const bool has_succ = it != oracle.end();
  ASSERT_EQ(r.has_succ, has_succ) << "q=" << q;
  if (has_succ) EXPECT_EQ(r.succ, *it) << "q=" << q;
}

// --- zero-fault identity ----------------------------------------------------

// With no fault active, building with replication(k) must not change a
// single routed answer or receipt — replication is pure redundancy, and the
// fault-aware code paths must be completely dormant. Run over every 1-D
// backend: the fault-tolerant ones prove cost-neutrality, the rest prove
// the knob is inert.
TEST(FailureFreeIdentity, ReplicationIsReceiptNeutralForEveryBackend) {
  rng r(4801);
  const auto keys = wl::uniform_keys(192, r);
  const auto probes = wl::query_stream(keys, 120, 4802);
  for (const auto& name : api::registered_backends()) {
    network plain_net(1), repl_net(1);
    const auto opts = api::index_options{}.seed(55).initial_hosts(8).bucket_size(16).buckets(24);
    const auto plain = api::make_index(name, keys, opts, plain_net);
    const auto repl =
        api::make_index(name, keys, api::index_options(opts).replication(3), repl_net);
    std::uint32_t origin = 0;
    for (const auto q : probes) {
      const auto a = plain->nearest(q, h(origin));
      const auto b = repl->nearest(q, h(origin));
      origin = static_cast<std::uint32_t>((origin + 1) % plain_net.host_count());
      ASSERT_EQ(a.has_pred, b.has_pred) << name;
      ASSERT_EQ(a.has_succ, b.has_succ) << name;
      if (a.has_pred) ASSERT_EQ(a.pred, b.pred) << name;
      if (a.has_succ) ASSERT_EQ(a.succ, b.succ) << name;
      ASSERT_EQ(a.stats, b.stats) << name << " q=" << q;  // receipts, byte for byte
      ASSERT_FALSE(b.stats.failed) << name;
    }
  }
}

TEST(FailureFreeIdentity, SpatialReplicationIsReceiptNeutralForEveryBackend) {
  rng r(4803);
  const auto pts2 = wl::spatial_points(2, 160, false, r);
  const auto pts3 = wl::spatial_points(3, 160, false, r);
  for (const auto& name : api::registered_spatial_backends()) {
    const auto& pts = api::spatial_backend_dims(name) == 3 ? pts3 : pts2;
    const auto probes =
        wl::spatial_query_stream(api::spatial_backend_dims(name), 100, 4804);
    network plain_net(1), repl_net(1);
    const auto opts = api::index_options{}.seed(56).initial_hosts(8);
    const auto plain = api::make_spatial_index(name, pts, opts, plain_net);
    const auto repl =
        api::make_spatial_index(name, pts, api::index_options(opts).replication(3), repl_net);
    std::uint32_t origin = 0;
    for (const auto& q : probes) {
      const auto a = plain->locate(q, h(origin));
      const auto b = repl->locate(q, h(origin));
      origin = static_cast<std::uint32_t>((origin + 1) % plain_net.host_count());
      ASSERT_EQ(a.found, b.found) << name;
      ASSERT_EQ(a.cell, b.cell) << name;
      ASSERT_EQ(a.scale, b.scale) << name;
      ASSERT_EQ(a.stats, b.stats) << name;
      ASSERT_FALSE(b.stats.failed) << name;
    }
  }
}

TEST(FailureFreeIdentity, StringReplicationIsReceiptNeutralForEveryBackend) {
  // The replication knob composes with the string plane without perturbing a
  // single receipt on a healthy network — for every registered text backend.
  rng r(4821);
  const auto keys = wl::url_paths(160, r);
  const auto probes = wl::string_query_stream(keys, 90, 4822);
  const auto prefixes = wl::prefix_stream(keys, 30, 4822);
  for (const auto& name : api::registered_string_backends()) {
    network plain_net(1), repl_net(1);
    const auto opts = api::index_options{}.seed(57).initial_hosts(8);
    const auto plain = api::make_string_index(name, keys, opts, plain_net);
    const auto repl =
        api::make_string_index(name, keys, api::index_options(opts).replication(3), repl_net);
    std::uint32_t origin = 0;
    for (const auto& q : probes) {
      const auto a = plain->contains(q, h(origin));
      const auto b = repl->contains(q, h(origin));
      origin = static_cast<std::uint32_t>((origin + 1) % plain_net.host_count());
      ASSERT_EQ(a.value, b.value) << name << " q=" << q;
      ASSERT_EQ(a.stats, b.stats) << name << " q=" << q;
      ASSERT_FALSE(b.stats.failed) << name;
    }
    for (const auto& p : prefixes) {
      const auto a = plain->prefix_match(p, h(0));
      const auto b = repl->prefix_match(p, h(0));
      ASSERT_EQ(a.value, b.value) << name << " p=" << p;
      ASSERT_EQ(a.stats, b.stats) << name << " p=" << p;
      const auto ta = plain->top_k(p, 4, h(0));
      const auto tb = repl->top_k(p, 4, h(0));
      ASSERT_EQ(ta.value, tb.value) << name << " p=" << p;
      ASSERT_EQ(ta.stats, tb.stats) << name << " p=" << p;
    }
    const auto terms = api::string_tokens(keys[5]);
    ASSERT_EQ(plain->intersect(terms, h(0)).value, repl->intersect(terms, h(0)).value) << name;
  }
}

TEST(FailureFreeIdentity, CapabilityAdvertisedOnlyWhenReplicated) {
  rng r(4805);
  const auto keys = wl::uniform_keys(64, r);
  network n1(1), n2(1);
  const auto plain = api::make_index("skipweb1d", keys, api::index_options{}.seed(5), n1);
  const auto repl =
      api::make_index("skipweb1d", keys, api::index_options{}.seed(5).replication(2), n2);
  EXPECT_FALSE(plain->supports(api::capability::fault_tolerant));
  EXPECT_TRUE(repl->supports(api::capability::fault_tolerant));
  EXPECT_THROW((void)plain->repair_step(h(0)), api::unsupported_operation);

  const auto pts = wl::spatial_points(2, 64, false, r);
  network n3(1), n4(1);
  const auto splain = api::make_spatial_index("skip_quadtree2", pts, api::index_options{}.seed(6), n3);
  const auto srepl = api::make_spatial_index("skip_quadtree2", pts,
                                             api::index_options{}.seed(6).replication(2), n4);
  EXPECT_FALSE(splain->supports(api::spatial_capability::fault_tolerant));
  EXPECT_TRUE(srepl->supports(api::spatial_capability::fault_tolerant));
  EXPECT_THROW((void)splain->repair_step(h(0)), api::unsupported_operation);
}

// --- fault injection on the network itself ----------------------------------

TEST(FailureInjection, KillReviveAndProfileSkipDeadHosts) {
  network net(6);
  // Record some traffic so the profile has something to report; alternating
  // hops make host 5 unambiguously the busiest.
  {
    net::cursor cur(net, h(0));
    cur.move_to(h(5));
    cur.move_to(h(1));
    cur.move_to(h(5));
    cur.move_to(h(2));
    cur.move_to(h(5));
  }
  const auto before = net.congestion_profile();
  EXPECT_EQ(before.hosts, 6u);
  EXPECT_EQ(before.hosts_killed, 0u);

  net.kill_host(h(5));
  EXPECT_FALSE(net.host_alive(h(5)));
  EXPECT_EQ(net.live_host_count(), 5u);
  const auto after = net.congestion_profile();
  EXPECT_EQ(after.hosts, 5u);
  EXPECT_EQ(after.hosts_killed, 1u);
  // The dead slot leaves the live aggregates but not the grand total: the
  // ledger still reconciles with total_messages().
  EXPECT_EQ(after.total_visits, before.total_visits);
  EXPECT_LT(after.max_visits, before.max_visits);

  net.revive_host(h(5));
  EXPECT_TRUE(net.host_alive(h(5)));
  EXPECT_EQ(net.congestion_profile().hosts, 6u);
  EXPECT_FALSE(net.faults_active());
}

TEST(FailureInjection, PartitionsCutReachabilityWithoutKilling) {
  network net(4);
  EXPECT_TRUE(net.reachable(h(0), h(3)));
  net.set_partitions({{h(0), h(1)}, {h(2), h(3)}});
  EXPECT_TRUE(net.faults_active());
  EXPECT_TRUE(net.reachable(h(0), h(1)));
  EXPECT_FALSE(net.reachable(h(1), h(2)));
  EXPECT_TRUE(net.host_alive(h(2)));  // partitioned, not dead
  net.clear_partitions();
  EXPECT_FALSE(net.faults_active());
  EXPECT_TRUE(net.reachable(h(1), h(2)));
}

TEST(FailureInjection, MessageLossIsChargedAndDeterministic) {
  rng r(4811);
  const auto keys = wl::uniform_keys(128, r);
  const auto probes = wl::query_stream(keys, 60, 4812);

  network net(static_cast<std::size_t>(keys.size()));
  skipweb_1d web(keys, 7, net, skipweb_1d::placement::tower);
  std::vector<api::op_stats> clean;
  for (const auto q : probes) clean.push_back(web.nearest(q, h(0)).stats);

  net.set_message_loss(0.25, 99);
  EXPECT_TRUE(net.faults_active());
  const std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  std::uint64_t lost_retries = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto a = web.nearest(probes[i], h(0));
    const auto b = web.nearest(probes[i], h(0));
    expect_matches_oracle(a, oracle, probes[i]);  // retries never change answers
    EXPECT_EQ(a.stats, b.stats);                  // loss draws are replayable
    EXPECT_GE(a.stats.messages, clean[i].messages);
    lost_retries += a.stats.messages - clean[i].messages;
  }
  EXPECT_GT(lost_retries, 0u);  // at p = 0.25 some attempt was dropped
  net.set_message_loss(0.0, 0);
  EXPECT_FALSE(net.faults_active());
}

TEST(FailureInjection, StringMessageLossIsChargedAndDeterministic) {
  // Text ops ride the same priced cursor plane, so lossy links surface the
  // same way: answers never change, receipts grow by the replayable retries.
  rng r(4815);
  const auto keys = wl::dictionary_words(150, r);
  const auto probes = wl::string_query_stream(keys, 50, 4816);
  const auto prefixes = wl::prefix_stream(keys, 15, 4816);

  for (const auto& name : api::registered_string_backends()) {
    network net(1);
    const auto idx = api::make_string_index(
        name, keys, api::index_options{}.seed(58).initial_hosts(8), net);
    std::vector<api::op_stats> clean;
    std::vector<bool> clean_hits;
    for (const auto& q : probes) {
      const auto res = idx->contains(q, h(0));
      clean.push_back(res.stats);
      clean_hits.push_back(res.value);
    }
    std::vector<std::vector<std::string>> clean_prefix;
    for (const auto& p : prefixes) clean_prefix.push_back(idx->prefix_match(p, h(0)).value);

    net.set_message_loss(0.25, 99);
    EXPECT_TRUE(net.faults_active());
    std::uint64_t lost_retries = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto a = idx->contains(probes[i], h(0));
      const auto b = idx->contains(probes[i], h(0));
      EXPECT_EQ(a.value, clean_hits[i]) << name;  // retries never change answers
      EXPECT_EQ(a.stats, b.stats) << name;        // loss draws are replayable
      EXPECT_GE(a.stats.messages, clean[i].messages) << name;
      lost_retries += a.stats.messages - clean[i].messages;
    }
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      EXPECT_EQ(idx->prefix_match(prefixes[i], h(0)).value, clean_prefix[i]) << name;
    }
    EXPECT_GT(lost_retries, 0u) << name;  // at p = 0.25 some attempt was dropped
    net.set_message_loss(0.0, 0);
    EXPECT_FALSE(net.faults_active());
  }
}

// Fault-unaware structures keep their answers under kills (the simulation
// routes mechanically through ghost hops) but every op that leaned on a dead
// host says so — the honesty contract the availability metrics build on.
TEST(FailureGhostHops, UnawareBackendFlagsDeadRoutes) {
  rng r(4821);
  const auto keys = wl::uniform_keys(256, r);
  const auto probes = wl::query_stream(keys, 150, 4822);
  network net(1);
  const auto idx =
      api::make_index("skip_graph", keys, api::index_options{}.seed(77).initial_hosts(64), net);
  std::vector<api::nn_result> clean;
  for (const auto q : probes) clean.push_back(idx->nearest(q, h(0)));

  kill_tenth(net);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto fr = idx->nearest(probes[i], h(0));
    EXPECT_EQ(fr.has_pred, clean[i].has_pred);
    EXPECT_EQ(fr.has_succ, clean[i].has_succ);
    if (fr.has_pred) EXPECT_EQ(fr.pred, clean[i].pred);
    if (fr.has_succ) EXPECT_EQ(fr.succ, clean[i].succ);
    if (fr.stats.failed) ++failed;
  }
  EXPECT_GT(failed, 0u);  // 10% dead hosts cannot go unnoticed
}

// --- replicated routing (1-D) -----------------------------------------------

TEST(Replication1D, RoutesAroundTenPercentDeadHosts) {
  rng r(4831);
  const auto keys = wl::uniform_keys(512, r);
  const auto probes = wl::query_stream(keys, 300, 4832);
  network net(keys.size());
  skipweb_1d web(keys, 21, net, skipweb_1d::placement::tower, 3);
  EXPECT_EQ(web.replication(), 3u);

  kill_tenth(net);
  const auto live = surviving_keys(web, keys);
  EXPECT_LT(live.size(), keys.size());  // some towers really are dead
  EXPECT_GT(live.size(), keys.size() * 8 / 10);

  std::size_t failed = 0;
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    if (res.stats.failed) {
      ++failed;
      continue;
    }
    // An available answer is correct with respect to the live key set.
    expect_matches_oracle(res, live, q);
  }
  // k = 3 replicas tolerate 3 consecutive dead towers; at 10% killed the
  // chance of a blocked route is ~1e-4 per position.
  EXPECT_GE(static_cast<double>(probes.size() - failed),
            0.99 * static_cast<double>(probes.size()));

  // Batched fault-mode lookups stay identical to serial ones.
  const std::vector<std::uint64_t> batch(probes.begin(), probes.begin() + 50);
  const auto batched = web.nearest_batch(batch, h(0));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto serial = web.nearest(batch[i], h(0));
    EXPECT_EQ(batched[i].stats, serial.stats);
    if (serial.has_pred) EXPECT_EQ(batched[i].pred, serial.pred);
    if (serial.has_succ) EXPECT_EQ(batched[i].succ, serial.succ);
  }

  // Range queries walk the live base list.
  const auto lo = *live.begin();
  const auto hi = *std::prev(live.end());
  const auto rr = web.range(lo, hi, h(0), 0);
  if (!rr.stats.failed) {
    EXPECT_EQ(rr.value.size(), live.size());
  }
}

// --- self-repair (1-D) ------------------------------------------------------

TEST(Repair1D, StepsRestoreInvariantsAndAvailability) {
  rng r(4841);
  const auto keys = wl::uniform_keys(384, r);
  network net(keys.size());
  skipweb_1d web(keys, 31, net, skipweb_1d::placement::tower, 3);

  kill_tenth(net);
  ASSERT_TRUE(web.needs_repair());
  std::size_t repaired = 0, rounds = 0;
  for (;;) {
    const auto step = web.repair_step(h(0));
    ++rounds;
    ASSERT_TRUE(web.lists().check_invariants()) << "after repair round " << rounds;
    if (step.value == 0) break;
    repaired += step.value;
    EXPECT_GT(step.stats.messages, 0u);  // detection probes + relinks are priced
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(web.needs_repair());

  // Fully repaired: every stored key is live-owned, queries never fail, and
  // answers match the surviving key set exactly.
  const auto live = surviving_keys(web, keys);
  EXPECT_EQ(live.size(), web.size());
  const auto probes = wl::query_stream(keys, 200, 4842);
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    EXPECT_FALSE(res.stats.failed);
    expect_matches_oracle(res, live, q);
  }
}

TEST(Repair1D, RegistryDrivesRepairToQuiescence) {
  rng r(4851);
  const auto keys = wl::uniform_keys(256, r);
  network net(1);
  auto idx = api::make_index("skipweb1d", keys,
                             api::index_options{}.seed(61).replication(3), net);
  ASSERT_TRUE(idx->supports(api::capability::fault_tolerant));
  kill_tenth(net);
  const auto rep = fault::repair_to_quiescence(*idx, h(0));
  EXPECT_GT(rep.repaired, 0u);
  EXPECT_EQ(rep.rounds, rep.repaired + 1);  // one record per step + the clean round
  EXPECT_GT(rep.cost.messages, 0u);
  // Quiescent: one more step is free of work.
  EXPECT_EQ(idx->repair_step(h(0)).value, 0u);
}

// --- self-repair (spatial) --------------------------------------------------

TEST(RepairQuadtree, RehomesRecordsAndKeepsLedgerExact) {
  rng r(4861);
  const auto pts = wl::uniform_points<2>(256, r);
  network net(256);
  core::skip_quadtree<2> qt(pts, 41, net, 3);
  ASSERT_TRUE(qt.check_invariants());

  // Fault-free probes for the byte-identity check below.
  std::vector<core::skip_quadtree<2>::locate_result> clean;
  for (const auto& p : pts) clean.push_back(qt.locate(p, h(0)));

  kill_tenth(net);
  ASSERT_TRUE(qt.check_invariants());  // kills move no memory
  std::size_t pre_failed = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto res = qt.locate(pts[i], h(0));
    // Ghost/replica hops never change the located cell.
    EXPECT_EQ(res.cell.corner, clean[i].cell.corner);
    EXPECT_TRUE(res.is_point);
    if (res.stats.failed) ++pre_failed;
  }

  std::size_t repaired = 0, rounds = 0;
  ASSERT_TRUE(qt.needs_repair());
  for (;;) {
    const auto step = qt.repair_step(h(0));
    ++rounds;
    ASSERT_TRUE(qt.check_invariants()) << "after repair round " << rounds;
    if (step.value == 0) break;
    repaired += step.value;
    EXPECT_GT(step.stats.messages, 0u);
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_FALSE(qt.needs_repair());

  // Re-homed: locate routes entirely over live replicas.
  std::size_t post_failed = 0;
  for (const auto& p : pts) {
    const auto res = qt.locate(p, h(0));
    EXPECT_TRUE(res.is_point);
    if (res.stats.failed) ++post_failed;
  }
  EXPECT_LE(post_failed, pre_failed);
  EXPECT_GE(static_cast<double>(pts.size() - post_failed),
            0.99 * static_cast<double>(pts.size()));

  // Structural edits on the repaired structure keep the ledger exact.
  auto extra = wl::uniform_points<2>(8, r);
  for (const auto& p : extra) {
    (void)qt.insert(p, h(0));
    ASSERT_TRUE(qt.check_invariants());
  }
  for (const auto& p : extra) {
    (void)qt.erase(p, h(0));
    ASSERT_TRUE(qt.check_invariants());
  }
}

TEST(RepairQuadtree, UnreplicatedRunsFailMeasurablyAtTenPercent) {
  rng r(4871);
  const auto pts = wl::uniform_points<2>(256, r);
  network net(256);
  core::skip_quadtree<2> qt(pts, 41, net);  // replication off
  kill_tenth(net);
  std::size_t failed = 0;
  for (const auto& p : pts) {
    if (qt.locate(p, h(0)).stats.failed) ++failed;
  }
  EXPECT_GT(failed, 0u);
}

// --- sustained churn --------------------------------------------------------

TEST(ChurnSustained, KillRepairUpdateCyclesHoldInvariants) {
  rng r(4881);
  auto keys = wl::uniform_keys(256, r);
  network net(keys.size());
  skipweb_1d web(keys, 51, net, skipweb_1d::placement::tower, 3);

  const std::size_t ops = 120;
  fault::injector inj(net, wl::churn_schedule(net.host_count(), ops, 0.08, 0.04, 2, 4882));
  std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  rng opr(4883);
  for (std::size_t op = 0; op < ops; ++op) {
    if (inj.advance_to(op) > 0 && web.needs_repair()) {
      while (web.repair_step(h(0)).value > 0) {
        ASSERT_TRUE(web.lists().check_invariants());
      }
      // Repair dropped the dead-owned keys; resync the oracle through the
      // public surface.
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (!web.contains(*it, h(0)).value) it = oracle.erase(it);
        else ++it;
      }
    }
    switch (op % 3) {
      case 0: {  // insert a fresh key
        const auto k = opr.uniform_u64(0, (std::uint64_t{1} << 62) - 1);
        if (oracle.insert(k).second) (void)web.insert(k, h(0));
        break;
      }
      case 1: {  // erase a surviving key
        if (oracle.size() > 2) {
          auto it = oracle.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(opr.index(oracle.size())));
          (void)web.erase(*it, h(0));
          oracle.erase(it);
        }
        break;
      }
      default: {  // query between ops
        const auto q = opr.uniform_u64(0, (std::uint64_t{1} << 62) - 1);
        const auto res = web.nearest(q, h(0));
        EXPECT_FALSE(res.stats.failed);
        expect_matches_oracle(res, oracle, q);
        break;
      }
    }
  }
  inj.finish();
  while (web.needs_repair() && web.repair_step(h(0)).value > 0) {
  }
  ASSERT_TRUE(web.lists().check_invariants());
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (!web.contains(*it, h(0)).value) it = oracle.erase(it);
    else ++it;
  }
  EXPECT_EQ(oracle.size(), web.size());
  const auto probes = wl::query_stream({oracle.begin(), oracle.end()}, 100, 4884);
  for (const auto q : probes) {
    const auto res = web.nearest(q, h(0));
    EXPECT_FALSE(res.stats.failed);
    expect_matches_oracle(res, oracle, q);
  }
}

TEST(ChurnSustained, InjectorReplaysTheScheduleExactly) {
  network net(32);
  const auto events = wl::churn_schedule(32, 50, 0.3, 0.15, 2, 7);
  fault::injector inj(net, events);
  std::size_t fired = 0;
  for (std::size_t op = 0; op < 50; ++op) fired += inj.advance_to(op);
  fired += inj.finish();
  EXPECT_EQ(fired, events.size());
  EXPECT_EQ(inj.remaining(), 0u);
  // The network's liveness equals the schedule's net effect.
  std::size_t killed = 0;
  std::vector<bool> dead(32, false);
  for (const auto& e : events) {
    dead[e.host.value] = e.act == wl::churn_event::action::kill;
  }
  for (const auto d : dead) killed += d ? 1u : 0u;
  EXPECT_EQ(net.hosts_killed(), killed);
}

// --- the repair-scan cache (DESIGN.md §10) -----------------------------------
//
// needs_repair() and the clean repair_step() answer from a cache keyed on the
// network's liveness epoch. These tapes hold the cache to brute-force scans
// written here, after every step of a seeded kill / revive / insert / erase /
// repair mix, so a missed invalidation shows up as the first diverging step.

// The lowest arena slot still holding an item whose owner host is dead, or
// -1: the item the next repair step must remove.
int brute_dead_owned(const skipweb_1d& web, const network& net) {
  for (int i = 0; i < static_cast<int>(web.lists().arena_size()); ++i) {
    if (web.lists().alive(i) && !net.host_alive(web.host_of(i, 0))) return i;
  }
  return -1;
}

// Every node record's replica window (its k+1 hosts), by brute force.
template <int D>
std::vector<std::vector<host_id>> replica_windows(const core::skip_quadtree<D>& qt) {
  const auto k = static_cast<std::uint32_t>(qt.replication());
  std::vector<std::vector<host_id>> out;
  for (int l = 0; l <= qt.levels(); ++l) {
    qt.structure().for_each_tree(l, [&](std::uint64_t prefix, const auto& tr) {
      std::vector<int> stack{tr.root};
      while (!stack.empty()) {
        const int v = stack.back();
        stack.pop_back();
        const auto base = qt.rehome_base(l, v);
        auto& window = out.emplace_back();
        for (std::uint32_t j = 0; j <= k; ++j) {
          window.push_back(qt.replica_host(l, prefix, v, base + j));
        }
        for (int c = 0; c < core::skip_quadtree<D>::fanout; ++c) {
          const int child = qt.structure().child_at(l, v, c).node;
          if (child >= 0) stack.push_back(child);
        }
      }
    });
  }
  return out;
}

std::size_t live_count(const std::vector<host_id>& window, const network& net) {
  return static_cast<std::size_t>(
      std::count_if(window.begin(), window.end(), [&](host_id v) { return net.host_alive(v); }));
}

// True if some node record's window mixes dead and live hosts.
template <int D>
bool brute_mixed_window(const core::skip_quadtree<D>& qt, const network& net) {
  for (const auto& window : replica_windows(qt)) {
    const auto live = live_count(window, net);
    if (live != 0 && live != window.size()) return true;
  }
  return false;
}

// One liveness flip of the tapes below: kill a random host other than the
// origin (possibly one already dead — a repeat must not move the epoch's
// meaning), or revive a random dead one.
void flip_liveness(network& net, rng& tape, std::vector<host_id>& dead, bool kill) {
  if (kill) {
    const host_id v = h(1 + static_cast<std::uint32_t>(tape.index(net.host_count() - 1)));
    if (net.host_alive(v)) dead.push_back(v);
    net.kill_host(v);
  } else if (!dead.empty()) {
    const std::size_t at = tape.index(dead.size());
    net.revive_host(dead[at]);
    dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(at));
  }
}

TEST(RepairCache, OneDNeedsRepairMatchesBruteForceOnEveryStep) {
  rng r(4901);
  const auto keys = wl::uniform_keys(256, r);
  network net(keys.size());
  skipweb_1d web(keys, 71, net, skipweb_1d::placement::tower, 2);
  rng tape(4902);
  std::vector<host_id> dead;
  std::size_t repaired = 0, refused = 0;
  for (std::size_t step = 0; step < 1500; ++step) {
    const int due = brute_dead_owned(web, net);
    switch (tape.index(6)) {
      case 0:
      case 1:
        flip_liveness(net, tape, dead, tape.index(2) == 0);
        break;
      case 2: {  // writes need a repaired structure: the contract is exact
        const auto k = tape.uniform_u64(0, (std::uint64_t{1} << 62) - 1);
        if (due >= 0) {
          EXPECT_THROW((void)web.insert(k, h(0)), util::contract_error) << "step " << step;
          ++refused;
        } else {
          (void)web.insert(k, h(0));
        }
        break;
      }
      case 3: {
        if (web.size() <= 16) break;
        int slot = -1;
        while (slot < 0 || !web.lists().alive(slot)) {
          slot = static_cast<int>(tape.index(web.lists().arena_size()));
        }
        const auto k = web.lists().key(slot);
        if (due >= 0) {
          EXPECT_THROW((void)web.erase(k, h(0)), util::contract_error) << "step " << step;
          ++refused;
        } else {
          (void)web.erase(k, h(0));
        }
        break;
      }
      default: {  // repair removes exactly the lowest dead-owned slot
        const auto res = web.repair_step(h(0));
        ASSERT_EQ(res.value, due >= 0 ? 1u : 0u) << "step " << step;
        if (due >= 0) {
          EXPECT_FALSE(web.lists().alive(due)) << "step " << step;
        }
        repaired += res.value;
        break;
      }
    }
    ASSERT_EQ(web.needs_repair(), brute_dead_owned(web, net) >= 0) << "step " << step;
    ASSERT_TRUE(web.lists().check_invariants()) << "step " << step;
  }
  // The tape really visited both sides of the cache.
  EXPECT_GT(repaired, 20u);
  EXPECT_GT(refused, 20u);
}

TEST(RepairCache, QuadtreeNeedsRepairMatchesBruteForceOnEveryStep) {
  rng r(4911);
  const auto pts = wl::uniform_points<2>(192, r);
  network net(pts.size());
  core::skip_quadtree<2> qt(pts, 81, net, 2);
  std::vector<core::skip_quadtree<2>::point> present(pts.begin(), pts.end());
  rng tape(4912);
  std::vector<host_id> dead;
  std::size_t repaired = 0, clean_steps = 0, dirtied_by_insert = 0;
  // One checked repair step: it re-homes a record exactly when one is mixed.
  auto repair_once = [&](std::size_t step) {
    const bool due = brute_mixed_window(qt, net);
    const auto res = qt.repair_step(h(0));
    EXPECT_EQ(res.value, due ? 1u : 0u) << "step " << step;
    EXPECT_EQ(qt.needs_repair(), brute_mixed_window(qt, net)) << "step " << step;
    repaired += res.value;
    if (!due) ++clean_steps;
    return res.value;
  };
  for (std::size_t step = 0; step < 600; ++step) {
    switch (tape.index(8)) {
      case 0:  // a kill dirties ~a dozen windows, so flips stay rare
        flip_liveness(net, tape, dead, tape.index(2) == 0);
        break;
      case 1:
      case 2: {  // fresh records land on base-0 windows, dead hosts or not
        const auto p = wl::uniform_points<2>(1, tape).front();
        if (qt.structure().find_point(p) >= 0) break;
        const bool was_mixed = brute_mixed_window(qt, net);
        (void)qt.insert(p, h(0));
        present.push_back(p);
        if (!was_mixed && brute_mixed_window(qt, net)) ++dirtied_by_insert;
        break;
      }
      case 3: {
        if (present.size() <= 16) break;
        const std::size_t at = tape.index(present.size());
        (void)qt.erase(present[at], h(0));
        present.erase(present.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      }
      case 4:
      case 5:
        repair_once(step);
        break;
      default:  // to quiescence, so clean marks are set and then tested
        while (repair_once(step) > 0) {
        }
        break;
    }
    ASSERT_EQ(qt.needs_repair(), brute_mixed_window(qt, net)) << "step " << step;
    ASSERT_TRUE(qt.check_invariants()) << "step " << step;
  }
  EXPECT_GT(repaired, 20u);
  EXPECT_GT(clean_steps, 20u);
  EXPECT_GT(dirtied_by_insert, 2u);

  // A revive alone can dirty a clean structure: it turns a lost (all-dead)
  // window into a mixed one. Lose one window on purpose, repair the rest,
  // then revive one of its hosts.
  for (const auto v : dead) net.revive_host(v);
  std::vector<host_id> lost;
  for (const auto& window : replica_windows(qt)) {
    if (std::find(window.begin(), window.end(), h(0)) == window.end()) {
      lost = window;
      break;
    }
  }
  ASSERT_FALSE(lost.empty());
  for (const auto v : lost) net.kill_host(v);
  while (qt.repair_step(h(0)).value > 0) {
  }
  ASSERT_FALSE(qt.needs_repair());
  ASSERT_EQ(live_count(lost, net), 0u);
  net.revive_host(lost.front());
  EXPECT_TRUE(brute_mixed_window(qt, net));
  EXPECT_TRUE(qt.needs_repair());
  EXPECT_EQ(qt.repair_step(h(0)).value, 1u);
}

// A restored twin starts with a cold cache and scans from slot 0; the
// original resumes wherever its cache stands. Their repair runs must still
// agree receipt for receipt — including across a liveness change mid-run,
// which must reset the original's resume point.
TEST(RepairCache, ColdRestoredTwinRepairsLikeTheWarmOriginal) {
  rng r(4921);
  const auto keys = wl::uniform_keys(320, r);
  network net(keys.size());
  skipweb_1d web(keys, 91, net, skipweb_1d::placement::tower, 2);

  // Warm the original's cache: crashes, their repair, then writes.
  const std::vector<host_id> early{h(3), h(40), h(77)};
  for (const auto v : early) net.kill_host(v);
  while (web.repair_step(h(0)).value > 0) {
  }
  rng w(4922);
  for (int i = 0; i < 24; ++i) (void)web.insert(w.uniform_u64(0, (std::uint64_t{1} << 62) - 1), h(0));
  for (int i = 0; i < 8; ++i) (void)web.erase(web.lists().key(web.lists().any_alive()), h(0));
  ASSERT_FALSE(web.needs_repair());

  const auto path = testing_support::temp_path("twin");
  {
    persist::writer out(path);
    web.save_snapshot(out);
    out.finish();
  }
  persist::reader in(path, persist::restore_mode::map);
  network twin_net(1);
  skipweb_1d twin(in, twin_net);
  for (const auto v : early) twin_net.kill_host(v);  // liveness is not persisted

  // The burst, applied to both deployments.
  auto kill_both = [&](host_id v) {
    net.kill_host(v);
    twin_net.kill_host(v);
  };
  for (std::uint32_t v = 5; v < keys.size(); v += 9) kill_both(h(v));
  ASSERT_TRUE(web.needs_repair());
  ASSERT_TRUE(twin.needs_repair());

  std::size_t steps = 0, repaired = 0;
  for (;; ++steps) {
    if (steps == 6) {
      // Mid-run liveness change: revive a host still owning a spliced item,
      // and kill one owning a slot below where the original's scan stands.
      const int pending = brute_dead_owned(web, net);
      ASSERT_GE(pending, 0);
      net.revive_host(web.host_of(pending, 0));
      twin_net.revive_host(twin.host_of(pending, 0));
      kill_both(h(2));
    }
    const auto a = web.repair_step(h(0));
    const auto b = twin.repair_step(h(0));
    ASSERT_EQ(a.value, b.value) << "step " << steps;
    ASSERT_EQ(a.stats, b.stats) << "step " << steps;
    repaired += a.value;
    if (a.value == 0) break;
  }
  EXPECT_GT(repaired, 20u);
  EXPECT_EQ(web.size(), twin.size());
  EXPECT_FALSE(web.needs_repair());
  EXPECT_FALSE(twin.needs_repair());
  EXPECT_EQ(brute_dead_owned(web, net), -1);
  ASSERT_TRUE(web.lists().check_invariants());
  ASSERT_TRUE(twin.lists().check_invariants());
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

// --- background repair racing the query plane (the TSan headline) -----------

TEST(RepairDaemon, BackgroundRepairRacesQueriesCleanly) {
  rng r(4891);
  const auto keys = wl::uniform_keys(256, r);
  network net(keys.size());
  skipweb_1d web(keys, 61, net, skipweb_1d::placement::tower, 3);
  kill_tenth(net);
  ASSERT_TRUE(web.needs_repair());

  fault::repair_daemon daemon([&web] { return web.repair_step(h(0)).value; },
                              std::chrono::microseconds(50));
  const auto probes = wl::query_stream(keys, 400, 4892);
  constexpr std::size_t threads = 4;
  daemon.start();
  {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        // Each op takes the read side of the daemon's gate: queries run
        // concurrently with each other, never with a repair step.
        for (std::size_t i = t; i < probes.size(); i += threads) {
          const std::shared_lock<std::shared_mutex> lk(daemon.gate());
          const auto res = web.nearest(probes[i], h(static_cast<std::uint32_t>(t)));
          (void)res;
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  daemon.stop();
  EXPECT_GT(daemon.snapshot().rounds, 0u);

  // Finish whatever repair remains, then the structure must be whole.
  while (web.repair_step(h(0)).value > 0) {
  }
  ASSERT_TRUE(web.lists().check_invariants());
  EXPECT_FALSE(web.needs_repair());
  const auto live = surviving_keys(web, keys);
  for (const auto q : wl::query_stream(keys, 100, 4893)) {
    const auto res = web.nearest(q, h(0));
    EXPECT_FALSE(res.stats.failed);
    expect_matches_oracle(res, live, q);
  }
}

}  // namespace
