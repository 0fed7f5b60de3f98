#include "net/network.h"

#include <algorithm>

namespace skipweb::net {

network::network(std::size_t host_count) {
  SW_EXPECTS(host_count > 0);
  memory_.resize(host_count);
  grow_visit_blocks_to(host_count);
  hosts_ = host_count;
}

host_id network::add_host() { return add_hosts(1); }

host_id network::add_hosts(std::size_t count) {
  SW_EXPECTS(traffic_quiescent());  // structural plane: no queries in flight
  SW_EXPECTS(count > 0);
  memory_.resize(memory_.size() + count);
  grow_visit_blocks_to(hosts_ + count);
  hosts_ += count;
  if (!dead_.empty()) dead_.resize(dead_.size() + count, 0);
  if (!partition_.empty()) partition_.resize(partition_.size() + count, 0);
  if (!slowdown_.empty()) slowdown_.resize(slowdown_.size() + count, 1.0);
  return host_id{static_cast<std::uint32_t>(hosts_ - count)};
}

void network::set_host_slowdown(host_id h, double factor) {
  SW_EXPECTS(traffic_quiescent());  // structural plane, like kill_host
  SW_EXPECTS(h.valid() && h.value < hosts_);
  SW_EXPECTS(factor > 0.0);
  if (slowdown_.empty()) slowdown_.assign(hosts_, 1.0);
  const bool was = slowdown_[h.value] != 1.0;
  const bool now = factor != 1.0;
  slowdown_[h.value] = factor;
  if (now && !was) ++slowed_count_;
  if (!now && was) --slowed_count_;
}

void network::clear_host_slowdowns() {
  SW_EXPECTS(traffic_quiescent());
  slowdown_.clear();
  slowed_count_ = 0;
}

void network::kill_host(host_id h) {
  SW_EXPECTS(traffic_quiescent());  // structural plane, like add_host
  SW_EXPECTS(h.valid() && h.value < hosts_);
  if (dead_.empty()) dead_.assign(hosts_, 0);
  if (dead_[h.value] == 0) {
    dead_[h.value] = 1;
    ++killed_count_;
    ++liveness_epoch_;
  }
  SW_ASSERT(killed_count_ < hosts_);  // at least one live host always remains
}

void network::revive_host(host_id h) {
  SW_EXPECTS(traffic_quiescent());
  SW_EXPECTS(h.valid() && h.value < hosts_);
  if (!dead_.empty() && dead_[h.value] != 0) {
    dead_[h.value] = 0;
    --killed_count_;
    ++liveness_epoch_;
  }
}

host_id network::any_live_host(host_id near) const {
  SW_EXPECTS(killed_count_ < hosts_);
  const std::uint32_t start = near.valid() ? near.value % hosts_ : 0;
  for (std::size_t i = 0; i < hosts_; ++i) {
    const auto h = host_id{static_cast<std::uint32_t>((start + i) % hosts_)};
    if (host_alive(h)) return h;
  }
  SW_ASSERT(false);
  return host_id{};
}

void network::set_partitions(const std::vector<std::vector<host_id>>& groups) {
  SW_EXPECTS(traffic_quiescent());
  if (groups.empty()) {
    partition_.clear();
    return;
  }
  partition_.assign(hosts_, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto h : groups[g]) {
      SW_EXPECTS(h.valid() && h.value < hosts_);
      partition_[h.value] = static_cast<std::uint32_t>(g + 1);
    }
  }
}

void network::set_message_loss(double p, std::uint64_t seed) {
  SW_EXPECTS(traffic_quiescent());
  SW_EXPECTS(p >= 0.0 && p < 1.0);
  loss_p_ = p;
  loss_seed_ = seed;
}

void network::grow_visit_blocks_to(std::size_t hosts) {
  const std::size_t blocks_needed = (hosts + block_size - 1) >> block_bits;
  if (blocks_needed <= visit_blocks_.size()) return;
  // The directory doubles so per-host growth stays amortized O(1); the
  // blocks themselves never move (see add_host's growth-policy note).
  if (visit_blocks_.capacity() < blocks_needed) {
    visit_blocks_.reserve(std::max(blocks_needed, std::max<std::size_t>(4, 2 * visit_blocks_.capacity())));
  }
  while (visit_blocks_.size() < blocks_needed) {
    auto block = std::make_unique<std::atomic<std::uint64_t>[]>(block_size);
    for (std::size_t i = 0; i < block_size; ++i) {
      block[i].store(0, std::memory_order_relaxed);
    }
    visit_blocks_.push_back(std::move(block));
  }
}

void network::charge(host_id h, memory_kind kind, std::int64_t delta) {
  SW_EXPECTS(traffic_quiescent());  // structural plane, like add_host
  SW_EXPECTS(h.valid() && h.value < memory_.size());
  auto& cell = memory_[h.value].counts[static_cast<std::size_t>(kind)];
  if (delta < 0) {
    SW_EXPECTS(cell >= static_cast<std::uint64_t>(-delta));
    cell -= static_cast<std::uint64_t>(-delta);
  } else {
    cell += static_cast<std::uint64_t>(delta);
  }
}

std::uint64_t network::memory_used(host_id h) const {
  SW_EXPECTS(h.valid() && h.value < memory_.size());
  const auto& row = memory_[h.value];
  return row.counts[0] + row.counts[1] + row.counts[2] + row.counts[3];
}

std::uint64_t network::memory_used(host_id h, memory_kind kind) const {
  SW_EXPECTS(h.valid() && h.value < memory_.size());
  return memory_[h.value].counts[static_cast<std::size_t>(kind)];
}

std::uint64_t network::max_memory() const {
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < memory_.size(); ++i) best = std::max(best, memory_used(host_id{static_cast<std::uint32_t>(i)}));
  return best;
}

double network::mean_memory() const {
  return static_cast<double>(total_memory()) / static_cast<double>(memory_.size());
}

std::uint64_t network::total_memory() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < memory_.size(); ++i) sum += memory_used(host_id{static_cast<std::uint32_t>(i)});
  return sum;
}

void network::commit(const traffic_receipt& r) {
  if (r.empty()) return;  // hop-free operations never touch the shared plane
  commits_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  total_messages_.fetch_add(r.size(), std::memory_order_relaxed);
  // The time ledger (latency plane): zero unless a model is active, so the
  // add is free noise for pre-latency workloads.
  if (r.sim_ns() != 0) total_sim_ns_.fetch_add(r.sim_ns(), std::memory_order_relaxed);
  r.for_each([this](host_id to) {
    SW_ASSERT(to.valid() && to.value < hosts_);
    visit_slot(to.value).fetch_add(1, std::memory_order_relaxed);
  });
  // Per-op service-cost accounting: the worst single-host load this one
  // operation imposed, merged by atomic max (no fetch_max pre-C++26).
  // Gated: the multiplicity count is measurably expensive on hop-heavy
  // receipts (see max_op_host_load() in the header).
  if (op_load_tracking_.load(std::memory_order_relaxed)) {
    const std::uint64_t op_load = r.max_host_load();
    std::uint64_t seen = max_op_host_load_.load(std::memory_order_relaxed);
    while (seen < op_load &&
           !max_op_host_load_.compare_exchange_weak(seen, op_load, std::memory_order_relaxed)) {
    }
  }
  // The cache seam learns from exactly the receipts the ledger absorbed.
  if (hop_cache_ != nullptr) hop_cache_->on_commit(r);
  commits_in_flight_.fetch_sub(1, std::memory_order_release);
}

std::uint64_t network::visits(host_id h) const {
  SW_EXPECTS(h.valid() && h.value < hosts_);
  SW_EXPECTS(traffic_quiescent());
  return visit_slot(h.value).load(std::memory_order_relaxed);
}

std::uint64_t network::max_visits() const {
  SW_EXPECTS(traffic_quiescent());
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < hosts_; ++i) {
    best = std::max(best, visit_slot(static_cast<std::uint32_t>(i)).load(std::memory_order_relaxed));
  }
  return best;
}

congestion_profile network::congestion_profile() const {
  SW_EXPECTS(traffic_quiescent());
  struct congestion_profile out;
  out.hosts = hosts_ - killed_count_;
  out.hosts_killed = killed_count_;
  out.max_op_host_load = max_op_host_load_.load(std::memory_order_relaxed);
  // Distribution statistics run over LIVE slots only — a dead host carries no
  // load, and counting it as a zero-visit host deflates the mean and p99 of
  // the hosts actually serving. total_visits still sums every slot (probes
  // toward dead hosts were charged there) so it reconciles with
  // total_messages() under churn too.
  std::vector<std::uint64_t> visits;
  visits.reserve(hosts_ - killed_count_);
  std::uint64_t live_total = 0;
  for (std::size_t i = 0; i < hosts_; ++i) {
    const auto v = visit_slot(static_cast<std::uint32_t>(i)).load(std::memory_order_relaxed);
    out.total_visits += v;
    if (!host_alive(host_id{static_cast<std::uint32_t>(i)})) continue;
    visits.push_back(v);
    live_total += v;
  }
  std::sort(visits.begin(), visits.end());
  for (const auto v : visits) out.hosts_touched += (v > 0);
  out.max_visits = visits.empty() ? 0 : visits.back();
  out.p99_visits =
      visits.empty()
          ? 0
          : visits[static_cast<std::size_t>(0.99 * (static_cast<double>(visits.size()) - 1.0))];
  out.mean_visits =
      visits.empty() ? 0.0 : static_cast<double>(live_total) / static_cast<double>(visits.size());
  return out;
}

void network::reset_traffic() {
  SW_EXPECTS(traffic_quiescent());
  for (std::size_t i = 0; i < hosts_; ++i) {
    visit_slot(static_cast<std::uint32_t>(i)).store(0, std::memory_order_relaxed);
  }
  total_messages_.store(0, std::memory_order_relaxed);
  max_op_host_load_.store(0, std::memory_order_relaxed);
  total_sim_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace skipweb::net
