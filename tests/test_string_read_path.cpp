// The text read path's receipt contract (DESIGN.md §14): top_k, prefix_count
// and prefix_match share one subtree walk, so their receipts are equal hop
// for hop, and the ranking / counting / intersection work beside the hops
// never changes what the hops are. Golden intersect receipts pin the posting
// plane's probe sequence across refactors of its bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/string_registry.h"
#include "net/latency.h"
#include "net/network.h"
#include "oracle_common.h"
#include "util/rng.h"
#include "workloads/workloads.h"

namespace {

using namespace skipweb;
using namespace skipweb::testing_support;
using net::network;
using util::rng;
namespace wl = skipweb::workloads;

const std::vector<std::string> kBackends = {"string_skiptrie", "string_sorted"};

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

std::vector<std::string> oracle_prefix(const std::set<std::string>& keys,
                                       const std::string& prefix) {
  std::vector<std::string> out;
  for (const auto& k : keys) {
    if (starts_with(k, prefix)) out.push_back(k);
  }
  return out;
}

// The top-k contract stated directly: full sort by (weight desc, key asc).
std::vector<std::string> oracle_rank(std::vector<std::string> keys, std::size_t k) {
  std::sort(keys.begin(), keys.end(), [](const std::string& a, const std::string& b) {
    const auto wa = api::string_weight(a), wb = api::string_weight(b);
    return wa != wb ? wa > wb : a < b;
  });
  if (keys.size() > k) keys.resize(k);
  return keys;
}

// FNV-1a over the answers, each key terminated by a separator byte and each
// answer set by another, so reordering or regrouping changes the digest.
void digest_into(std::uint64_t& d, const std::vector<std::string>& keys) {
  auto mix = [&](unsigned char c) {
    d ^= c;
    d *= 0x100000001b3ull;
  };
  for (const auto& k : keys) {
    for (const char c : k) mix(static_cast<unsigned char>(c));
    mix(0x1f);
  }
  mix(0x1e);
}

std::unique_ptr<api::string_index> build(const std::string& backend,
                                         const std::vector<std::string>& keys, network& net,
                                         std::uint64_t deadline_ns = 0) {
  return api::make_string_index(
      backend, keys, api::index_options{}.seed(91).initial_hosts(8).deadline(deadline_ns), net);
}

// Every prefix (length 1..len) of every stored word: top_k and prefix_count
// pay exactly prefix_match's receipt on backends that walk the subtree, and
// every answer matches the oracle. prefix_match output is ascending (the
// walk emits in order; nothing re-sorts it).
TEST(StringReadPath, TopKAndCountReceiptsEqualPrefixMatch) {
  rng r(8101);
  const auto keys = wl::dictionary_words(300, r);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  std::set<std::string> prefixes;
  for (const auto& k : keys) {
    for (std::size_t len = 1; len <= k.size(); ++len) prefixes.insert(k.substr(0, len));
  }
  for (const auto& backend : kBackends) {
    network net(1);
    const auto idx = build(backend, keys, net);
    const bool walks = idx->supports(api::string_capability::native_prefix);
    std::uint32_t origin = 0;
    for (const auto& p : prefixes) {
      const auto o = h(origin);
      origin = (origin + 1) % static_cast<std::uint32_t>(net.host_count());
      const auto want = oracle_prefix(oracle, p);
      const auto pm = idx->prefix_match(p, o, 0);
      ASSERT_EQ(pm.value, want) << backend << " \"" << p << "\"";
      ASSERT_TRUE(std::is_sorted(pm.value.begin(), pm.value.end())) << backend;
      for (const std::size_t k : {1u, 4u, 64u}) {
        const auto tk = idx->top_k(p, k, o);
        ASSERT_EQ(tk.value, oracle_rank(want, k)) << backend << " \"" << p << "\" k=" << k;
        ASSERT_EQ(tk.stats, pm.stats) << backend << " \"" << p << "\" k=" << k;
      }
      const auto pc = idx->prefix_count(p, o);
      ASSERT_EQ(pc.value, want.size()) << backend << " \"" << p << "\"";
      if (walks) {
        ASSERT_EQ(pc.stats, pm.stats) << backend << " \"" << p << "\"";
      } else {
        // The sorted array counts from two binary searches, never the scan.
        ASSERT_LE(pc.stats.messages, pm.stats.messages) << backend << " \"" << p << "\"";
      }
      const auto capped = idx->prefix_match(p, o, 3);
      ASSERT_EQ(capped.value,
                std::vector<std::string>(want.begin(),
                                         want.begin() + std::min<std::ptrdiff_t>(
                                                            3, static_cast<std::ptrdiff_t>(
                                                                   want.size()))))
          << backend << " \"" << p << "\"";
    }
  }
}

// A tight deadline cuts the walk mid-subtree: the partial answer is an
// honest lexicographic prefix tagged degraded, top_k ranks exactly that
// partial set under the same receipt, and the trie's count agrees with it.
TEST(StringReadPath, DeadlineTopKRanksTheHonestPartialPrefix) {
  rng r(8102);
  const auto keys = wl::dictionary_words(400, r);
  const std::set<std::string> oracle(keys.begin(), keys.end());
  std::vector<std::string> probes{""};
  for (char c = 'a'; c <= 'z'; ++c) probes.emplace_back(1, c);
  for (const auto& backend : kBackends) {
    network net(1);
    const auto idx = build(backend, keys, net, /*deadline_ns=*/5000);
    net.set_latency_model(net::latency_model::constant(500));
    const bool walks = idx->supports(api::string_capability::native_prefix);
    bool saw_degraded = false;
    for (const auto& p : probes) {
      const auto want = oracle_prefix(oracle, p);
      const auto pm = idx->prefix_match(p, h(3));
      ASSERT_LE(pm.value.size(), want.size()) << backend << " \"" << p << "\"";
      ASSERT_TRUE(std::equal(pm.value.begin(), pm.value.end(), want.begin()))
          << backend << " \"" << p << "\"";
      if (pm.stats.degraded) {
        saw_degraded = true;
        ASSERT_LT(pm.value.size(), want.size()) << backend << " \"" << p << "\"";
      }
      const auto tk = idx->top_k(p, 5, h(3));
      ASSERT_EQ(tk.stats, pm.stats) << backend << " \"" << p << "\"";
      ASSERT_EQ(tk.value, oracle_rank(pm.value, 5)) << backend << " \"" << p << "\"";
      if (walks) {
        const auto pc = idx->prefix_count(p, h(3));
        ASSERT_EQ(pc.stats, pm.stats) << backend << " \"" << p << "\"";
        ASSERT_EQ(pc.value, pm.value.size()) << backend << " \"" << p << "\"";
      }
    }
    EXPECT_TRUE(saw_degraded) << backend;
    EXPECT_TRUE(idx->prefix_match("", h(3)).stats.degraded) << backend;
  }
}

// Keys are arbitrary bytes and order is std::string's (unsigned bytes): the
// ordered walks must hold that order past 0x7f, where a signed char child
// table would put 0x80..0xff before ASCII.
TEST(StringReadPath, HighBytesKeepByteOrder) {
  const std::string alphabet = {'a', 'b', '\x7f', '\x80', '\xc3', '\xff'};
  rng r(8104);
  std::set<std::string> oracle;
  while (oracle.size() < 200) {
    std::string k(1 + r.index(6), ' ');
    for (auto& c : k) c = alphabet[r.index(alphabet.size())];
    oracle.insert(k);
  }
  const std::vector<std::string> keys(oracle.begin(), oracle.end());
  for (const auto& backend : kBackends) {
    network net(1);
    const auto idx = build(backend, keys, net);
    EXPECT_EQ(idx->prefix_match("", h(0)).value, keys) << backend;
    for (const auto& c : alphabet) {
      const std::string p(1, c);
      EXPECT_EQ(idx->prefix_match(p, h(1)).value, oracle_prefix(oracle, p)) << backend;
    }
    for (int trial = 0; trial < 20; ++trial) {
      std::size_t i = r.index(keys.size()), j = r.index(keys.size());
      if (i > j) std::swap(i, j);
      const std::vector<std::string> want(keys.begin() + static_cast<std::ptrdiff_t>(i),
                                          keys.begin() + static_cast<std::ptrdiff_t>(j + 1));
      EXPECT_EQ(idx->lex_range(keys[i], keys[j], h(2)).value, want) << backend << " " << trial;
    }
  }
}

// Golden receipts for ~200 seeded 2–3-term intersections over a log-line
// corpus, uncapped and capped at 2: total messages, total comparisons and an
// answer digest. The posting plane is shared by both backends, so both pin
// the same numbers. A change here means the probe sequence changed.
TEST(StringReadPath, IntersectGoldenReceipts) {
  rng r(8103);
  const auto keys = wl::log_lines(1500, r);
  std::vector<std::vector<std::string>> queries;
  for (int q = 0; q < 200; ++q) {
    // A window of 2-3 consecutive tokens of a stored key (non-empty answer)...
    const auto toks = api::string_tokens(keys[r.index(keys.size())]);
    const std::size_t want = std::min<std::size_t>(toks.size(), 2 + r.index(2));
    const std::size_t start = r.index(toks.size() - want + 1);
    std::vector<std::string> terms(toks.begin() + static_cast<std::ptrdiff_t>(start),
                                   toks.begin() + static_cast<std::ptrdiff_t>(start + want));
    if (q % 10 == 9) {
      // ...or, every tenth query, one term swapped for another key's: some
      // of these conjunctions are empty.
      const auto other = api::string_tokens(keys[r.index(keys.size())]);
      terms.back() = other[r.index(other.size())];
    }
    queries.push_back(std::move(terms));
  }
  for (const auto& backend : kBackends) {
    network net(1);
    const auto idx = build(backend, keys, net);
    std::uint64_t messages = 0, comparisons = 0, digest = 0xcbf29ce484222325ull;
    std::size_t answers = 0;
    for (const std::size_t limit : {0u, 2u}) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto o = h(static_cast<std::uint32_t>(i % net.host_count()));
        const auto res = idx->intersect(queries[i], o, limit);
        ASSERT_TRUE(std::is_sorted(res.value.begin(), res.value.end())) << backend << " " << i;
        messages += res.stats.messages;
        comparisons += res.stats.comparisons;
        answers += res.value.size();
        digest_into(digest, res.value);
      }
    }
    EXPECT_EQ(messages, 16802u) << backend;
    EXPECT_EQ(comparisons, 137822u) << backend;
    EXPECT_EQ(answers, 7024u) << backend;
    EXPECT_EQ(digest, 16402471316618822993ull) << backend;
  }
}

}  // namespace
