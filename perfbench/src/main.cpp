// The repo benchmark's entry point: one workload per run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--git-sha <sha>] [--trace-dir <dir>] [--tiny]
//
// Prints a provenance line, a human-readable report and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any sampled answer disagreed with its oracle.
#include <sched.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.h"

namespace perfbench {
namespace {

struct metric_def {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (test_perfbench.py checks it).
constexpr metric_def end_to_end[] = {
    {"setup_s", "s"},
    {"ops_per_s", "ops/s"},
    {"read_p50_us", "us"},
    {"read_p99_us", "us"},
    {"write_p50_us", "us"},
    {"write_p99_us", "us"},
    {"msgs_per_read", "msgs/op"},
    {"msgs_per_write", "msgs/op"},
    {"congestion_per_read", "visits/op"},
    {"bytes_per_key", "B/key"},
    {"answered_share", "fraction"},
};

constexpr metric_def per_layer[] = {
    {"trace.ops_per_s", "ops/s"},
    {"serve.exec_job_us", "us"},
    {"serve.dispatch_us_per_job", "us"},
    {"serve.slice_imbalance", "ratio"},
    {"serve.speedup_T_vs_1", "x"},
    {"serve.spin_speedup_T_vs_1", "x"},
    {"core.nearest_ns_per_op", "ns"},
    {"core.range_us", "us"},
    {"core.cmps_per_read", "cmps/op"},
    {"core.insert_us", "us"},
    {"core.erase_us", "us"},
    {"core.contains_ns_per_op", "ns"},
    {"core.prefix_us", "us"},
    {"core.top_k_us", "us"},
    {"core.intersect_us", "us"},
    {"core.locate_ns_per_op", "ns"},
    {"core.approx_nn_us", "us"},
    {"core.box_range_us", "us"},
    {"core.msgs_per_read_over_log2n", "ratio"},
    {"api.make_index_s", "s"},
    {"api.make_index_s.log_lines", "s"},
    {"api.bytes.arena_per_key", "B/key"},
    {"api.bytes.links_per_key", "B/key"},
    {"api.bytes.directory_per_key", "B/key"},
    {"api.bytes.slack_per_key", "B/key"},
    {"net.visits_per_read", "visits/op"},
    {"net.retries_per_read", "retries/op"},
    {"net.sim_us_per_read", "sim_us"},
    {"net.sim_read_p99_us", "sim_us"},
    {"net.max_host_visits", "visits"},
    {"layer.bare_ns_per_read", "ns"},
    {"layer.op_load_tracking_ns", "ns"},
    {"layer.latency_model_ns", "ns"},
    {"layer.route_cache_ns", "ns"},
    {"layer.replication_ns", "ns"},
    {"layer.faults_ns", "ns"},
    {"layer.executor_ns", "ns"},
    {"route_cache.hits_per_read", "hits/op"},
    {"route_cache.absorbed_share", "fraction"},
    {"route_cache.dropped_commit_share", "fraction"},
    {"route_cache.replicated_hosts", "count"},
    {"fault.inject_us", "us"},
    {"fault.repair_s", "s"},
    {"fault.repair_rounds", "count"},
    {"fault.repair_msgs_per_dead_host", "msgs"},
    {"fault.msgs_per_read_unrepaired", "msgs/op"},
    {"persist.save_s", "s"},
    {"persist.snapshot_bytes_per_key", "B/key"},
    {"persist.restore_map_s", "s"},
    {"persist.restore_load_s", "s"},
    {"persist.first_query_ms", "ms"},
    {"workloads.gen_s", "s"},
    {"self_ms.api", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.serve", "ms"},
    {"self_ms.fault", "ms"},
    {"self_ms.persist", "ms"},
    {"self_ms.workloads", "ms"},
};

constexpr const char* workloads[] = {"oned-bign-read", "oned-hot-churn", "text-mixed",
                                     "spatial-mixed"};

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

// Effective parallelism at k = 1..T threads: k threads each spin the same
// register-only loop; k * t(1) / t(k) is how many run at once.
std::vector<double> spin_calibration(std::size_t threads) {
  const auto spin_s = [](std::size_t k) {
    return median_seconds(3, [k] {
      std::vector<std::thread> ts;
      std::atomic<std::uint64_t> sink{0};
      for (std::size_t t = 0; t < k; ++t) {
        ts.emplace_back([&sink, t] {
          std::uint64_t x = t + 88172645463325252ull;
          for (std::uint64_t i = 0; i < 20'000'000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
          }
          sink += x;
        });
      }
      for (auto& th : ts) th.join();
    });
  };
  std::vector<double> eff;
  const double t1 = spin_s(1);
  for (std::size_t k = 1; k <= threads; ++k) {
    eff.push_back(k == 1 ? 1.0 : static_cast<double>(k) * t1 / spin_s(k));
  }
  return eff;
}

// --- span analysis -------------------------------------------------------------

// Per-layer metrics derived from the recorded spans: per-call means of the
// core calls, the executor's job/slice shape, and self time per layer (a
// span's duration minus the part of it its children cover).
std::map<std::string, double> analyse_spans(const std::vector<span_record>& spans) {
  std::map<std::string, double> out;
  struct agg {
    double ns = 0, ops = 0, calls = 0;
  };
  std::map<std::string, agg> by_name;
  std::unordered_map<std::uint64_t, std::vector<const span_record*>> children;
  for (const auto& s : spans) {
    auto& a = by_name[s.name];
    a.ns += static_cast<double>(s.end_ns - s.start_ns);
    a.ops += static_cast<double>(s.ops);
    a.calls += 1;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  const auto per_op = [&](std::initializer_list<const char*> names, double scale) {
    double ns = 0, ops = 0;
    for (const char* n : names) {
      const auto it = by_name.find(n);
      if (it == by_name.end()) continue;
      ns += it->second.ns;
      ops += it->second.ops;
    }
    return ratio(ns, ops) * scale;
  };
  out["core.nearest_ns_per_op"] = per_op({"core.nearest", "core.nearest_batch"}, 1);
  out["core.range_us"] = per_op({"core.range"}, 1e-3);
  out["core.insert_us"] = per_op({"core.insert"}, 1e-3);
  out["core.erase_us"] = per_op({"core.erase"}, 1e-3);
  out["core.contains_ns_per_op"] = per_op({"core.contains", "core.contains_batch"}, 1);
  out["core.prefix_us"] = per_op({"core.prefix_match"}, 1e-3);
  out["core.top_k_us"] = per_op({"core.top_k"}, 1e-3);
  out["core.intersect_us"] = per_op({"core.intersect"}, 1e-3);
  out["core.locate_ns_per_op"] = per_op({"core.locate", "core.locate_batch"}, 1);
  out["core.approx_nn_us"] = per_op({"core.approx_nn"}, 1e-3);
  out["core.box_range_us"] = per_op({"core.orthogonal_range"}, 1e-3);

  double job_ns = 0, dispatch_ns = 0, imbalance = 0, jobs = 0;
  std::map<std::string, double> self_ns;
  for (const auto& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const auto kids = children.find(s.id);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    if (kids != children.end()) {
      for (const auto* c : kids->second) {
        iv.emplace_back(std::max(c->start_ns, s.start_ns), std::min(c->end_ns, s.end_ns));
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    std::uint64_t reach = s.start_ns;
    for (const auto& [a, b] : iv) {
      const std::uint64_t lo = std::max(a, reach);
      if (b > lo) {
        covered += static_cast<double>(b - lo);
        reach = b;
      }
    }
    const std::string name = s.name;
    self_ns[name.substr(0, name.find('.'))] += dur - covered;
    if (name == "serve.job" && kids != children.end()) {
      // A worker's slice: from its first child span's start to its last
      // one's end (one "serve.slice" span, or the batches a typed entry
      // point handed it).
      std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> slices;
      for (const auto* c : kids->second) {
        const auto [it, fresh] = slices.try_emplace(span_thread(c->id), c->start_ns, c->end_ns);
        if (!fresh) {
          it->second.first = std::min(it->second.first, c->start_ns);
          it->second.second = std::max(it->second.second, c->end_ns);
        }
      }
      double slowest = 0, sum = 0;
      for (const auto& [thread, se] : slices) {
        const double d = static_cast<double>(se.second - se.first);
        slowest = std::max(slowest, d);
        sum += d;
      }
      const auto n = static_cast<double>(slices.size());
      job_ns += dur;
      dispatch_ns += dur - slowest;
      imbalance += slowest / (sum / n);
      jobs += 1;
    }
  }
  out["serve.exec_job_us"] = ratio(job_ns, jobs) * 1e-3;
  out["serve.dispatch_us_per_job"] = ratio(dispatch_ns, jobs) * 1e-3;
  out["serve.slice_imbalance"] = ratio(imbalance, jobs);
  for (const char* layer : {"api", "core", "serve", "fault", "persist", "workloads"}) {
    out[std::string("self_ms.") + layer] = self_ns[layer] * 1e-6;
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<span_record>& spans) {
  std::ofstream f(path);
  f << "id,parent,request,name,ops,start_ns,end_ns\n";
  for (const auto& s : spans) {
    f << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ',' << s.ops << ','
      << s.start_ns << ',' << s.end_ns << '\n';
  }
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--git-sha <sha>] [--trace-dir <dir>] [--tiny]\n",
               msg);
  std::exit(2);
}

int run(int argc, char** argv) {
  run_config cfg;
  std::string git_sha = "unknown";
  cfg.trace_dir = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      cfg.workload = need();
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(need().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(need().c_str(), nullptr);
    } else if (a == "--trace") {
      cfg.trace = need() == "1";
    } else if (a == "--git-sha") {
      git_sha = need();
    } else if (a == "--trace-dir") {
      cfg.trace_dir = need();
    } else if (a == "--tiny") {
      cfg.tiny = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (std::find_if(std::begin(workloads), std::end(workloads), [&](const char* w) {
        return cfg.workload == w;
      }) == std::end(workloads)) {
    usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  if (!(cfg.seconds > 0)) usage("--seconds must be positive");

  const std::size_t cpus = available_cpus();
  cfg.threads = std::min<std::size_t>(4, cpus);
  const auto eff = spin_calibration(cfg.threads);
  std::string eff_json = "[";
  for (std::size_t k = 0; k < eff.size(); ++k) eff_json += (k ? "," : "") + num(eff[k]);
  eff_json += "]";
  std::printf(
      "provenance {\"git_sha\": %s, \"compiler\": %s, \"flags\": %s, \"build_type\": %s, "
      "\"SW_CONTRACTS\": %d, \"nproc\": %zu, \"hardware_concurrency\": %u, "
      "\"effective_parallelism_1_to_T\": %s, \"T\": %zu, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"tiny\": %d}\n",
      json_str(git_sha).c_str(), json_str(PERFBENCH_COMPILER).c_str(),
      json_str(PERFBENCH_FLAGS).c_str(), json_str(PERFBENCH_BUILD_TYPE).c_str(), SW_CONTRACTS,
      cpus, std::thread::hardware_concurrency(), eff_json.c_str(), cfg.threads,
      json_str(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      num(cfg.seconds).c_str(), cfg.trace ? 1 : 0, cfg.tiny ? 1 : 0);
  std::fflush(stdout);

  tracer::get().enable(cfg.trace);
  run_result res;
  if (cfg.workload.rfind("oned-", 0) == 0) {
    res = run_oned(cfg);
  } else if (cfg.workload == "text-mixed") {
    res = run_text(cfg);
  } else {
    res = run_spatial(cfg);
  }
  tracer::get().enable(false);

  const double reads = static_cast<double>(res.read_ns.size());
  const double writes = static_cast<double>(res.write_ns.size());
  const double msgs_per_read = ratio(static_cast<double>(res.read_stats.messages), reads);
  double measured_s = 0;
  for (const double r : res.round_s) measured_s += r;
  const auto measured_ops = res.round_s.size() * res.ops_per_round;
  const double ops_per_s = segmented_rate(res.round_s, res.ops_per_round, res.round_period);
  std::map<std::string, double> e2e = {
      {"setup_s", median(res.setup_s)},
      {"ops_per_s", ops_per_s},
      {"read_p50_us", round_p50(res.read_ns, res.read_ends) * 1e-3},
      {"read_p99_us", round_p99(res.read_ns, res.read_ends) * 1e-3},
      {"write_p50_us", round_p50(res.write_ns, res.write_ends) * 1e-3},
      {"write_p99_us", round_p99(res.write_ns, res.write_ends) * 1e-3},
      {"msgs_per_read", msgs_per_read},
      {"msgs_per_write", ratio(static_cast<double>(res.write_stats.messages), writes)},
      {"congestion_per_read", median(res.congestion)},
      {"bytes_per_key", res.bytes_per_key},
      {"answered_share",
       1.0 - ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted))},
  };
  const double sim_p99_us = quantile(res.read_sim_ns, 0.99) * 1e-3;

  std::printf("workload %s: n=%zu, T=%zu, single-client reads=%zu writes=%zu, measured ops=%llu "
              "in %.3f s, oracle checks=%llu mismatches=%llu, attempted=%llu failed=%llu\n",
              cfg.workload.c_str(), res.n, cfg.threads, res.read_ns.size(), res.write_ns.size(),
              static_cast<unsigned long long>(measured_ops), measured_s,
              static_cast<unsigned long long>(res.oracle.checked()),
              static_cast<unsigned long long>(res.oracle.mismatches()),
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (const auto& m : end_to_end) {
    std::printf("  %-22s %16.4f %s\n", m.name, e2e.at(m.name), m.unit);
  }
  std::printf(
      "determinism {\"inputs_digest\": \"%016llx\", \"msgs_per_read\": %s, \"msgs_per_write\": "
      "%s, \"congestion_per_read\": %s, \"bytes_per_key\": %s, \"sim_read_p99_us\": %s}\n",
      static_cast<unsigned long long>(res.inputs_digest), num(msgs_per_read).c_str(),
      num(e2e.at("msgs_per_write")).c_str(), num(e2e.at("congestion_per_read")).c_str(),
      num(res.bytes_per_key).c_str(), num(sim_p99_us).c_str());

  std::map<std::string, double> layer;
  if (cfg.trace) {
    for (const auto& m : per_layer) {
      layer[m.name] = 0.0;  // not exercised by this workload
    }
    const auto spans = tracer::get().collect();
    for (const auto& [k, v] : analyse_spans(spans)) layer[k] = v;
    for (const auto& [k, v] : res.layer) layer[k] = v;
    layer["trace.ops_per_s"] = ops_per_s;
    layer["serve.spin_speedup_T_vs_1"] = eff.back();
    layer["core.cmps_per_read"] = ratio(static_cast<double>(res.read_stats.comparisons), reads);
    layer["core.msgs_per_read_over_log2n"] = msgs_per_read / std::log2(static_cast<double>(res.n));
    layer["net.visits_per_read"] = ratio(static_cast<double>(res.read_stats.host_visits), reads);
    layer["net.retries_per_read"] = ratio(static_cast<double>(res.read_stats.retries), reads);
    layer["net.sim_us_per_read"] =
        ratio(static_cast<double>(res.read_stats.sim_latency_ns), reads) * 1e-3;
    layer["net.sim_read_p99_us"] = sim_p99_us;
    layer["net.max_host_visits"] = median(res.busiest_visits);
    std::filesystem::create_directories(cfg.trace_dir);
    const std::string path =
        cfg.trace_dir + "/spans-" + cfg.workload + "-" + std::to_string(cfg.seed) + ".csv";
    write_spans(path, spans);
    const double log2n = std::log2(static_cast<double>(res.n));
    std::printf("spans: %zu written to %s; log2 n = %.3f, log2 log2 n = %.3f\n", spans.size(),
                path.c_str(), log2n, std::log2(log2n));
    std::printf("layer table (same stream, one worker, planes added one at a time):\n");
    for (const auto& row : res.layer_table) std::printf("%s\n", row.c_str());
    for (const auto& m : per_layer) {
      std::printf("  %-34s %16.4f %s\n", m.name, layer.at(m.name), m.unit);
    }
  }

  const bool correct = res.oracle.mismatches() == 0;
  const auto metrics_json = [](const auto& defs, const std::map<std::string, double>& values) {
    std::string out;
    for (const auto& m : defs) {
      out += (out.empty() ? "" : ", ") + json_str(m.name) + ": {\"value\": " +
             num(values.at(m.name)) + ", \"unit\": " + json_str(m.unit) + "}";
    }
    return out;
  };
  const std::string metrics =
      cfg.trace ? metrics_json(per_layer, layer) : metrics_json(end_to_end, e2e);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
