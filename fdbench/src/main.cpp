// fdbench — the repository benchmark for the FDaaS stack.
//
//   fdbench --workload crash_fleet|peer_scale|sub_churn --seed N
//           --seconds S --trace 0|1 [--commit SHA] [--trace-dir DIR]
//
// Runs one workload against the real library stack in-process, checks
// its outputs, and prints every metric by name with its unit on lines
// starting with '#'. The last line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the headline metrics (untraced run, --trace 0) or the
// per-layer metrics (traced run, --trace 1). A failed check exits 1.
// METRICS.md maps every metric to its layer and the workloads it moves on.
#include <execinfo.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.hpp"

#ifndef FDBENCH_BUILD_TYPE
#define FDBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using fdbench::Result;

constexpr int kWatchdogSeconds = 170;

// BENCHMARK.json end_to_end: every workload fills every slot.
const std::vector<std::pair<const char*, const char*>> kHeadline = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
    {"service_cpu_us_per_hb", "us"},
    {"rss_kb_per_sub", "KiB"},
};

// BENCHMARK.json per_layer, named after the src/ modules.
const std::vector<std::pair<const char*, const char*>> kLayers = {
    {"net.decode_ns", "ns"},
    {"net.rx_per_batch", "count"},
    {"net.wakeups_spurious_per_s", "1/s"},
    {"net.recv_errors", "count"},
    {"net.rx_truncated", "count"},
    {"net.timer_resched_per_hb", "ratio"},
    {"net.timer_fires_per_suspect", "ratio"},
    {"net.timer_cascades_per_s", "1/s"},
    {"service.handle_heartbeat_ns", "ns"},
    {"service.subscribe_us", "us"},
    {"service.warmup_s", "s"},
    {"service.detector_rebuilds", "count"},
    {"service.hb_applied", "count"},
    {"config.chen_configure_us", "us"},
    {"shard.busy_pct", "%"},
    {"shard.hb_applied_ratio", "ratio"},
    {"shard.handoff_ratio", "ratio"},
    {"shard.commands_per_s", "1/s"},
    {"shard.events_dropped", "count"},
    {"shard.post_retries", "count"},
    {"shard.post_stalls", "count"},
    {"api.busy_pct", "%"},
    {"api.queue_p50_ms", "ms"},
    {"api.queue_p99_ms", "ms"},
    {"api.wakeups_per_s", "1/s"},
    {"api.bytes_per_event", "bytes"},
    {"api.slow_evictions", "count"},
    {"obs.render_ms", "ms"},
    {"obs.scrape_kb", "KiB"},
    {"obs.series", "count"},
    {"obs.busy_pct", "%"},
    {"proc.allocs_per_hb", "ratio"},
    {"bench.gen_late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Watchdog report: each thread prints its own backtrace.
void dump_stack(int) {
  void* frames[48];
  const int n = backtrace(frames, 48);
  backtrace_symbols_fd(frames, n, 2);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: fdbench --workload crash_fleet|peer_scale|sub_churn --seed N\n"
               "               --seconds S --trace 0|1 [--commit SHA] [--trace-dir DIR]\n");
  std::exit(2);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  fdbench::Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(val);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (arg == "--trace") {
      opt.trace = val != "0";
    } else if (arg == "--commit") {
      commit = val;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = val;
    } else {
      usage();
    }
  }
  if (opt.seconds <= 0) usage();

  // Watchdog: a wedged run must still end, without a result line.
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder before any signal needs it
  std::signal(SIGUSR1, dump_stack);
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(kWatchdogSeconds));
    std::fprintf(stderr, "fdbench: watchdog fired after %d s in phase '%s'; threads:\n",
                 kWatchdogSeconds, fdbench::phase());
    for (const int tid : fdbench::thread_ids()) {
      std::ifstream wchan("/proc/self/task/" + std::to_string(tid) + "/wchan");
      std::string w;
      wchan >> w;
      std::fprintf(stderr, "  thread %d wchan %s\n", tid, w.c_str());
      if (tid == static_cast<int>(gettid())) continue;
      syscall(SYS_tgkill, getpid(), tid, SIGUSR1);  // dump_stack below
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    std::_Exit(3);
  }).detach();

  fdbench::Tracer tracer(opt.trace);
  Result res;
  try {
    if (opt.workload == "crash_fleet") {
      res = fdbench::run_crash_fleet(opt, tracer);
    } else if (opt.workload == "peer_scale") {
      res = fdbench::run_peer_scale(opt, tracer);
    } else if (opt.workload == "sub_churn") {
      res = fdbench::run_sub_churn(opt, tracer);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdbench: %s: %s\n", opt.workload.c_str(), e.what());
    std::_Exit(1);
  }

  std::printf("# stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
              "\"nproc\":%u,\"llc_bytes\":%llu,\"build_type\":\"%s\",\"git_commit\":\"%s\","
              "\"valid\":%s}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              num(opt.seconds).c_str(), opt.trace ? 1 : 0, fdbench::online_cpus(),
              static_cast<unsigned long long>(fdbench::llc_bytes()), FDBENCH_BUILD_TYPE,
              commit.c_str(), res.valid ? "true" : "false");
  for (const auto& m : res.named) {
    std::printf("# metric %-28s %14s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const auto& [name, unit] : kHeadline) {
    std::printf("# headline %-26s %14s %s\n", name, num(res.headline[name]).c_str(), unit);
  }
  if (opt.trace) {
    for (const auto& [name, unit] : kLayers) {
      const auto it = res.layer.find(name);
      std::printf("# layer %-29s %14s %s%s\n", name,
                  num(it == res.layer.end() ? 0.0 : it->second).c_str(), unit,
                  it == res.layer.end() ? "  (n/a on this workload)" : "");
    }
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    tracer.write(path);
    std::printf("# spans written to %s\n", path.c_str());
  }
  for (const auto& e : res.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  std::printf("# attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), res.correct ? "true" : "false");

  std::string json = std::string("{\"correct\": ") + (res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : opt.trace ? kLayers : kHeadline) {
    double v = 0;
    if (opt.trace) {
      const auto it = res.layer.find(name);
      if (it != res.layer.end()) v = it->second;
    } else {
      v = res.headline[name];
    }
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + num(v) +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  // Exit without unwinding: the measured stacks are left running on
  // purpose (see the workloads), and their threads end with the process.
  std::_Exit(res.correct ? 0 : 1);
}
