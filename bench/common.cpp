#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "apps/registry.hpp"
#include "apps/workload.hpp"
#include "machine/config_io.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/run_meta.hpp"
#include "util/parallel.hpp"

namespace nwc::bench {

namespace {

// Summaries pre-computed by runAhead(), keyed by the full serialized
// machine configuration + application + scale. Single-threaded access:
// runAhead() fills it before the bench's row loop starts consuming.
std::unordered_map<std::string, apps::RunSummary> g_run_cache;

std::string cacheKey(const machine::MachineConfig& cfg, const std::string& app,
                     double scale) {
  // toIni() covers every INI-exposed field; append the few config members
  // without an INI key so no two distinct machines can collide.
  return machine::toIni(cfg).serialize() + "|" + app + "|" + std::to_string(scale) +
         "|" + std::to_string(cfg.pages_per_cylinder) + "|" +
         std::to_string(cfg.disk_cylinders) + "|" +
         std::to_string(cfg.log_disk_blocks) + "|" + std::to_string(cfg.l1.line_bytes) +
         "|" + std::to_string(cfg.l1.assoc) + "|" + std::to_string(cfg.l2.line_bytes) +
         "|" + std::to_string(cfg.l2.assoc);
}

void printRunWarnings(const apps::RunSummary& s, const std::string& app) {
  if (!s.verified) {
    std::fprintf(stderr, "  WARNING: %s numerical verification FAILED\n", app.c_str());
  }
  if (!s.invariant_violations.empty()) {
    std::fprintf(stderr, "  WARNING: invariant violations:\n%s",
                 s.invariant_violations.c_str());
  }
}

// Runs one simulation, exporting its instrument registry to
// opt.metrics_dir when requested. File names embed a hash of the full
// cache key so sweep benches that vary non-(system,prefetch) knobs never
// overwrite each other.
apps::RunSummary simulate(const machine::MachineConfig& cfg, const std::string& app,
                          const Options& opt) {
  // One arena per simulation thread: page tables are recycled between runs
  // instead of reallocated per Machine.
  thread_local machine::MachineArena arena;
  apps::ObsSinks sinks;
  sinks.arena = &arena;
  if (opt.metrics_dir.empty()) {
    return apps::runApp(cfg, app, opt.scale, sinks);
  }
  obs::MetricsRegistry reg;
  sinks.registry = &reg;
  apps::RunSummary s = apps::runApp(cfg, app, opt.scale, sinks);
  char hash[20];
  std::snprintf(hash, sizeof(hash), "%08llx",
                static_cast<unsigned long long>(
                    obs::fnv1aHash(cacheKey(cfg, app, opt.scale)) & 0xffffffffULL));
  // Workload specs carry filename-hostile characters (':', ';', '/'); fold
  // them to '-' (the hash suffix keeps distinct specs distinct).
  std::string safe_app = app;
  for (char& c : safe_app) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '-';
  }
  std::string path = opt.metrics_dir;
  path += '/';
  path += safe_app;
  path += '_';
  path += machine::toString(cfg.system);
  path += '_';
  path += machine::toString(cfg.prefetch);
  path += '_';
  path += hash;
  path += ".json";
  reg.writeJson(path);
  return s;
}

std::vector<std::string> splitCsvList(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string item = s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

Options parseArgs(int argc, char** argv, const std::string& bench_name,
                  double default_scale, const std::vector<std::string>& default_apps) {
  Options opt;
  opt.scale = default_scale;
  opt.apps = default_apps;
  opt.csv_path = bench_name + ".csv";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--scale=", 0) == 0) {
      opt.scale = std::atof(a.c_str() + 8);
    } else if (a.rfind("--apps=", 0) == 0) {
      opt.apps = splitCsvList(a.substr(7));
    } else if (a.rfind("--csv=", 0) == 0) {
      opt.csv_path = a.substr(6);
    } else if (a.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(a.c_str() + 7, nullptr, 0);
    } else if (a.rfind("--jobs=", 0) == 0) {
      opt.jobs = static_cast<unsigned>(std::strtoul(a.c_str() + 7, nullptr, 10));
    } else if (a.rfind("--metrics-dir=", 0) == 0) {
      opt.metrics_dir = a.substr(std::strlen("--metrics-dir="));
    } else if (a.rfind("--profile=", 0) == 0) {
      opt.profile_path = a.substr(std::strlen("--profile="));
      obs::prof::enableWithReportAtExit(opt.profile_path);
    } else if (a == "--help" || a == "-h") {
      std::printf(
          "usage: %s [--scale=F] [--apps=a,b] [--csv=PATH] [--seed=N] [--jobs=N] "
          "[--metrics-dir=DIR] [--profile=FILE]\n",
          bench_name.c_str());
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s (see --help)\n", bench_name.c_str(),
                   a.c_str());
      std::exit(2);
    }
  }
  if (opt.scale <= 0.0 || opt.scale > 1.0) {
    std::fprintf(stderr, "%s: --scale must be in (0, 1]\n", bench_name.c_str());
    std::exit(2);
  }
  if (!opt.metrics_dir.empty()) {
    std::filesystem::create_directories(opt.metrics_dir);
  }
  return opt;
}

std::vector<std::string> appList(const Options& opt) {
  if (!opt.apps.empty()) {
    for (const auto& a : opt.apps) {
      if (const std::string err = apps::workloadSpecError(a); !err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        std::exit(2);
      }
    }
    return opt.apps;
  }
  std::vector<std::string> all;
  for (const auto& a : apps::appRegistry()) all.push_back(a.name);
  return all;
}

machine::MachineConfig configFor(machine::SystemKind sys, machine::Prefetch pf,
                                 const Options& opt) {
  machine::MachineConfig cfg;
  cfg.withSystem(sys, pf);
  cfg.seed = opt.seed;
  return cfg;
}

void runAhead(const std::vector<PlannedRun>& plan, const Options& opt) {
  const unsigned jobs = util::resolveJobs(opt.jobs);
  if (jobs <= 1) return;  // serial: run() simulates on demand, as before

  std::vector<const PlannedRun*> todo;
  std::vector<std::string> keys;
  std::unordered_set<std::string> planned;
  for (const PlannedRun& p : plan) {
    std::string key = cacheKey(p.cfg, p.app, opt.scale);
    if (g_run_cache.contains(key) || !planned.insert(key).second) continue;
    todo.push_back(&p);
    keys.push_back(std::move(key));
  }
  if (todo.empty()) return;

  std::fprintf(stderr, "  running %zu simulations on %u threads\n", todo.size(), jobs);
  std::vector<apps::RunSummary> out(todo.size());
  util::ProgressMeter meter(todo.size(), &std::cerr);
  util::ParallelExecutor exec(jobs);
  exec.forEachIndex(todo.size(), [&](std::size_t i) {
    apps::RunSummary s = simulate(todo[i]->cfg, todo[i]->app, opt);
    meter.completed(todo[i]->app + " on " + todo[i]->cfg.describe(), s.ok());
    out[i] = std::move(s);
  });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    g_run_cache.emplace(std::move(keys[i]), std::move(out[i]));
  }
}

apps::RunSummary run(const machine::MachineConfig& cfg, const std::string& app,
                     const Options& opt) {
  const auto it = g_run_cache.find(cacheKey(cfg, app, opt.scale));
  if (it != g_run_cache.end()) {
    printRunWarnings(it->second, app);
    return it->second;
  }
  std::fprintf(stderr, "  running %-6s on %s ...\n", app.c_str(), cfg.describe().c_str());
  apps::RunSummary s = simulate(cfg, app, opt);
  printRunWarnings(s, app);
  return s;
}

void emit(const Options& opt, const util::AsciiTable& table,
          const std::vector<std::string>& headers,
          const std::vector<std::vector<std::string>>& rows) {
  table.print(std::cout);
  if (opt.csv_path.empty()) return;
  try {
    util::CsvWriter csv(opt.csv_path, headers);
    for (const auto& r : rows) csv.addRow(r);
    std::printf("(csv: %s)\n", opt.csv_path.c_str());
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "csv write failed: %s\n", ex.what());
  }
}

std::string bar(double fraction, int width) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string s(static_cast<std::size_t>(filled), '#');
  s.resize(static_cast<std::size_t>(width), ' ');
  return s;
}

}  // namespace nwc::bench
