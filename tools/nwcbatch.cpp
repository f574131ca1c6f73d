// nwcbatch: run an experiment grid described by an INI file.
//
//   nwcbatch [--jobs=N] [--meta-dir=DIR] [--heartbeat=SECS] [--resume]
//            [--sample-interval=N] [--sample-dir=DIR] [--status=FILE]
//            experiments.ini
//
//   # experiments.ini
//   [machine]
//   memory_per_node = 262144
//   [batch]
//   apps = sor, mg
//   systems = standard, nwcache, dcd
//   prefetch = optimal, naive
//   seeds = 1, 2, 3
//   scale = 1.0
//   jobs = 0          # worker threads; 0 = all cores, 1 = serial
//   csv = grid.csv
//   jsonl = grid.jsonl
//   meta_dir = meta   # one run_meta.json per grid cell
//   heartbeat_secs = 2  # parallel status cadence on stderr; 0 disables
//
// Grid cells are independent simulations; they run concurrently on
// --jobs threads (default: all cores) with results — table, CSV, JSONL —
// byte-identical to a serial run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "apps/batch.hpp"
#include "obs/profiler.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace nwc;
  std::string ini_path;
  std::string meta_dir;
  long jobs = -1;       // -1 = use the INI's jobs key (default auto)
  long heartbeat = -1;  // -1 = use the INI's heartbeat_secs key
  bool resume = false;
  long sample_interval = -1;  // -1 = use the INI's sample_interval key
  std::string sample_dir;
  std::string status_path;
  const char* usage =
      "usage: nwcbatch [--jobs=N] [--meta-dir=DIR] [--heartbeat=SECS] "
      "[--resume] "
      "[--sample-interval=N] [--sample-dir=DIR] [--status=FILE] "
      "[--profile=FILE] <experiments.ini>\n";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--jobs=", 0) == 0) {
      jobs = std::strtol(a.c_str() + 7, nullptr, 10);
      if (jobs < 0) {
        std::fprintf(stderr, "nwcbatch: --jobs must be >= 0\n");
        return 2;
      }
    } else if (a.rfind("--meta-dir=", 0) == 0) {
      meta_dir = a.substr(std::strlen("--meta-dir="));
    } else if (a.rfind("--heartbeat=", 0) == 0) {
      heartbeat = std::strtol(a.c_str() + 12, nullptr, 10);
      if (heartbeat < 0) {
        std::fprintf(stderr, "nwcbatch: --heartbeat must be >= 0\n");
        return 2;
      }
    } else if (a == "--resume") {
      resume = true;
    } else if (a.rfind("--sample-interval=", 0) == 0) {
      sample_interval = std::strtol(a.c_str() + 18, nullptr, 10);
      if (sample_interval < 0) {
        std::fprintf(stderr, "nwcbatch: --sample-interval must be >= 0\n");
        return 2;
      }
    } else if (a.rfind("--sample-dir=", 0) == 0) {
      sample_dir = a.substr(std::strlen("--sample-dir="));
    } else if (a.rfind("--status=", 0) == 0) {
      status_path = a.substr(std::strlen("--status="));
    } else if (a.rfind("--profile=", 0) == 0) {
      obs::prof::enableWithReportAtExit(a.substr(std::strlen("--profile=")));
    } else if (a == "--help" || a == "-h") {
      std::printf("%s"
                  "  --jobs=N          worker threads (0 = all cores, 1 = serial;\n"
                  "                    overrides the INI's batch.jobs key)\n"
                  "  --meta-dir=DIR    write one run_meta.json per grid cell\n"
                  "  --heartbeat=SECS  parallel status cadence on stderr (0 = off)\n"
                  "  --resume          skip grid cells already checkpointed in the\n"
                  "                    batch.jsonl file; rerun only the rest\n"
                  "  --sample-interval=N  pcycles between telemetry samples\n"
                  "                    (0 = off; overrides batch.sample_interval)\n"
                  "  --sample-dir=DIR  one nwc-timeseries-v1 JSON + CSV per cell\n"
                  "  --status=FILE     live JSONL status stream (tail it with\n"
                  "                    nwctop)\n"
                  "  --profile=FILE    profile the simulator itself: write an\n"
                  "                    nwc-profile-v1 JSON report (+ FILE.folded)\n"
                  "                    at exit; grid results are unchanged\n",
                  usage);
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "nwcbatch: unknown flag %s\n%s", a.c_str(), usage);
      return 2;
    } else if (ini_path.empty()) {
      ini_path = a;
    } else {
      std::fputs(usage, stderr);
      return 2;
    }
  }
  if (ini_path.empty()) {
    std::fputs(usage, stderr);
    return 2;
  }
  try {
    auto spec = apps::BatchSpec::fromIni(util::IniFile::load(ini_path));
    if (jobs >= 0) spec.jobs = static_cast<unsigned>(jobs);
    if (!meta_dir.empty()) spec.meta_dir = meta_dir;
    if (heartbeat >= 0) spec.heartbeat_secs = static_cast<unsigned>(heartbeat);
    if (resume) spec.resume = true;
    if (sample_interval >= 0) spec.sample_interval = static_cast<sim::Tick>(sample_interval);
    if (!sample_dir.empty()) spec.sample_dir = sample_dir;
    if (!status_path.empty()) spec.status_path = status_path;
    if (!spec.sample_dir.empty() && spec.sample_interval == 0) {
      std::fprintf(stderr, "nwcbatch: --sample-dir requires --sample-interval > 0\n");
      return 2;
    }
    std::printf("running %zu configurations at scale %.2f on %u threads\n",
                spec.runCount(), spec.scale, util::resolveJobs(spec.jobs));
    const apps::BatchResult res = apps::runBatch(spec, &std::cerr);

    util::AsciiTable t({"App", "System", "Prefetch", "Seed", "Exec (Mpc)",
                        "Faults", "Swap-outs", "OK"});
    for (const auto& s : res.runs) {
      t.addRow({s.app, machine::toString(s.cfg.system),
                machine::toString(s.cfg.prefetch), std::to_string(s.cfg.seed),
                util::AsciiTable::fmt(static_cast<double>(s.exec_time) / 1e6),
                std::to_string(s.metrics.faults), std::to_string(s.metrics.swap_outs),
                s.ok() ? "yes" : "NO"});
    }
    t.print(std::cout);
    if (!spec.csv_path.empty()) std::printf("csv: %s\n", spec.csv_path.c_str());
    if (!spec.jsonl_path.empty()) std::printf("jsonl: %s\n", spec.jsonl_path.c_str());
    if (!spec.meta_dir.empty()) std::printf("meta: %s\n", spec.meta_dir.c_str());
    if (!spec.sample_dir.empty()) std::printf("samples: %s\n", spec.sample_dir.c_str());
    if (!spec.status_path.empty()) std::printf("status: %s\n", spec.status_path.c_str());
    return res.all_ok ? 0 : 1;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcbatch: %s\n", ex.what());
    return 2;
  }
}
