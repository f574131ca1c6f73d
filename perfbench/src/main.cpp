// nwcbench: the repository benchmark's driver. run.py runs it once per
// repetition and per set-up probe (a fresh process each, so peak RSS and
// set-up time are per run) and once for the isolated layer drivers; each
// invocation prints one JSON line.
//
//   nwcbench rep --workload NAME --seed N [--attr] [--crosscheck] [--spans FILE]
//   nwcbench setup --workload NAME --seed N
//   nwcbench layers --workload NAME --seed N --seconds S
//
// `layers` first runs the workload once to capture its own traffic, then
// drives each layer with it for the rest of S seconds.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "block_driver.hpp"
#include "layers.hpp"
#include "rep.hpp"

namespace {

int usage() {
  std::cerr << "usage: nwcbench rep --workload NAME --seed N [--attr] [--crosscheck]"
               " [--spans FILE]\n"
               "       nwcbench setup --workload NAME --seed N\n"
               "       nwcbench layers --workload NAME --seed N --seconds S\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  perfbench::RepOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " wants a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        seed = std::stoull(value());
      } else if (a == "--seconds") {
        seconds = std::stod(value());
      } else if (a == "--attr") {
        opt.attr = true;
      } else if (a == "--crosscheck") {
        opt.crosscheck = true;
      } else if (a == "--spans") {
        opt.spans_path = value();
      } else {
        return usage();
      }
    } catch (const std::exception& ex) {
      std::cerr << "nwcbench: " << ex.what() << "\n";
      return usage();
    }
  }
  const perfbench::WorkloadDef* w = perfbench::findWorkload(workload);
  if (w == nullptr) {
    std::cerr << "nwcbench: unknown workload '" << workload << "'\n";
    return 2;
  }

  try {
    if (cmd == "rep") {
      const perfbench::RepResult r = perfbench::runRep(*w, seed, opt);
      std::cout << perfbench::toJson(r) << std::endl;
      return r.ok ? 0 : 1;
    }
    if (cmd == "setup") {
      std::ostringstream o;
      o.precision(17);
      o << "{\"setup_s\":" << perfbench::setupSeconds(*w, seed) << "}";
      std::cout << o.str() << std::endl;
      return 0;
    }
    if (cmd == "layers") {
      const std::uint64_t t0 = perfbench::hostNowNs();
      perfbench::Traffic traffic;
      opt.traffic = &traffic;
      const perfbench::RepResult r = perfbench::runRep(*w, seed, opt);
      const double left = seconds - static_cast<double>(perfbench::hostNowNs() - t0) / 1e9;
      std::string out = perfbench::toJson(r);
      std::ostringstream o;
      o.precision(17);
      o << ",\"layers\":{";
      bool first = true;
      for (const auto& c :
           perfbench::measureLayers(perfbench::benchConfig(seed), traffic, std::max(left, 1.0))) {
        o << (first ? "" : ",") << '"' << c.name << "\":" << c.ns;
        first = false;
      }
      o << "}}";
      out.pop_back();  // the run's object, extended with the layer costs
      std::cout << out << o.str() << std::endl;
      return r.ok ? 0 : 1;
    }
  } catch (const std::exception& ex) {
    std::cerr << "nwcbench: " << ex.what() << "\n";
    return 1;
  }
  return usage();
}
