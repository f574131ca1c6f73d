// nwctrace: inspect block traces (.nwcb binary / text) written by nwcgen.
//
//   nwctrace info <trace>                 header + client/object counts
//   nwctrace stat <trace>                 per-client statistics
//
// `info` reports counts and the time span; `stat` adds the read/write mix
// per client and a popularity-skew estimate. Both exit 2 on usage errors
// and on a file that is not a well-formed block trace.
#include <cstdio>
#include <exception>
#include <string>

#include "apps/block_trace.hpp"

namespace {

using nwc::apps::BlockTrace;
using nwc::apps::BlockTraceStats;

int cmdBlockInfo(const char* path, const BlockTrace& t) {
  const BlockTraceStats s = nwc::apps::summarizeBlockTrace(t);
  std::printf("format:      block trace (%s)\n", path);
  std::printf("objects:     %llu (%llu referenced)\n",
              static_cast<unsigned long long>(s.objects),
              static_cast<unsigned long long>(s.unique_objects));
  std::printf("clients:     %llu\n", static_cast<unsigned long long>(s.clients));
  std::printf("ops:         %llu\n", static_cast<unsigned long long>(s.total_ops));
  std::printf("span:        %llu ticks (max client)\n",
              static_cast<unsigned long long>(s.span_ticks));
  return 0;
}

int cmdBlockStat(const BlockTrace& t) {
  const BlockTraceStats s = nwc::apps::summarizeBlockTrace(t);
  std::printf("%-8s %12s %12s %12s %10s\n", "client", "ops", "reads", "writes",
              "span");
  for (std::size_t c = 0; c < t.clients.size(); ++c) {
    unsigned long long reads = 0, writes = 0, span = 0;
    for (const nwc::apps::BlockOp& op : t.clients[c]) {
      if (op.write) {
        ++writes;
      } else {
        ++reads;
      }
      span += op.gap;
    }
    std::printf("%-8zu %12zu %12llu %12llu %10llu\n", c, t.clients[c].size(),
                reads, writes, span);
  }
  std::printf("%-8s %12llu %12llu %12llu %10llu\n", "total",
              static_cast<unsigned long long>(s.total_ops),
              static_cast<unsigned long long>(s.reads),
              static_cast<unsigned long long>(s.writes),
              static_cast<unsigned long long>(s.span_ticks));
  if (s.total_ops > 0) {
    std::printf("read ratio:       %.3f\n",
                static_cast<double>(s.reads) / static_cast<double>(s.total_ops));
  }
  std::printf("est. zipf theta:  %.3f\n", s.est_zipf_theta);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: nwctrace info <trace>   (.nwcb binary or text block trace)\n"
      "       nwctrace stat <trace>\n";
  const std::string cmd = argc > 1 ? argv[1] : "";
  if ((cmd != "info" && cmd != "stat") || argc != 3) {
    std::fputs(usage, stderr);
    return 2;
  }
  try {
    const BlockTrace bt = nwc::apps::readBlockTrace(argv[2]);
    return cmd == "info" ? cmdBlockInfo(argv[2], bt) : cmdBlockStat(bt);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwctrace: %s\n", ex.what());
    return 2;
  }
}
