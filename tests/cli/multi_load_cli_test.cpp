// CLI surfaces added by ISSUE 8: `dls --version`, `dls sweep --loads`,
// `dls online --loads`, and the empty-shard campaign warning.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "temp_path.hpp"

#ifndef DLS_SOURCE_DIR
#define DLS_SOURCE_DIR "."
#endif

namespace dls::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun run(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(std::move(args), out, err);
  return {code, out.str(), err.str()};
}

TEST(MultiLoadCli, VersionPrintsBuildSummary) {
  for (const char* spelling : {"--version", "version"}) {
    const CliRun r = run({spelling});
    EXPECT_EQ(r.code, 0) << r.err;
    // "dls <revision> (<build type>, <compiler>)"
    EXPECT_EQ(r.out.rfind("dls ", 0), 0u) << r.out;
    EXPECT_NE(r.out.find('('), std::string::npos);
    EXPECT_NE(r.out.find(','), std::string::npos);
  }
}

TEST(MultiLoadCli, SweepLoadsRunsJointCases) {
  const CliRun r = run({"sweep", "--loads", "3", "--clusters", "5", "--cases",
                        "4", "--seed", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("3 concurrent loads"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("jain"), std::string::npos);
  EXPECT_NE(r.out.find("4/4 cases ok"), std::string::npos);
}

TEST(MultiLoadCli, SweepLoadsAcceptsEveryObjective) {
  for (const char* objective : {"sum", "maxmin", "pf"}) {
    const CliRun r = run({"sweep", "--loads", "2", "--clusters", "4", "--cases",
                          "2", "--objective", objective});
    EXPECT_EQ(r.code, 0) << objective << ": " << r.err;
  }
}

TEST(MultiLoadCli, SweepLoadsRejectsBadOptions) {
  EXPECT_EQ(run({"sweep", "--loads", "2", "--objective", "lex"}).code, 1);
  EXPECT_EQ(run({"sweep", "--loads", "2", "--load-mix", "zipf"}).code, 1);
  EXPECT_EQ(run({"sweep", "--loads", "-1"}).code, 1);
}

TEST(MultiLoadCli, OnlineLoadsUsesTheSharedLp) {
  const CliRun r = run({"online", "--loads", "--clusters", "4", "--arrivals",
                        "30", "--seed", "3", "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"method\":\"shared-lp\""), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("\"objective\":\"sum\""), std::string::npos);
  // Admit-immediately semantics: the shared LP has no FIFO queue.
  EXPECT_NE(r.out.find("\"queued_arrivals\":0"), std::string::npos);
}

TEST(MultiLoadCli, OnlineLoadsObjectiveReachesTheLabel) {
  const CliRun r = run({"online", "--loads", "--objective", "maxmin",
                        "--clusters", "4", "--arrivals", "20", "--seed", "3"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("method shared-lp"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("objective maxmin"), std::string::npos);
}

TEST(MultiLoadCli, OnlineLoadsFinishesAtLargeVirtualTimes) {
  // Twelve 1e12-unit loads on a K=64 platform drain until t ~ 3.7e9,
  // where remaining/rate of a finishing load falls below half an ulp of
  // the clock; the replay must still retire every load.
  const std::string wl = dls::testing::temp_path("workload");
  {
    std::ofstream f(wl);
    f << "dls-workload 1\n";
    for (int c = 0; c < 12; ++c) f << "app 0 " << c << " 1 1e12 -\n";
  }
  const CliRun r = run({"online", "--loads", "--clusters", "64", "--seed", "3",
                        "--connected", "--workload", wl, "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("\"completed\":12,"), std::string::npos) << r.out;
  std::remove(wl.c_str());
}

TEST(MultiLoadCli, OnlineLoadsRejectsIncompatibleModes) {
  EXPECT_EQ(run({"online", "--loads", "--reps", "3", "--clusters", "4"}).code, 1);
  EXPECT_EQ(run({"online", "--loads", "--rate-model", "sim", "--clusters",
                 "4"}).code, 1);
  EXPECT_EQ(run({"online", "--loads", "--objective", "lex", "--clusters",
                 "4"}).code, 1);
  EXPECT_EQ(run({"dynamics", "--loads", "--clusters", "4"}).code, 1);
}

TEST(MultiLoadCli, CampaignEmptyShardWarnsButSucceeds) {
  const std::string spec =
      std::string(DLS_SOURCE_DIR) + "/data/multi_load.campaign";
  const CliRun r = run({"campaign", "--spec", spec, "--shard", "50/60",
                        "--json"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.err.find("zero cases"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("shard 50/60"), std::string::npos);
  EXPECT_NE(r.out.find("\"executed\":0"), std::string::npos);
}

TEST(MultiLoadCli, CampaignRunsTheCommittedMultiLoadSpec) {
  const std::string spec =
      std::string(DLS_SOURCE_DIR) + "/data/multi_load.campaign";
  const CliRun a = run({"campaign", "--spec", spec, "--jobs", "1", "--json"});
  const CliRun b = run({"campaign", "--spec", spec, "--jobs", "4", "--json"});
  EXPECT_EQ(a.code, 0) << a.err;
  EXPECT_TRUE(a.err.empty()) << a.err;
  EXPECT_EQ(a.out, b.out);  // jobs-invariance, bit for bit
  EXPECT_NE(a.out.find("\"kind\":\"loads\""), std::string::npos);
}

}  // namespace
}  // namespace dls::cli
