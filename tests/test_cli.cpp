// Single-table CLI contract: `seance <table> --verify` prints the check
// verdicts and counts as fixed lines and exits 0 on a clean machine.
// Scripts and the CI round-trip step read these lines, so their wording
// and the lion counts are pinned here.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>

namespace {

struct CommandOutput {
  int exit_code = -1;
  std::string out;
};

CommandOutput run_capture(const std::string& cmd) {
  CommandOutput result;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, n);
  }
  const int rc = ::pclose(pipe);
  if (rc != -1 && WIFEXITED(rc)) result.exit_code = WEXITSTATUS(rc);
  return result;
}

TEST(SingleTableCli, VerifyGateTernaryPrintsPinnedVerdictLines) {
  const CommandOutput r =
      run_capture("'" SEANCE_CLI_PATH "' lion --verify --gate-ternary --quiet");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("equation verification: PASS\n"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("ternary analysis: 14 transitions, 6/2 conservative "
                       "flags (procedure A/B)\n"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("gate ternary: 14 transitions, 6/2 conservative flags "
                       "(procedure A/B)\n"),
            std::string::npos)
      << r.out;
}

// Numbers that used to wrap, narrow or slip through (`--shards
// 4294967297` ran one shard, `--tt-mb -1` hung sizing the table,
// `--cache-mem-mb inf` reached an undefined float-to-integer cast,
// `--timeout nan` silently disabled the watchdog) exit 1 with the
// parser's message before any work starts.
class HostileNumberCli : public ::testing::TestWithParam<const char*> {};

TEST_P(HostileNumberCli, ExitsOneWithNeedsANumber) {
  const std::string args = GetParam();
  const CommandOutput r =
      run_capture("'" SEANCE_CLI_PATH "' " + args + " < /dev/null");
  EXPECT_EQ(r.exit_code, 1) << r.out;
  const std::string flag = args.substr(args.find("--"));
  const std::string name = flag.substr(0, flag.find(' '));
  const std::string value = flag.substr(flag.find(' ') + 1);
  EXPECT_NE(r.out.find("option " + name + " needs a number, got '" + value +
                       "'"),
            std::string::npos)
      << r.out;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, HostileNumberCli,
    ::testing::Values("batch --tt-mb -1", "batch --tt-mb 65537",
                      "batch --shards 4294967297", "batch --random 4294967296",
                      "batch --seed -1", "batch --timeout nan",
                      "baseline --jobs 99999999999999999999",
                      "serve --cache-mem-mb inf", "serve --cache-mem-mb 1e300",
                      "lion --tt-mb -1"));

}  // namespace

#endif
