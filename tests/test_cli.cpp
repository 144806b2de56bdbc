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

}  // namespace

#endif
