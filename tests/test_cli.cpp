#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace ibarb::util {
namespace {

Cli make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Cli(static_cast<int>(args.size()), args.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const auto cli = make({"--switches", "16"});
  EXPECT_EQ(cli.get_int("switches", 0), 16);
}

TEST(Cli, EqualsSeparatedValue) {
  const auto cli = make({"--seed=99"});
  EXPECT_EQ(cli.get_int("seed", 0), 99);
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const auto cli = make({});
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cli.get("missing", "fallback"), "fallback");
  EXPECT_TRUE(cli.get_bool("missing", true));
}

TEST(Cli, BareFlagIsTrue) {
  const auto cli = make({"--quick"});
  EXPECT_TRUE(cli.has("quick"));
  EXPECT_TRUE(cli.get_bool("quick", false));
}

TEST(Cli, DoubleParsing) {
  const auto cli = make({"--load", "0.75"});
  EXPECT_DOUBLE_EQ(cli.get_double("load", 0.0), 0.75);
}

TEST(Cli, StringValue) {
  const auto cli = make({"--mtu", "large"});
  EXPECT_EQ(cli.get("mtu", "small"), "large");
}

TEST(Cli, RejectsPositionalArguments) {
  EXPECT_THROW(make({"oops"}), std::invalid_argument);
}

TEST(Cli, RejectsMalformedInteger) {
  const auto cli = make({"--n", "12x"});
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, RejectsMalformedDouble) {
  const auto cli = make({"--x", "abc"});
  EXPECT_THROW(cli.get_double("x", 0.0), std::invalid_argument);
}

TEST(Cli, UnusedFlagsReported) {
  const auto cli = make({"--used", "1", "--typo", "2"});
  (void)cli.get_int("used", 0);
  EXPECT_EQ(cli.unused_flags(), "--typo");
}

TEST(Cli, JobsParsesExplicitCount) {
  const auto cli = make({"--jobs", "3"});
  EXPECT_EQ(cli.jobs(), 3u);
}

TEST(Cli, JobsDefaultsToHardwareConcurrency) {
  const auto cli = make({});
  EXPECT_EQ(cli.jobs(), default_jobs());
  EXPECT_GE(cli.jobs(), 1u);
  // --jobs 0 means "auto", same as the default.
  EXPECT_EQ(make({"--jobs", "0"}).jobs(), default_jobs());
}

TEST(Cli, JobsRejectsNegativeCounts) {
  const auto cli = make({"--jobs=-2"});
  EXPECT_THROW(cli.jobs(), std::invalid_argument);
}

TEST(Cli, NegativeNumbersAsValues) {
  // A negative value does not start with "--", so space form works.
  const auto cli = make({"--offset", "-5"});
  EXPECT_EQ(cli.get_int("offset", 0), -5);
}

TEST(Cli, StdFlagsDefaults) {
  const auto cli = make({});
  const auto sf = cli.std_flags(/*default_seed=*/21);
  EXPECT_EQ(sf.jobs, cli.jobs());
  EXPECT_FALSE(sf.json);
  EXPECT_EQ(sf.seed, 21u);
  EXPECT_TRUE(sf.trace_out.empty());
  EXPECT_EQ(sf.sample_every, 0u);
  EXPECT_TRUE(sf.series_csv.empty());
  EXPECT_FALSE(sf.profile);
  EXPECT_FALSE(sf.quiet);
}

TEST(Cli, StdFlagsParsesFullBlock) {
  const auto cli = make({"--jobs", "2", "--json", "--seed", "7",
                         "--trace-out", "t.json", "--sample-every", "4096",
                         "--series-csv", "out", "--profile", "--quiet"});
  const auto sf = cli.std_flags();
  EXPECT_EQ(sf.jobs, 2u);
  EXPECT_TRUE(sf.json);
  EXPECT_EQ(sf.seed, 7u);
  EXPECT_EQ(sf.trace_out, "t.json");
  EXPECT_EQ(sf.sample_every, 4096u);
  EXPECT_EQ(sf.series_csv, "out");
  EXPECT_TRUE(sf.profile);
  EXPECT_TRUE(sf.quiet);
}

TEST(Cli, StdFlagsRejectsNegativeSampleEvery) {
  const auto cli = make({"--sample-every=-1"});
  EXPECT_THROW(cli.std_flags(), std::invalid_argument);
}

TEST(Cli, StdFlagsRejectsMissingOutputParents) {
  // A typo'd directory must fail at flag parse, not after the simulation.
  EXPECT_THROW(make({"--trace-out", "/nonexistent-dir-xyz/t.json"})
                   .std_flags(),
               std::invalid_argument);
  EXPECT_THROW(make({"--series-csv", "/nonexistent-dir-xyz/series"})
                   .std_flags(),
               std::invalid_argument);
  // Bare filenames and "." parents resolve against the cwd, which exists.
  EXPECT_NO_THROW(make({"--trace-out", "t.json"}).std_flags());
  EXPECT_NO_THROW(make({"--series-csv", "./series"}).std_flags());
}

TEST(Cli, StdFlagsMarksBlockAsQueried) {
  // std_flags must consume the whole standard block so warn_unused only
  // fires on flags nothing read: typos, and run-configuration knobs
  // (--crossbar) given to a binary that never runs a paper experiment.
  const auto cli = make({"--json", "--trace-out=t.json", "--oops", "1",
                         "--crossbar", "islip"});
  (void)cli.std_flags();
  EXPECT_EQ(cli.unused_flags(), "--crossbar, --oops");
}

TEST(Cli, StdFlagsLeavesRemovedShardFlagUnused) {
  // The parallel simulation core was removed together with its flag; a
  // leftover use of that flag is reported like any typo.
  const auto cli = make({"--shards", "4", "--jobs", "2"});
  (void)cli.std_flags();
  EXPECT_EQ(cli.unused_flags(), "--shards");
}

}  // namespace
}  // namespace ibarb::util
