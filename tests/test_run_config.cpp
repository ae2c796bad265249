// The paper benches' run-configuration table (bench/paper_runner.hpp): each
// knob resolves flag > env > default in one pass, and a bad value from
// either source is rejected naming the knob, where the value came from and
// the valid set. The environment here is a fake map, so whatever the
// process environment holds never leaks into a case.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "paper_runner.hpp"
#include "report_common.hpp"

namespace ibarb::bench {
namespace {

using Env = std::map<std::string, std::string, std::less<>>;

PaperRunConfig resolve(std::vector<const char*> args, const Env& env = {}) {
  args.insert(args.begin(), "bench");
  const util::Cli cli(static_cast<int>(args.size()), args.data());
  return config_from_cli(cli, {}, {}, [&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

TEST(RunConfigTable, FlagBeatsEnvBeatsDefault) {
  struct Case {
    std::vector<const char*> args;
    Env env;
    std::string_view knob;
    std::string want;  ///< crossbar name, canonical spec or engine name.
    KnobSource source;
  };
  const auto spec = [](const char* s) {
    return network::TopologySpec::parse(s).canonical();
  };
  const Case cases[] = {
      {{}, {}, "crossbar", "wrr", KnobSource::kDefault},
      {{}, {{"IBARB_CROSSBAR", ""}}, "crossbar", "wrr", KnobSource::kDefault},
      {{}, {{"IBARB_CROSSBAR", "matrix"}}, "crossbar", "matrix",
       KnobSource::kEnv},
      {{"--crossbar", "islip"}, {{"IBARB_CROSSBAR", "matrix"}}, "crossbar",
       "islip", KnobSource::kFlag},
      // A flag wins without the env value being looked at.
      {{"--crossbar=abr"}, {{"IBARB_CROSSBAR", "bogus"}}, "crossbar", "abr",
       KnobSource::kFlag},
      {{}, {}, "topo", spec("irregular"), KnobSource::kDefault},
      {{}, {{"IBARB_TOPO", "torus3d:x=3,y=3,z=3"}}, "topo",
       spec("torus3d:x=3,y=3,z=3"), KnobSource::kEnv},
      {{"--topo", "fattree:k=4,n=2"}, {{"IBARB_TOPO", "torus3d:x=3,y=3,z=3"}},
       "topo", spec("fattree:k=4,n=2"), KnobSource::kFlag},
      {{}, {}, "routing", "updown", KnobSource::kDefault},
      {{}, {{"IBARB_ROUTING", "minimal-vl-escape"}}, "routing",
       "minimal-vl-escape", KnobSource::kEnv},
      {{"--routing", "fattree-dmodk"}, {{"IBARB_ROUTING", "minimal-vl-escape"}},
       "routing", "fattree-dmodk", KnobSource::kFlag},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("case " + std::to_string(&c - cases));
    const auto cfg = resolve(c.args, c.env);
    const std::string got =
        c.knob == "crossbar" ? sched::crossbar_impl_name(cfg.crossbar)
        : c.knob == "topo"   ? cfg.topo.canonical()
                             : cfg.routing;
    EXPECT_EQ(got, c.want);
    EXPECT_EQ(source_of(cfg, c.knob), c.source);
  }

  // Flag-only knobs; --quick lowers the defaults and a flag still wins.
  const auto cfg = resolve({"--switches", "32", "--mtu", "large", "--seed",
                            "9", "--quick", "--packets", "3",
                            "--besteffort-load", "0.25"});
  EXPECT_EQ(cfg.switches, 32u);
  EXPECT_EQ(cfg.mtu, iba::Mtu::kMtu4096);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.min_rx_packets, 3u);
  EXPECT_EQ(cfg.warmup, 500'000u);
  EXPECT_EQ(cfg.besteffort_load, 0.25);
  for (const char* k :
       {"switches", "mtu", "seed", "packets", "besteffort-load"})
    EXPECT_EQ(source_of(cfg, k), KnobSource::kFlag) << k;
  EXPECT_EQ(source_of(cfg, "warmup"), KnobSource::kDefault);
  EXPECT_EQ(source_of(PaperRunConfig{}, "crossbar"), KnobSource::kDefault);
  EXPECT_THROW((void)source_of(cfg, "jobs"), std::invalid_argument);

  // A knob the bench sets itself per run is not read: its flag stays unused.
  const char* argv[] = {"bench", "--mtu", "1024"};
  const util::Cli cli(3, argv);
  const auto no_env = [](const char*) -> const char* { return nullptr; };
  EXPECT_EQ(config_from_cli(cli, {}, {"mtu"}, no_env).mtu, iba::Mtu::kMtu256);
  EXPECT_EQ(cli.unused_flags(), "--mtu");
}

TEST(RunConfigTable, RejectsBadValuesNamingKnobOriginAndValidSet) {
  struct Case {
    std::vector<const char*> args;
    Env env;
    std::vector<const char*> said;  ///< Substrings the message must hold.
  };
  const char* xbars = "wrr|islip|matrix|abr";
  const char* families = "irregular|single|line";
  const char* engines = "updown|minimal-vl-escape|fattree-dmodk";
  const Case cases[] = {
      {{"--crossbar", "fifo"}, {}, {"crossbar: --crossbar 'fifo'", xbars}},
      {{}, {{"IBARB_CROSSBAR", "fifo"}},
       {"crossbar: IBARB_CROSSBAR 'fifo'", xbars}},
      {{"--topo", "hypercube"}, {}, {"topo: --topo 'hypercube'", families}},
      {{}, {{"IBARB_TOPO", "hypercube"}},
       {"topo: IBARB_TOPO 'hypercube'", families}},
      {{"--topo", "torus3d:w=3"}, {}, {"topo: --topo", "'w'"}},
      {{"--topo", "torus3d:x=zero"}, {}, {"topo: --topo", "zero"}},
      {{"--topo", "single:rate=3"}, {}, {"topo: --topo", "rate"}},
      {{"--routing", "ecmp"}, {}, {"routing: --routing 'ecmp'", engines}},
      {{}, {{"IBARB_ROUTING", "ecmp"}},
       {"routing: IBARB_ROUTING 'ecmp'", engines}},
      {{"--mtu", "512"}, {},
       {"mtu: --mtu '512'", "256|1024|2048|4096|small|large"}},
      {{"--mtu"}, {}, {"mtu: --mtu 'true'"}},
      {{"--switches", "-3"}, {}, {"switches: --switches '-3'", ">= 1"}},
      {{"--switches", "0"}, {}, {"switches: --switches '0'"}},
      {{"--switches", "4294967296"}, {}, {"switches: --switches"}},
      {{"--packets", "-1"}, {}, {"packets: --packets '-1'", ">= 0"}},
      {{"--warmup", "-5"}, {}, {"warmup: --warmup '-5'", ">= 0"}},
      {{"--seed", "abc"}, {}, {"seed: --seed 'abc'", ">= 0"}},
      {{"--besteffort-load", "1.5"}, {},
       {"besteffort-load: --besteffort-load '1.5'", "[0, 1]"}},
      {{"--besteffort-load", "-0.1"}, {}, {"besteffort-load", "[0, 1]"}},
      {{"--besteffort-load", "nan"}, {}, {"besteffort-load", "[0, 1]"}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("case " + std::to_string(&c - cases));
    try {
      (void)resolve(c.args, c.env);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      for (const char* s : c.said)
        EXPECT_NE(msg.find(s), std::string::npos) << msg << " lacks " << s;
    }
  }
}

TEST(CrossbarSelection, CliFlagAcceptsEveryKnownName) {
  for (const char* name : {"wrr", "islip", "matrix", "abr"})
    EXPECT_EQ(resolve({"--crossbar", name}).crossbar,
              *sched::parse_crossbar_impl(name));
}

TEST(CrossbarSelection, CliFlagRejectsUnknownAtParseTime) {
  EXPECT_THROW((void)resolve({"--crossbar", "fifo"}), std::invalid_argument);
}

TEST(CrossbarSelection, ConfigFromCliRejectsUnknown) {
  EXPECT_THROW((void)resolve({"--crossbar", "maxmin"}), std::invalid_argument);
}

TEST(RunConfigTable, ReportEchoesResolvedCrossbarAndEverySource) {
  obs::Report report("run_config");
  echo_config(report, resolve({"--crossbar", "islip", "--switches", "8"},
                              {{"IBARB_ROUTING", "updown"}}));
  std::ostringstream os;
  report.write(os);
  const std::string json = os.str();
  for (const char* kv :
       {"\"crossbar\":\"islip\"", "\"crossbar_source\":\"flag\"",
        "\"switches_source\":\"flag\"", "\"routing_source\":\"env\"",
        "\"topo_source\":\"default\"", "\"topo\":\"irregular:switches=8,",
        "\"mtu_source\":", "\"seed_source\":", "\"packets_source\":",
        "\"warmup_source\":", "\"besteffort_load_source\":"})
    EXPECT_NE(json.find(kv), std::string::npos) << kv << " in " << json;
}

// ---------------------------------------------------------------------------
// The default lookup, process_env: these cases set the variables for real,
// one knob at a time, with the other run-configuration variables cleared,
// and each restores what the process held before.
// ---------------------------------------------------------------------------

/// Clears every run-configuration variable for the guard's lifetime, so
/// that only the one it drives (`name`) can reach config_from_cli, and puts
/// back what the process held on destruction.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    for (std::size_t i = 0; i < kVars.size(); ++i) {
      if (const char* old = std::getenv(kVars[i])) saved_[i] = old;
      unsetenv(kVars[i]);
    }
  }
  ~ScopedEnv() {
    for (std::size_t i = 0; i < kVars.size(); ++i) {
      if (saved_[i])
        setenv(kVars[i], saved_[i]->c_str(), 1);
      else
        unsetenv(kVars[i]);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) const { setenv(name_, value, 1); }
  void unset() const { unsetenv(name_); }

 private:
  static constexpr std::array<const char*, 3> kVars = {
      "IBARB_CROSSBAR", "IBARB_TOPO", "IBARB_ROUTING"};
  const char* name_;
  std::array<std::optional<std::string>, 3> saved_;
};

PaperRunConfig resolve_process(std::vector<const char*> args) {
  args.insert(args.begin(), "bench");
  const util::Cli cli(static_cast<int>(args.size()), args.data());
  return config_from_cli(cli);
}

/// The message of the std::invalid_argument that resolving `args` throws;
/// empty (and a test failure) when they are accepted.
std::string rejection(std::vector<const char*> args) {
  try {
    (void)resolve_process(std::move(args));
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

class CrossbarEnvTest : public ::testing::Test {
 protected:
  ScopedEnv env_{"IBARB_CROSSBAR"};
};

TEST_F(CrossbarEnvTest, UnsetAndEmptyMeanWrr) {
  env_.unset();
  auto cfg = resolve_process({});
  EXPECT_EQ(cfg.crossbar, sched::CrossbarImpl::kWrr);
  EXPECT_EQ(source_of(cfg, "crossbar"), KnobSource::kDefault);
  env_.set("");
  cfg = resolve_process({});
  EXPECT_EQ(cfg.crossbar, sched::CrossbarImpl::kWrr);
  EXPECT_EQ(source_of(cfg, "crossbar"), KnobSource::kDefault);
}

TEST_F(CrossbarEnvTest, KnownValuesSelectTheScheduler) {
  for (const char* name : {"wrr", "islip", "matrix", "abr"}) {
    env_.set(name);
    const auto cfg = resolve_process({});
    EXPECT_EQ(cfg.crossbar, *sched::parse_crossbar_impl(name)) << name;
    EXPECT_EQ(source_of(cfg, "crossbar"), KnobSource::kEnv) << name;
  }
}

TEST_F(CrossbarEnvTest, UnknownValueThrowsWithTheValidList) {
  // A typo'd scheduler must never fall back silently.
  env_.set("roundrobin");
  const std::string msg = rejection({});
  EXPECT_NE(msg.find("IBARB_CROSSBAR 'roundrobin'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wrr|islip|matrix|abr"), std::string::npos) << msg;
}

TEST_F(CrossbarEnvTest, FlagBeatsEnvInPaperRunConfig) {
  env_.set("matrix");
  auto cfg = resolve_process({"--crossbar", "islip"});
  EXPECT_EQ(cfg.crossbar, sched::CrossbarImpl::kIslip);
  EXPECT_EQ(source_of(cfg, "crossbar"), KnobSource::kFlag);
  cfg = resolve_process({});
  EXPECT_EQ(cfg.crossbar, sched::CrossbarImpl::kMatrix);
  EXPECT_EQ(source_of(cfg, "crossbar"), KnobSource::kEnv);
}

TEST(TopologySpec, EnvReaderFallsBackAndRejects) {
  const ScopedEnv env("IBARB_TOPO");
  env.unset();
  EXPECT_EQ(resolve_process({}).topo.family(), "irregular");
  env.set("torus3d:x=3,y=3,z=3");
  const auto cfg = resolve_process({});
  EXPECT_EQ(cfg.topo.family(), "torus3d");
  EXPECT_EQ(source_of(cfg, "topo"), KnobSource::kEnv);
  env.set("nope");
  const std::string msg = rejection({});
  EXPECT_NE(msg.find("IBARB_TOPO"), std::string::npos) << msg;
}

TEST(RoutingRegistry, EnvSelectionAndRejection) {
  const ScopedEnv env("IBARB_ROUTING");
  env.unset();
  EXPECT_EQ(resolve_process({}).routing, "updown");
  env.set("fattree-dmodk");
  const auto cfg = resolve_process({});
  EXPECT_EQ(cfg.routing, "fattree-dmodk");
  EXPECT_EQ(source_of(cfg, "routing"), KnobSource::kEnv);
  env.set("bogus");
  const std::string msg = rejection({});
  EXPECT_NE(msg.find("IBARB_ROUTING"), std::string::npos) << msg;
}

// --topo and --routing are checked when the configuration is resolved,
// before any bench logic runs, and the error names the flag.

TEST(Cli, StdFlagsValidatesTopoAtParseTime) {
  const ScopedEnv env("IBARB_TOPO");
  env.unset();
  EXPECT_EQ(resolve_process({}).topo.canonical(),
            network::TopologySpec::parse("irregular").canonical());
  EXPECT_EQ(resolve_process({"--topo", "torus3d:x=3,y=3,z=3"}).topo.canonical(),
            network::TopologySpec::parse("torus3d:x=3,y=3,z=3").canonical());
  // Unknown family, unknown key, and bad value.
  for (const char* bad :
       {"hypercube", "torus3d:w=3", "torus3d:x=zero", "single:rate=3"}) {
    SCOPED_TRACE(bad);
    const std::string msg = rejection({"--topo", bad});
    EXPECT_NE(msg.find("--topo"), std::string::npos) << msg;
  }
}

TEST(Cli, StdFlagsValidatesRoutingAtParseTime) {
  const ScopedEnv env("IBARB_ROUTING");
  env.unset();
  EXPECT_EQ(resolve_process({}).routing, "updown");
  EXPECT_EQ(resolve_process({"--routing", "fattree-dmodk"}).routing,
            "fattree-dmodk");
  const std::string msg = rejection({"--routing", "ecmp"});
  EXPECT_NE(msg.find("--routing"), std::string::npos) << msg;
  EXPECT_NE(msg.find("updown|minimal-vl-escape|fattree-dmodk"),
            std::string::npos)
      << msg;
}

}  // namespace
}  // namespace ibarb::bench
