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
    std::string want;  ///< Canonical spec or engine name.
    KnobSource source;
  };
  const auto spec = [](const char* s) {
    return network::TopologySpec::parse(s).canonical();
  };
  const Case cases[] = {
      {{}, {}, "topo", spec("irregular"), KnobSource::kDefault},
      {{}, {{"IBARB_TOPO", ""}}, "topo", spec("irregular"),
       KnobSource::kDefault},
      {{}, {{"IBARB_TOPO", "torus3d:x=3,y=3,z=3"}}, "topo",
       spec("torus3d:x=3,y=3,z=3"), KnobSource::kEnv},
      {{"--topo", "fattree:k=4,n=2"}, {{"IBARB_TOPO", "torus3d:x=3,y=3,z=3"}},
       "topo", spec("fattree:k=4,n=2"), KnobSource::kFlag},
      {{}, {}, "routing", "updown", KnobSource::kDefault},
      {{}, {{"IBARB_ROUTING", "minimal-vl-escape"}}, "routing",
       "minimal-vl-escape", KnobSource::kEnv},
      {{"--routing", "fattree-dmodk"}, {{"IBARB_ROUTING", "minimal-vl-escape"}},
       "routing", "fattree-dmodk", KnobSource::kFlag},
      // A flag wins without the env value being looked at.
      {{"--routing=updown"}, {{"IBARB_ROUTING", "bogus"}}, "routing",
       "updown", KnobSource::kFlag},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("case " + std::to_string(&c - cases));
    const auto cfg = resolve(c.args, c.env);
    const std::string got =
        c.knob == "topo" ? cfg.topo.canonical() : cfg.routing;
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
  EXPECT_EQ(source_of(PaperRunConfig{}, "topo"), KnobSource::kDefault);
  EXPECT_THROW((void)source_of(cfg, "jobs"), std::invalid_argument);

  // A knob the bench sets itself per run is not read: its flag stays unused
  // and its source is `bench`.
  const char* argv[] = {"bench", "--mtu", "1024"};
  const util::Cli cli(3, argv);
  const auto no_env = [](const char*) -> const char* { return nullptr; };
  const auto by_bench = config_from_cli(cli, {}, {"mtu"}, no_env);
  EXPECT_EQ(by_bench.mtu, iba::Mtu::kMtu256);
  EXPECT_EQ(source_of(by_bench, "mtu"), KnobSource::kBench);
  EXPECT_EQ(cli.unused_flags(), "--mtu");
}

TEST(RunConfigTable, RejectsBadValuesNamingKnobOriginAndValidSet) {
  struct Case {
    std::vector<const char*> args;
    Env env;
    std::vector<const char*> said;  ///< Substrings the message must hold.
  };
  const char* families = "irregular|single|line";
  const char* engines = "updown|minimal-vl-escape|fattree-dmodk";
  const Case cases[] = {
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

/// The config block echo_config writes for `cfg`.
std::string echoed(const PaperRunConfig& cfg) {
  obs::Report report("run_config");
  echo_config(report, cfg);
  std::ostringstream os;
  report.write(os);
  return os.str();
}

TEST(RunConfigTable, ReportEchoesResolvedCrossbarAndEverySource) {
  std::string json = echoed(resolve({"--routing", "minimal-vl-escape",
                                     "--switches", "8"},
                                    {{"IBARB_TOPO", "irregular:seed=5"}}));
  for (const char* kv :
       {"\"routing\":\"minimal-vl-escape\"", "\"routing_source\":\"flag\"",
        "\"switches_source\":\"flag\"", "\"topo_source\":\"env\"",
        "\"topo\":\"irregular:switches=8,", "\"mtu_bytes\":256",
        "\"mtu_source\":\"default\"", "\"seed_source\":",
        "\"packets_source\":", "\"warmup_source\":",
        "\"besteffort_load_source\":"})
    EXPECT_NE(json.find(kv), std::string::npos) << kv << " in " << json;
  EXPECT_EQ(json.find("crossbar"), std::string::npos) << json;

  // A knob the bench sets per run echoes its source as `bench` and no
  // value: the base config's would name no run (fig4 runs 256 B and 4 KB).
  // A bench-set best-effort load is the value of every run and is echoed.
  const char* argv[] = {"bench", "--json"};
  const util::Cli cli(2, argv);
  const auto no_env = [](const char*) -> const char* { return nullptr; };
  json = echoed(config_from_cli(cli, {}, {"mtu", "besteffort-load"}, no_env));
  EXPECT_NE(json.find("\"mtu_source\":\"bench\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"mtu_bytes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"switches\":16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"besteffort_load_source\":\"bench\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"besteffort_load\":0.1"), std::string::npos) << json;

  // Scaling sets the size of the paper's fabric per run: neither the
  // switch count nor a sized topology spec is echoed.
  json = echoed(config_from_cli(cli, {}, {"switches"}, no_env));
  EXPECT_NE(json.find("\"switches_source\":\"bench\""), std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"switches\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"topo\":\"irregular\""), std::string::npos) << json;
}

TEST(RunConfigTable, LeavesRemovedCrossbarFlagUnused) {
  // wrr is the only crossbar scheduler (EXPERIMENTS.md, E13), so the knob
  // that chose one is gone: a leftover flag is reported like any typo, and
  // no environment variable but the topology's and routing's is read,
  // whatever the others hold.
  const char* argv[] = {"bench", "--crossbar", "islip"};
  const util::Cli cli(3, argv);
  const auto cfg = config_from_cli(
      cli, {}, {}, [](const char* name) -> const char* {
        const std::string_view n(name);
        return n == "IBARB_TOPO" || n == "IBARB_ROUTING" ? nullptr : "bogus";
      });
  EXPECT_EQ(cli.unused_flags(), "--crossbar");
  EXPECT_THROW((void)source_of(cfg, "crossbar"), std::invalid_argument);
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
  static constexpr std::array<const char*, 2> kVars = {"IBARB_TOPO",
                                                      "IBARB_ROUTING"};
  const char* name_;
  std::array<std::optional<std::string>, 2> saved_;
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
