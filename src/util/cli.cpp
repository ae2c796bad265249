#include "util/cli.hpp"

#include <charconv>
#include <filesystem>
#include <iostream>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace ibarb::util {

namespace {

std::string strip_dashes(std::string_view arg) {
  std::size_t i = 0;
  while (i < arg.size() && arg[i] == '-') ++i;
  return std::string(arg.substr(i));
}

/// Output paths fail fast: a typo'd directory must be a startup error, not
/// a post-run surprise after minutes of simulation.
void require_writable_parent(std::string_view flag, const std::string& path) {
  if (path.empty()) return;
  const auto parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return;  // bare filename: the cwd always exists
  std::error_code ec;
  if (!std::filesystem::is_directory(parent, ec)) {
    throw std::invalid_argument(
        "flag --" + std::string(flag) + ": parent directory '" +
        parent.string() + "' does not exist (create it first)");
  }
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("unexpected positional argument: " +
                                  std::string(arg));
    }
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[strip_dashes(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[strip_dashes(arg)] = argv[++i];
    } else {
      values_[strip_dashes(arg)] = "true";  // bare flag → boolean
    }
  }
}

bool Cli::has(std::string_view name) const {
  queried_[std::string(name)] = true;
  return values_.find(name) != values_.end();
}

std::string Cli::get(std::string_view name, std::string default_value) const {
  queried_[std::string(name)] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(default_value) : it->second;
}

std::int64_t Cli::get_int(std::string_view name,
                          std::int64_t default_value) const {
  queried_[std::string(name)] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  std::int64_t out = 0;
  const auto& s = it->second;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw std::invalid_argument("flag --" + std::string(name) +
                                " expects an integer, got '" + s + "'");
  }
  return out;
}

double Cli::get_double(std::string_view name, double default_value) const {
  queried_[std::string(name)] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  try {
    std::size_t pos = 0;
    const double out = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument("trailing");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + std::string(name) +
                                " expects a number, got '" + it->second + "'");
  }
}

bool Cli::get_bool(std::string_view name, bool default_value) const {
  queried_[std::string(name)] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

unsigned Cli::jobs() const {
  const auto n = get_int("jobs", 0);
  if (n < 0) {
    throw std::invalid_argument("flag --jobs expects a count >= 0, got " +
                                std::to_string(n));
  }
  return n == 0 ? default_jobs() : static_cast<unsigned>(n);
}

StdFlags Cli::std_flags(std::uint64_t default_seed) const {
  StdFlags f;
  f.jobs = jobs();
  f.json = get_bool("json", false);
  const auto seed = get_int("seed", static_cast<std::int64_t>(default_seed));
  if (seed < 0) {
    throw std::invalid_argument("flag --seed expects a value >= 0, got " +
                                std::to_string(seed));
  }
  f.seed = static_cast<std::uint64_t>(seed);
  f.trace_out = get("trace-out", "");
  require_writable_parent("trace-out", f.trace_out);
  const auto sample = get_int("sample-every", 0);
  if (sample < 0) {
    throw std::invalid_argument(
        "flag --sample-every expects a cycle count >= 0, got " +
        std::to_string(sample));
  }
  f.sample_every = static_cast<std::uint64_t>(sample);
  f.series_csv = get("series-csv", "");
  require_writable_parent("series-csv", f.series_csv);
  f.profile = get_bool("profile", false);
  f.quiet = get_bool("quiet", false);
  return f;
}

void Cli::warn_unused(std::ostream& err) const {
  const auto unused = unused_flags();
  if (!unused.empty()) err << "warning: unused flags " << unused << "\n";
}

std::string Cli::unused_flags() const {
  std::string out;
  for (const auto& [name, value] : values_) {
    if (!queried_.contains(name)) {
      if (!out.empty()) out += ", ";
      out += "--" + name;
    }
  }
  return out;
}

int run_main(int argc, const char* const* argv,
             const std::function<int(const Cli&)>& body) {
  try {
    const Cli cli(argc, argv);
    return body(cli);
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace ibarb::util
