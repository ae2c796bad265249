// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value`; unknown flags are reported.
// Deliberately tiny: the binaries only need a handful of numeric knobs.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ibarb::util {

/// The flag block every bench shares (parsed once via Cli::std_flags):
///   --jobs N            parallel sweep workers (0/absent = hw concurrency)
///   --json              machine-readable obs::Report to stdout (or --out)
///   --seed S            base RNG seed for the sweep
///   --trace-out F       write a Chrome trace_event JSON of run 0 to F
///   --sample-every C    sample telemetry every C simulated cycles into the
///                       report's "series" section (0/absent = off)
///   --series-csv DIR    also export run 0's series as CSV files into DIR
///   --profile           enable the wall-clock self-profiler (profile.*
///                       telemetry; nondeterministic, never byte-compared)
///   --quiet             suppress progress/timing chatter on stderr
///
/// Output-path flags (--trace-out, --series-csv) are validated up front: a
/// typo must fail at parse time instead of after the full run. The knobs of
/// a simulated experiment (--topo, --routing, --mtu, ...) are not in this
/// block: the paper benches resolve them in one table
/// (bench/paper_runner.hpp), and any other binary that is given one reports
/// it through warn_unused.
struct StdFlags {
  unsigned jobs = 1;
  bool json = false;
  std::uint64_t seed = 1;
  std::string trace_out;    ///< Empty = tracing disabled.
  std::uint64_t sample_every = 0;  ///< 0 = series recording disabled.
  std::string series_csv;   ///< Empty = no CSV export.
  bool profile = false;
  bool quiet = false;
};

class Cli {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (missing value, non-flag positional argument).
  Cli(int argc, const char* const* argv);

  bool has(std::string_view name) const;
  std::string get(std::string_view name, std::string default_value) const;
  std::int64_t get_int(std::string_view name, std::int64_t default_value) const;
  double get_double(std::string_view name, double default_value) const;
  bool get_bool(std::string_view name, bool default_value) const;

  /// `--name N` as a count >= `min` that fits T, or `default_value` when
  /// the flag is absent. Anything else (a sign, a fraction, a value out of
  /// range) throws std::invalid_argument naming the flag and its value, so
  /// a negative count can never wrap to ~4 billion.
  template <std::unsigned_integral T>
  T get_count(std::string_view name, T default_value, T min = 0) const {
    return static_cast<T>(count_in(name, default_value, min,
                                   std::numeric_limits<T>::max()));
  }

  /// Worker count from `--jobs N`, clamped to >= 1. The default (also used
  /// for `--jobs 0`) is the hardware concurrency, so sweeps use the whole
  /// machine unless told otherwise; `--jobs 1` forces the sequential path.
  unsigned jobs() const;

  /// Queries the standard bench flag block in one shot.
  StdFlags std_flags(std::uint64_t default_seed = 1) const;

  /// Flags that were supplied but never queried — typo detection.
  std::string unused_flags() const;

  /// Prints the standard "unknown flags" warning to `err` when any supplied
  /// flag was never queried. Call after all get_* calls, right before exit.
  void warn_unused(std::ostream& err) const;

 private:
  std::uint64_t count_in(std::string_view name, std::uint64_t default_value,
                         std::uint64_t min, std::uint64_t max) const;

  std::map<std::string, std::string, std::less<>> values_;
  mutable std::map<std::string, bool, std::less<>> queried_;
};

/// The entry point of every bench and example that takes flags: parses
/// argv and runs `body`. A bad flag value (std::invalid_argument, thrown by
/// the parser or by whatever the flags configure) prints "error: <reason>"
/// to stderr and returns exit status 2 instead of escaping main.
int run_main(int argc, const char* const* argv,
             const std::function<int(const Cli&)>& body);

}  // namespace ibarb::util
