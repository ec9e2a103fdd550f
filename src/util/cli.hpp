// Minimal command-line flag parsing for example and bench binaries.
//
// Supports --name value and --name=value forms plus boolean switches.
// Unknown flags are an error so typos in experiment scripts fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sent::util {

class Cli {
 public:
  /// Declare flags before parse(). `help` is printed by usage().
  void add_flag(const std::string& name, const std::string& help,
                const std::string& default_value);
  void add_switch(const std::string& name, const std::string& help);

  /// Parse argv. Returns false (after printing usage) on --help or error.
  bool parse(int argc, const char* const* argv);

  std::string usage(const std::string& program) const;

  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  /// get_int that additionally rejects negative values with a usage error.
  /// Count-like flags (--jobs, --runs) use this so "--jobs -3" exits 2
  /// instead of wrapping to a huge unsigned count.
  std::int64_t get_nonneg_int(const std::string& name) const;
  /// get_int that rejects values below 1 with a usage error, for counts
  /// whose consumer needs at least one (--runs, --top-k, --streams).
  std::int64_t get_positive_int(const std::string& name) const;
  /// A finite number: NaN and infinities are usage errors, so no flag can
  /// reach a comparison that NaN silently fails (a gate's floor) or a cast
  /// to cycles that infinity overflows.
  double get_double(const std::string& name) const;
  /// get_double that rejects values at or below 0 (durations, widths,
  /// scales).
  double get_positive_double(const std::string& name) const;
  /// get_double that rejects negative values (intensities, and floors
  /// where 0 switches the check off).
  double get_nonneg_double(const std::string& name) const;
  /// get_double that rejects values outside [0, 1] (probabilities).
  double get_probability(const std::string& name) const;
  /// A duration flag on a clock of `cycles_per_second`, in seconds or, with
  /// units_per_second = 1e3, in milliseconds: a usage error unless it is at
  /// least one cycle and its cycle count fits 64 bits, so the simulator's
  /// cast to cycles can neither yield 0 nor overflow. Every duration flag
  /// goes through this reader.
  double get_duration(const std::string& name, double cycles_per_second,
                      double units_per_second = 1.0) const;
  bool get_switch(const std::string& name) const;

 private:
  struct Flag {
    std::string help;
    std::string value;
    bool is_switch = false;
    bool set = false;
  };
  std::map<std::string, Flag> flags_;
  std::string error_;
};

}  // namespace sent::util
