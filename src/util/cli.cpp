#include "util/cli.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"

namespace sent::util {

void Cli::add_flag(const std::string& name, const std::string& help,
                   const std::string& default_value) {
  SENT_REQUIRE(!flags_.count(name));
  flags_[name] = Flag{help, default_value, /*is_switch=*/false, false};
}

void Cli::add_switch(const std::string& name, const std::string& help) {
  SENT_REQUIRE(!flags_.count(name));
  flags_[name] = Flag{help, "false", /*is_switch=*/true, false};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s",
                   arg.c_str(), usage(argv[0]).c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (it->second.is_switch) {
      it->second.value = has_value ? value : "true";
    } else {
      if (!has_value) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
          return false;
        }
        value = argv[++i];
      }
      it->second.value = value;
    }
    it->second.set = true;
  }
  return true;
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    if (!flag.is_switch) os << " <value> (default: " << flag.value << ")";
    os << "\n      " << flag.help << '\n';
  }
  return os.str();
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  SENT_REQUIRE_MSG(it != flags_.end(), "undeclared flag " << name);
  return it->second.value;
}

namespace {

// A bad value in a script (--jobs=abc) is a usage error, not a programming
// error: report it with the flag's name and exit cleanly instead of letting
// std::stoll's invalid_argument terminate the process.
[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  std::fprintf(stderr, "flag --%s expects %s, got '%s'\n", name.c_str(),
               expected, value.c_str());
  std::exit(2);
}

}  // namespace

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string value = get(name);
  try {
    std::size_t pos = 0;
    std::int64_t v = std::stoll(value, &pos);
    if (pos != value.size()) bad_value(name, value, "an integer");
    return v;
  } catch (const std::logic_error&) {
    bad_value(name, value, "an integer");
  }
}

std::int64_t Cli::get_nonneg_int(const std::string& name) const {
  const std::int64_t v = get_int(name);
  if (v < 0) bad_value(name, get(name), "a non-negative integer");
  return v;
}

std::int64_t Cli::get_positive_int(const std::string& name) const {
  const std::int64_t v = get_int(name);
  if (v < 1) bad_value(name, get(name), "a positive integer");
  return v;
}

double Cli::get_double(const std::string& name) const {
  const std::string value = get(name);
  try {
    std::size_t pos = 0;
    double v = std::stod(value, &pos);
    if (pos != value.size()) bad_value(name, value, "a number");
    if (!std::isfinite(v)) bad_value(name, value, "a finite number");
    return v;
  } catch (const std::logic_error&) {
    bad_value(name, value, "a number");
  }
}

double Cli::get_positive_double(const std::string& name) const {
  const double v = get_double(name);
  if (v <= 0.0) bad_value(name, get(name), "a positive number");
  return v;
}

double Cli::get_nonneg_double(const std::string& name) const {
  const double v = get_double(name);
  if (v < 0.0) bad_value(name, get(name), "a non-negative number");
  return v;
}

double Cli::get_probability(const std::string& name) const {
  const double v = get_double(name);
  if (v < 0.0 || v > 1.0) bad_value(name, get(name), "a number in [0, 1]");
  return v;
}

double Cli::get_duration(const std::string& name, double cycles_per_second,
                         double units_per_second) const {
  const double v = get_double(name);
  // The arithmetic of sim::cycles_from_seconds(v / units_per_second); 2^64
  // is the first cycle count its cast cannot hold.
  const double cycles = v / units_per_second * cycles_per_second;
  if (!(cycles >= 1.0 && cycles < 0x1p64))
    bad_value(name, get(name), "a duration of 1 to 2^64-1 clock cycles");
  return v;
}

bool Cli::get_switch(const std::string& name) const {
  return get(name) == "true";
}

}  // namespace sent::util
