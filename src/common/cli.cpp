#include "common/cli.h"

#include <algorithm>
#include <stdexcept>

#include "common/error.h"

namespace vp {

CliArgs::CliArgs(int argc, const char* const* argv) {
  VP_REQUIRE(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw InvalidArgument("expected --option, got: " + token);
    }
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // --name value, unless the next token is another option (then a switch).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[token] = argv[++i];
    } else {
      values_[token] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("--" + name + " expects a number, got: " +
                          it->second);
  }
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("--" + name + " expects an integer, got: " +
                          it->second);
  }
}

std::uint64_t CliArgs::get_seed(const std::string& name,
                                std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("--" + name + " expects an unsigned integer, got: " +
                          it->second);
  }
}

std::string CliArgs::program_name() const {
  const auto slash = program_.find_last_of('/');
  return slash == std::string::npos ? program_ : program_.substr(slash + 1);
}

RunFlags parse_run_flags(const CliArgs& args, std::size_t default_threads) {
  RunFlags flags;
  const std::int64_t threads =
      args.get_int("threads", static_cast<std::int64_t>(default_threads));
  if (threads < 0) throw InvalidArgument("--threads must be >= 0");
  flags.threads = static_cast<std::size_t>(threads);
  flags.metrics_out = args.get("metrics-out", "");
  flags.trace_out = args.get("trace-out", "");
  flags.cond = args.get_bool("cond", false);
  flags.telemetry_out = args.get("telemetry-out", "");
  const std::int64_t every = args.get_int("telemetry-every", 1);
  if (every < 0) throw InvalidArgument("--telemetry-every must be >= 0");
  flags.telemetry_every_rounds = static_cast<std::uint64_t>(every);
  flags.telemetry_every_s = args.get_double("telemetry-every-s", 0.0);
  if (flags.telemetry_every_s < 0.0) {
    throw InvalidArgument("--telemetry-every-s must be >= 0");
  }
  flags.openmetrics_out = args.get("openmetrics-out", "");
  return flags;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "true" || v == "on" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "off" || v == "0" || v == "no") return false;
  throw InvalidArgument("--" + name + " expects a boolean, got: " + it->second);
}

}  // namespace vp
