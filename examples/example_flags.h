#ifndef SPOT_EXAMPLES_EXAMPLE_FLAGS_H_
#define SPOT_EXAMPLES_EXAMPLE_FLAGS_H_

// Shared command-line handling for the example programs (mirrors
// bench/bench_util.h: one definition so the examples cannot drift apart).

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

namespace spot {
namespace examples {

/// Parses the `--threads N` flag every example accepts: N shard jobs per
/// ProcessBatch (SpotConfig::num_shards), run on the process's one pool
/// of CPUs - 1 workers. Verdicts are bit-identical at every count — it is
/// purely a throughput knob. Returns 1 when the flag is absent or
/// malformed. When `positional` is non-null it receives the remaining
/// (non-flag) arguments in order.
inline std::size_t ThreadsFlag(int argc, char** argv,
                               std::vector<std::string>* positional =
                                   nullptr) {
  std::size_t num_threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--threads" && i + 1 < argc) {
      value = argv[++i];
    } else if (arg.rfind("--threads=", 0) == 0) {
      value = arg.substr(sizeof("--threads=") - 1);
    } else {
      if (positional != nullptr) positional->push_back(arg);
      continue;
    }
    const std::size_t parsed = static_cast<std::size_t>(
        std::strtoull(value.c_str(), nullptr, 10));
    if (parsed > 0) num_threads = parsed;
  }
  return num_threads;
}

/// Extracts a `--<name> V` / `--<name>=V` string flag from `args` (the
/// positional list ThreadsFlag collected), removing every occurrence and
/// returning the last value, or `fallback` when absent. Lets examples
/// layer flags without re-scanning argv: ThreadsFlag first, then Take*Flag
/// on the remainder.
inline std::string TakeStringFlag(std::vector<std::string>* args,
                                  const std::string& name,
                                  std::string fallback = "") {
  const std::string prefix = "--" + name + "=";
  std::string value = std::move(fallback);
  for (std::size_t i = 0; i < args->size();) {
    const std::string& arg = (*args)[i];
    if (arg == "--" + name && i + 1 < args->size()) {
      value = (*args)[i + 1];
      args->erase(args->begin() + static_cast<long>(i),
                  args->begin() + static_cast<long>(i) + 2);
    } else if (arg.rfind(prefix, 0) == 0) {
      value = arg.substr(prefix.size());
      args->erase(args->begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  return value;
}

/// Presence flag: removes every bare `--<name>` from `args`, returning
/// true when at least one occurrence was found.
inline bool TakeBoolFlag(std::vector<std::string>* args,
                         const std::string& name) {
  const std::string flag = "--" + name;
  bool found = false;
  for (std::size_t i = 0; i < args->size();) {
    if ((*args)[i] == flag) {
      found = true;
      args->erase(args->begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  return found;
}

/// TakeStringFlag for non-negative integer flags; malformed or absent
/// values yield `fallback`.
inline std::size_t TakeSizeFlag(std::vector<std::string>* args,
                                const std::string& name,
                                std::size_t fallback) {
  const std::string text = TakeStringFlag(args, name);
  if (text.empty()) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return fallback;
  return static_cast<std::size_t>(parsed);
}

}  // namespace examples
}  // namespace spot

#endif  // SPOT_EXAMPLES_EXAMPLE_FLAGS_H_
