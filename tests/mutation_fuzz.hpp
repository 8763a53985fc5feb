// Seeded mutation fuzzing for the parsers that read outside input: spec
// files, serve frames and the JSON under both. There is no libFuzzer in
// a g++ toolchain, so the fuzzer is a gtest helper: valid inputs (the
// example spec files and serve request frames) are edited by seeded byte
// flips, inserts, deletes and truncations, and every mutant must either
// parse or throw a std::exception. A crash, a hang or a sanitizer report
// fails the suite; the seed makes every failure replayable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace poq::fuzz {

/// The text of every examples/specs/*.json file, in file-name order.
inline std::vector<std::string> example_specs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(POQNET_SOURCE_DIR "/examples/specs")) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    std::ifstream file(path);
    std::ostringstream text;
    text << file.rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

/// One valid frame of every serve op, the submits carrying the example
/// specs, each without its '\n' terminator.
inline std::vector<std::string> serve_frames() {
  std::vector<std::string> frames = {
      R"({"op":"status","id":"s1"})",
      R"({"op":"list"})",
      R"({"op":"reset"})",
      R"({"op":"shutdown","id":"bye"})",
      R"({"op":"watch","job":3})",
      R"({"op":"cancel","job":12,"id":"c"})",
  };
  std::string grid;
  for (const std::string& spec : example_specs()) {
    frames.push_back(R"({"op":"submit_run","watch":true,"spec":)" + spec + "}");
    grid += (grid.empty() ? "" : ",") + spec;
  }
  frames.push_back(R"({"op":"submit_sweep","seeds_per_cell":3,"grid":[)" + grid + "]}");
  return frames;
}

/// `input` after one to four seeded edits. An edit flips one bit of a
/// byte, inserts a byte (half the time one that JSON gives meaning to),
/// deletes a run of up to eight bytes, or truncates.
inline std::string mutate(std::string input, util::Rng& rng) {
  constexpr std::string_view kJsonBytes = "{}[]\",:-+.eE0123456789\\u \n";
  const std::size_t edits = 1 + rng.uniform_index(4);
  for (std::size_t edit = 0; edit < edits; ++edit) {
    const std::size_t at = rng.uniform_index(input.size() + 1);
    switch (rng.uniform_index(4)) {
      case 0:
        if (at < input.size()) input[at] ^= static_cast<char>(1 << rng.uniform_index(8));
        break;
      case 1:
        input.insert(at, 1,
                     rng.bernoulli(0.5) ? kJsonBytes[rng.uniform_index(kJsonBytes.size())]
                                        : static_cast<char>(rng.uniform_index(256)));
        break;
      case 2:
        input.erase(at, 1 + rng.uniform_index(8));
        break;
      default:
        input.resize(at);
        break;
    }
  }
  return input;
}

/// How many mutants parsed and how many were refused.
struct FuzzTally {
  std::size_t parsed = 0;
  std::size_t refused = 0;
};

/// Feed `per_input` seeded mutants of every input to `parse`. A mutant
/// that throws a std::exception is refused; any other way out of `parse`
/// fails the test.
template <typename Parse>
FuzzTally fuzz_inputs(const std::vector<std::string>& inputs, std::uint64_t seed,
                      std::size_t per_input, Parse&& parse) {
  util::Rng rng(seed);
  FuzzTally tally;
  for (const std::string& input : inputs) {
    for (std::size_t i = 0; i < per_input; ++i) {
      const std::string mutant = mutate(input, rng);
      try {
        parse(mutant);
        ++tally.parsed;
      } catch (const std::exception&) {
        ++tally.refused;
      }
    }
  }
  return tally;
}

}  // namespace poq::fuzz
