// gen_cli_docs — generate docs/CLI.md from the protocol registry.
//
// The poqsim option surface is generated from each protocol's declared
// knob schema, so the markdown CLI reference is generated from the same
// source of truth: this tool renders the registry (protocol list, knob
// tables, common options) to markdown. `--check FILE` re-renders and
// fails if FILE differs — the `docs.cli.up_to_date` CTest (and CI) run it
// so the committed docs/CLI.md can never drift from the schemas.
//
// Usage: gen_cli_docs [--out FILE | --check FILE]
//   (no flags)   print the markdown to stdout
//   --out FILE   write the markdown to FILE
//   --check FILE exit 1 if FILE is missing or differs from the render
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "scenario/protocol.hpp"
#include "util/args.hpp"
#include "util/error.hpp"

namespace {

using namespace poq;

/// Escape a knob help string for a markdown table cell.
std::string cell_text(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '|') out += "\\|";
    else out += c;
  }
  return out;
}

std::string render() {
  std::ostringstream out;
  out << "# poqsim CLI reference\n"
         "\n"
         "> Generated by `tools/gen_cli_docs` from the protocol registry —\n"
         "> do not edit by hand. Regenerate with\n"
         "> `./build/gen_cli_docs --out docs/CLI.md`; the\n"
         "> `docs.cli.up_to_date` test fails when this file drifts from the\n"
         "> knob schemas.\n"
         "\n"
         "`poqsim` is a thin shell over `scenario::registry()`: every\n"
         "protocol is a subcommand whose options are generated from its\n"
         "declared knob schema. `balance` is kept as an alias for\n"
         "`balancing`.\n"
         "\n"
         "## Common options (every protocol subcommand)\n"
         "\n"
         "| Option | Default | Description |\n"
         "|---|---|---|\n"
         "| `--topology F` | `random-grid` | `cycle`, `random-grid`, "
         "`full-grid`, `erdos-renyi`, `watts-strogatz`, `barabasi-albert` |\n"
         "| `--nodes N` | `25` | node count (grid families need a perfect "
         "square >= 9) |\n"
         "| `--pairs P` | `35` | consumer pairs (clamped to C(N,2)) |\n"
         "| `--requests R` | `200` | request backlog length |\n"
         "| `--seed S` | `1` | RNG seed |\n"
         "\n"
         "## Protocols\n"
         "\n"
         "| Subcommand | Description |\n"
         "|---|---|\n";
  for (const std::string& name : scenario::registry().names()) {
    out << "| [`" << name << "`](#poqsim-" << name << ") | "
        << cell_text(scenario::registry().find(name).describe()) << " |\n";
  }
  for (const std::string& name : scenario::registry().names()) {
    const scenario::Protocol& protocol = scenario::registry().find(name);
    out << "\n### poqsim " << name << "\n\n"
        << protocol.describe() << "\n\n"
           "| Knob | Type | Default | Description |\n"
           "|---|---|---|---|\n";
    for (const scenario::KnobSpec& knob : protocol.knobs()) {
      out << "| `--" << knob.name << "` | "
          << scenario::knob_type_name(knob.type) << " | `"
          << scenario::knob_value_text(knob.default_value) << "` | "
          << cell_text(knob.help) << " |\n";
    }
  }
  out << "\n## poqsim sweep\n"
         "\n"
         "Grid sweeps through the parallel `SweepRunner`. The grid is the\n"
         "product of the `--nodes` axis and every axis named in `--axes`;\n"
         "axis names are frame fields (`nodes`, `pairs`, `requests`,\n"
         "`seed`, `topology`) or any knob the chosen protocol declares\n"
         "(values are typed per the knob schema).\n"
         "\n"
         "| Option | Default | Description |\n"
         "|---|---|---|\n"
         "| `--protocol P` | `balancing` | registered protocol |\n"
         "| `--nodes LIST` | `9,16,25` | node-count axis |\n"
         "| `--axes \"a=1,2;b=x\"` | — | extra grid axes (product) |\n"
         "| `--seeds K` | `3` | replications per cell (`seed + r`) |\n"
         "| `--threads T` | `0` (hardware) | sweep pool threads |\n"
         "| `--intra-threads K` | `1` | intra-run threads per cell for the\n"
         "ported protocols (`0` = hardware); auto-sized pools divide the\n"
         "hardware budget by K so the two parallelism levels compose |\n"
         "| `--json` | off | emit aggregated cells as JSON |\n"
         "| `--metric M` | `overhead_paper` | table column metric |\n"
         "\n"
         "Aggregation order is fixed by (cell, replication), so sweep\n"
         "results are bit-identical for any `--threads`/`--intra-threads`\n"
         "setting. `0` always means \"resolve to the hardware thread\n"
         "count\" — for the sweep pool, for the per-run `--threads` knob\n"
         "and for `poqsim serve --sweep-threads`; negative values are\n"
         "rejected everywhere.\n"
         "\n"
         "## Other subcommands\n"
         "\n"
         "| Subcommand | Description |\n"
         "|---|---|\n"
         "| `poqsim list` | registered protocols with their knobs |\n"
         "| `poqsim list --json` | the same registry as machine-readable JSON |\n"
         "| `poqsim serve` | long-running daemon: job queue, admission control, live metric streaming over an AF_UNIX socket; `--job-timeout SECS` fails jobs past a per-job deadline with `\"error\":\"timeout\"` |\n"
         "| `poqsim client` | reference client for the serve protocol (submit/sweep/status/watch/cancel/reset/shutdown/list); `--retries N`/`--retry-base-ms MS` retry connect failures and `queue_full` with capped exponential backoff |\n"
         "| `poqsim <protocol> --help` | generated knob list |\n"
         "\n"
         "The serve wire protocol (newline-delimited JSON frames) and the\n"
         "daemon's threading/cancellation model are documented in\n"
         "[ARCHITECTURE.md](ARCHITECTURE.md).\n"
         "\n"
         "For the bench driver (`run_benches`, the `BENCH_*.json` schema\n"
         "and the regression gates) see [BENCHMARKS.md](BENCHMARKS.md).\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);  // skips argv[0] itself
    const std::string out_path = args.get_string("out", "");
    const std::string check_path = args.get_string("check", "");
    const auto unused = args.unused();
    if (!unused.empty()) {
      throw PreconditionError("unknown option --" + unused.front());
    }
    if (!out_path.empty() && !check_path.empty()) {
      throw PreconditionError("--out and --check are mutually exclusive");
    }
    const std::string markdown = render();
    if (!check_path.empty()) {
      std::ifstream file(check_path);
      if (!file) {
        std::cerr << "DOCS FAIL: cannot read " << check_path << '\n';
        return 1;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      if (buffer.str() != markdown) {
        std::cerr << "DOCS FAIL: " << check_path
                  << " is out of date; regenerate with gen_cli_docs --out "
                  << check_path << '\n';
        return 1;
      }
      std::cout << "DOCS PASS: " << check_path << " matches the registry\n";
      return 0;
    }
    if (!out_path.empty()) {
      std::ofstream file(out_path);
      if (!file) throw PreconditionError("cannot write " + out_path);
      file << markdown;
      std::cout << "wrote " << out_path << '\n';
      return 0;
    }
    std::cout << markdown;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
