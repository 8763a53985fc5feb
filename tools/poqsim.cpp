// poqsim — command-line driver for the poqnet simulators.
//
// Thin shell over the unified scenario API: every subcommand except
// `list` and `sweep` is a registry lookup (scenario::registry()), the
// option surface is generated from the protocol's declared knob schema,
// and results print as the uniform RunMetrics key=value pairs. Adding a
// protocol to the registry adds it to the CLI with zero changes here.
//
// Subcommands:
//   <protocol>   run one scenario (balancing, planned, hybrid, gossip,
//                distributed, fidelity, lp — see `poqsim list`)
//   list         registered protocols with their knobs
//   sweep        grid sweep through the parallel SweepRunner: the
//                --nodes axis times any --axes over frame fields or
//                declared knobs, table or JSON output
//
// Common options: --topology cycle|random-grid|full-grid|erdos-renyi|
// watts-strogatz|barabasi-albert, --nodes N, --seed S, --pairs P,
// --requests R. Run `poqsim <protocol> --help` for the knob list.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scenario/protocol.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace poq;

/// Historical subcommand spellings kept as aliases.
std::string canonical_protocol(const std::string& command) {
  if (command == "balance") return "balancing";
  return command;
}

/// Topology family parameters as CLI options: --topo-<name> sets the
/// spec's topology_params["<name>"]; validate_frame rejects parameters
/// the chosen family does not define.
constexpr const char* kTopologyParamNames[] = {"p", "k", "beta", "m"};

/// Fill the experiment frame from the common options. `sweep` owns the
/// --nodes axis itself (comma list), so it asks to skip that field.
scenario::ScenarioSpec parse_frame(const util::ArgParser& args,
                                   const std::string& protocol,
                                   bool read_nodes = true) {
  scenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.topology = args.get_string("topology", "random-grid");
  for (const char* name : kTopologyParamNames) {
    const std::string option = std::string("topo-") + name;
    if (args.has(option)) {
      spec.topology_params[name] = args.get_double(option, 0.0);
    }
  }
  if (read_nodes) {
    const std::int64_t nodes = args.get_int("nodes", 25);
    if (nodes < 1) {
      throw PreconditionError("--nodes must be positive (got " +
                              std::to_string(nodes) + ")");
    }
    spec.nodes = static_cast<std::size_t>(nodes);
  }
  const std::int64_t pairs = args.get_int("pairs", 35);
  if (pairs < 1) throw PreconditionError("--pairs must be positive");
  spec.consumer_pairs = static_cast<std::size_t>(pairs);
  const std::int64_t requests = args.get_int("requests", 200);
  if (requests < 1) throw PreconditionError("--requests must be positive");
  spec.requests = static_cast<std::size_t>(requests);
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return spec;
}

/// Forward every CLI option that names a declared knob into the overlay,
/// typed per the schema.
void parse_knobs(const util::ArgParser& args, const scenario::Protocol& protocol,
                 scenario::ScenarioSpec& spec) {
  for (const scenario::KnobSpec& knob : protocol.knobs()) {
    if (!args.has(knob.name)) continue;
    switch (knob.type) {
      case scenario::KnobType::kBool:
        spec.knobs[knob.name] = args.get_bool(knob.name, false);
        break;
      case scenario::KnobType::kInt:
        spec.knobs[knob.name] = args.get_int(knob.name, 0);
        break;
      case scenario::KnobType::kDouble:
        spec.knobs[knob.name] = args.get_double(knob.name, 0.0);
        break;
      case scenario::KnobType::kString:
        spec.knobs[knob.name] = args.get_string(knob.name, "");
        break;
    }
  }
}

void check_unused(const util::ArgParser& args) {
  const auto unused = args.unused();
  if (!unused.empty()) {
    throw PreconditionError("unknown option --" + unused.front());
  }
  if (!args.positional().empty()) {
    throw PreconditionError("unexpected argument '" + args.positional().front() +
                            "' (options are written --name value)");
  }
}

std::string scalar_text(double value) {
  if (value == std::floor(value) && std::abs(value) < 1.0e15) {
    return util::format_double(value, 0);
  }
  return util::format_double(value, 4);
}

/// Uniform key=value rendering of a run, a few pairs per line.
void print_metrics(const scenario::RunMetrics& metrics) {
  std::size_t on_line = 0;
  const auto emit = [&](const std::string& name, const std::string& value) {
    std::cout << name << '=' << value;
    if (++on_line == 4) {
      std::cout << '\n';
      on_line = 0;
    } else {
      std::cout << ' ';
    }
  };
  for (const auto& [name, value] : metrics.labels()) emit(name, value);
  for (const auto& [name, value] : metrics.scalars()) emit(name, scalar_text(value));
  for (const auto& [name, value] : metrics.timings()) {
    emit(name, util::format_double(value, 3));
  }
  if (on_line != 0) std::cout << '\n';
}

constexpr const char* kCommonOptionsHelp =
    "common options:\n"
    "  --topology F   cycle|random-grid|full-grid|erdos-renyi|\n"
    "                 watts-strogatz|barabasi-albert (default random-grid)\n"
    "  --topo-p X     erdos-renyi edge probability (default 2 ln n / n)\n"
    "  --topo-k K     watts-strogatz neighbours per side (default 2)\n"
    "  --topo-beta X  watts-strogatz rewiring probability (default 0.2)\n"
    "  --topo-m M     barabasi-albert edges per arrival (default 2)\n"
    "  --nodes N      node count (default 25; grid families need a\n"
    "                 perfect square >= 9)\n"
    "  --pairs P      consumer pairs (default 35, clamped to C(N,2))\n"
    "  --requests R   request backlog length (default 200)\n"
    "  --seed S       RNG seed (default 1)\n";

void print_protocol_help(const scenario::Protocol& protocol) {
  std::cout << "usage: poqsim " << protocol.name() << " [options]\n"
            << protocol.describe() << "\nknobs:\n";
  const std::vector<scenario::KnobSpec> knobs = protocol.knobs();
  std::size_t width = 0;
  for (const scenario::KnobSpec& knob : knobs) width = std::max(width, knob.name.size());
  for (const scenario::KnobSpec& knob : knobs) {
    std::cout << "  --" << util::pad_right(knob.name, width + 2) << knob.help
              << " (" << scenario::knob_type_name(knob.type) << ", default "
              << scenario::knob_value_text(knob.default_value) << ")\n";
  }
  std::cout << kCommonOptionsHelp;
}

int cmd_list(const util::ArgParser& args) {
  if (args.get_bool("json", false)) {
    check_unused(args);
    // Machine-readable listing: the same document the serve `list` op
    // returns, so tooling has one schema to parse.
    std::cout << scenario::registry_to_json(scenario::registry()).dump(2);
    return 0;
  }
  check_unused(args);
  for (const std::string& name : scenario::registry().names()) {
    const scenario::Protocol& protocol = scenario::registry().find(name);
    std::cout << util::pad_right(name, 14) << protocol.describe() << '\n';
  }
  return 0;
}

int cmd_run(const scenario::Protocol& protocol, const util::ArgParser& args) {
  scenario::ScenarioSpec spec = parse_frame(args, protocol.name());
  parse_knobs(args, protocol, spec);
  check_unused(args);
  print_metrics(scenario::registry().run(protocol.name(), spec));
  return 0;
}

/// `poqsim run --spec file.json`: fully file-driven experiments. The file
/// holds one ScenarioSpec as JSON (the same object `sweep --json` echoes
/// per cell), including the protocol, so an experiment is reproducible
/// from the file alone; --seed optionally overrides for replication.
scenario::ScenarioSpec load_spec_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw PreconditionError("cannot read spec file " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return scenario::ScenarioSpec::from_json(util::json::Value::parse(buffer.str()));
}

int cmd_run_spec(const util::ArgParser& args) {
  if (args.has("help")) {
    std::cout <<
        "usage: poqsim run --spec FILE.json [--seed S]\n"
        "Run the scenario described by a ScenarioSpec JSON file:\n"
        "  {\"protocol\": ..., \"topology\": ..., \"nodes\": ...,\n"
        "   \"consumer_pairs\": ..., \"requests\": ..., \"seed\": ...,\n"
        "   \"knobs\": {...}}  (+ optional \"topology_params\")\n"
        "  --spec FILE   the spec file (required)\n"
        "  --seed S      override the file's seed\n";
    return 0;
  }
  const std::string path = args.get_string("spec", "");
  if (path.empty()) throw PreconditionError("run: --spec FILE.json is required");
  scenario::ScenarioSpec spec = load_spec_file(path);
  if (args.has("seed")) {
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  }
  check_unused(args);
  print_metrics(scenario::registry().run(spec.protocol, spec));
  return 0;
}

std::size_t parse_positive_count(const std::string& item, const std::string& what) {
  // Digits only: std::stoull would accept "-9" (wrapping to ~1.8e19)
  // and silently ignore trailing garbage like "9junk".
  const bool digits = !item.empty() &&
                      item.find_first_not_of("0123456789") == std::string::npos;
  if (!digits || item.size() > 9) {
    throw PreconditionError(what + " entries must be positive integers (got '" +
                            item + "')");
  }
  const std::size_t value = std::stoull(item);
  if (value == 0) throw PreconditionError(what + " entries must be positive");
  return value;
}

std::vector<std::size_t> parse_node_list(const std::string& text) {
  std::vector<std::size_t> nodes;
  for (const std::string& field : util::split(text, ',')) {
    const std::string item(util::trim(field));
    if (item.empty()) continue;
    nodes.push_back(parse_positive_count(item, "--nodes"));
  }
  if (nodes.empty()) throw PreconditionError("--nodes list is empty");
  return nodes;
}

// ---------------------------------------------------------------------------
// Sweep axes: a sweep is a grid product over any spec fields, written
//   --axes "distillation=1,2,3;topology=cycle,full-grid"
// (--nodes LIST stays as the node-count axis). Frame fields (nodes,
// pairs, requests, seed, topology) apply to the spec frame; every other
// axis name must be a knob the protocol declares, and its values are
// parsed per the knob's declared type.
// ---------------------------------------------------------------------------

struct SweepAxis {
  std::string name;
  std::vector<std::string> values;  // raw texts, applied per cell
};

std::vector<SweepAxis> parse_axes(const std::string& text) {
  std::vector<SweepAxis> axes;
  for (const std::string& field : util::split(text, ';')) {
    const std::string entry(util::trim(field));
    if (entry.empty()) continue;
    const std::size_t equals = entry.find('=');
    if (equals == std::string::npos || equals == 0) {
      throw PreconditionError("--axes entries are written name=v1,v2,... (got '" +
                              entry + "')");
    }
    SweepAxis axis;
    axis.name = std::string(util::trim(entry.substr(0, equals)));
    for (const std::string& value : util::split(entry.substr(equals + 1), ',')) {
      const std::string item(util::trim(value));
      if (!item.empty()) axis.values.push_back(item);
    }
    if (axis.values.empty()) {
      throw PreconditionError("--axes axis '" + axis.name + "' has no values");
    }
    for (const SweepAxis& existing : axes) {
      if (existing.name == axis.name) {
        throw PreconditionError("--axes names axis '" + axis.name + "' twice");
      }
    }
    axes.push_back(std::move(axis));
  }
  if (axes.empty()) throw PreconditionError("--axes is empty");
  return axes;
}

/// The sweep grid's axes (`sweep` and `client sweep`): --nodes is the
/// outermost axis; --axes appends further ones.
std::vector<SweepAxis> sweep_axes(const util::ArgParser& args) {
  std::vector<SweepAxis> axes(1);
  axes[0].name = "nodes";
  for (const std::size_t n : parse_node_list(args.get_string("nodes", "9,16,25"))) {
    axes[0].values.push_back(std::to_string(n));
  }
  if (args.has("axes")) {
    for (SweepAxis& axis : parse_axes(args.get_string("axes", ""))) {
      if (axis.name == "nodes") {
        throw PreconditionError(
            "axis 'nodes' is owned by --nodes; list the counts there");
      }
      axes.push_back(std::move(axis));
    }
  }
  return axes;
}

scenario::KnobValue parse_knob_text(const scenario::KnobSpec& knob,
                                    const std::string& raw) {
  const auto fail = [&]() -> scenario::KnobValue {
    throw PreconditionError("axis '" + knob.name + "' expects " +
                            scenario::knob_type_name(knob.type) +
                            " values (got '" + raw + "')");
  };
  std::size_t used = 0;
  switch (knob.type) {
    case scenario::KnobType::kBool:
      if (raw == "true" || raw == "1") return true;
      if (raw == "false" || raw == "0") return false;
      return fail();
    case scenario::KnobType::kInt:
      try {
        const std::int64_t value = std::stoll(raw, &used);
        if (used != raw.size()) return fail();
        return value;
      } catch (const std::exception&) {
        return fail();
      }
    case scenario::KnobType::kDouble:
      try {
        const double value = std::stod(raw, &used);
        if (used != raw.size()) return fail();
        return value;
      } catch (const std::exception&) {
        return fail();
      }
    case scenario::KnobType::kString:
      return raw;
  }
  return fail();
}

void apply_axis_value(scenario::ScenarioSpec& spec,
                      const scenario::Protocol& protocol,
                      const std::string& name, const std::string& raw) {
  if (name == "nodes") {
    spec.nodes = parse_positive_count(raw, "axis nodes");
    return;
  }
  if (name == "pairs" || name == "consumer_pairs") {
    spec.consumer_pairs = parse_positive_count(raw, "axis pairs");
    return;
  }
  if (name == "requests") {
    spec.requests = parse_positive_count(raw, "axis requests");
    return;
  }
  if (name == "seed") {
    spec.seed = parse_positive_count(raw, "axis seed");
    return;
  }
  if (name == "topology") {
    (void)scenario::parse_topology_family(raw);  // validates, names families
    spec.topology = raw;
    return;
  }
  for (const char* param : kTopologyParamNames) {
    if (name != std::string("topo-") + param) continue;
    try {
      std::size_t used = 0;
      const double value = std::stod(raw, &used);
      if (used != raw.size()) throw std::invalid_argument(raw);
      spec.topology_params[param] = value;
    } catch (const std::exception&) {
      throw PreconditionError("axis '" + name + "' expects numeric values (got '" +
                              raw + "')");
    }
    return;
  }
  for (const scenario::KnobSpec& knob : protocol.knobs()) {
    if (knob.name == name) {
      spec.knobs[name] = parse_knob_text(knob, raw);
      return;
    }
  }
  throw PreconditionError(
      "axis '" + name + "' is neither a frame field (nodes, pairs, requests, "
      "seed, topology, topo-p/k/beta/m) nor a knob of protocol " +
      protocol.name());
}

/// Grid product in axis declaration order (last axis varies fastest).
std::vector<scenario::ScenarioSpec> build_axis_grid(
    const scenario::ScenarioSpec& base, const scenario::Protocol& protocol,
    const std::vector<SweepAxis>& axes) {
  std::vector<scenario::ScenarioSpec> grid{base};
  for (const SweepAxis& axis : axes) {
    std::vector<scenario::ScenarioSpec> expanded;
    expanded.reserve(grid.size() * axis.values.size());
    for (const scenario::ScenarioSpec& spec : grid) {
      for (const std::string& value : axis.values) {
        scenario::ScenarioSpec cell = spec;
        apply_axis_value(cell, protocol, axis.name, value);
        expanded.push_back(std::move(cell));
      }
    }
    grid = std::move(expanded);
  }
  return grid;
}

int cmd_sweep(const util::ArgParser& args) {
  if (args.has("help")) {
    std::cout <<
        "usage: poqsim sweep --protocol P [options] [protocol knobs]\n"
        "Run a grid sweep through the parallel SweepRunner. The grid is the\n"
        "product of the --nodes axis and every --axes axis.\n"
        "  --protocol P        registered protocol (default balancing)\n"
        "  --nodes LIST        node-count axis (default 9,16,25)\n"
        "  --axes \"a=1,2;b=x\"  extra axes over frame fields (nodes, pairs,\n"
        "                      requests, seed, topology) or declared knobs;\n"
        "                      values are typed per the knob schema\n"
        "  --seeds K           replications per cell (default 3)\n"
        "  --threads T         sweep pool threads (default: hardware)\n"
        "  --intra-threads K   intra-run threads per cell for ported\n"
        "                      protocols; auto pools divide by K (default 1)\n"
        "  --json              emit the aggregated cells as JSON\n"
        "  --metric M          table column metric (default overhead_paper)\n"
        "  --grid              pivot two axes into a 2-D table (rows x\n"
        "                      columns, like the paper figures); requires\n"
        "                      exactly two axes with more than one value\n"
              << kCommonOptionsHelp;
    return 0;
  }
  const std::string protocol_name =
      canonical_protocol(args.get_string("protocol", "balancing"));
  const scenario::Protocol& protocol = scenario::registry().find(protocol_name);
  const std::int64_t seeds = args.get_int("seeds", 3);
  if (seeds < 1 || seeds > 1000000) {
    throw PreconditionError("--seeds must be in [1, 1000000] (got " +
                            std::to_string(seeds) + ")");
  }
  const std::int64_t threads = args.get_int("threads", 0);
  if (threads < 0 || threads > 4096) {
    throw PreconditionError("--threads must be in [0, 4096] (got " +
                            std::to_string(threads) + ")");
  }
  const std::int64_t intra_threads = args.get_int("intra-threads", 1);
  if (intra_threads < 0 || intra_threads > 4096) {
    throw PreconditionError("--intra-threads must be in [0, 4096] (got " +
                            std::to_string(intra_threads) + ")");
  }
  scenario::SweepOptions options;
  options.seeds_per_cell = static_cast<std::uint32_t>(seeds);
  options.threads = static_cast<unsigned>(threads);
  options.intra_run_threads =
      intra_threads == 0 ? 0 : static_cast<unsigned>(intra_threads);
  const bool as_json = args.get_bool("json", false);
  const bool as_grid = args.get_bool("grid", false);
  const std::string metric = args.get_string("metric", "overhead_paper");
  if (as_json && as_grid) {
    throw PreconditionError("--grid renders a table; drop --json");
  }

  const std::vector<SweepAxis> axes = sweep_axes(args);

  scenario::ScenarioSpec base = parse_frame(args, protocol_name, false);
  parse_knobs(args, protocol, base);
  // `sweep` owns --threads as the pool size; the per-protocol 'threads'
  // knob (intra-run) is set via --intra-threads or a --axes axis, never
  // forwarded from --threads.
  base.knobs.erase("threads");
  check_unused(args);

  bool threads_axis = false;
  for (const SweepAxis& axis : axes) threads_axis |= axis.name == "threads";
  if (threads_axis && intra_threads != 1) {
    throw PreconditionError(
        "--intra-threads conflicts with a 'threads' axis in --axes; "
        "pick one source for the intra-run thread count");
  }

  std::vector<scenario::ScenarioSpec> grid = build_axis_grid(base, protocol, axes);
  if (intra_threads != 1 && !threads_axis) {
    scenario::apply_intra_run_threads(grid, static_cast<unsigned>(intra_threads));
  }
  const scenario::SweepRunner runner(options);
  const std::vector<scenario::CellAggregate> cells = runner.run(grid);

  if (as_json) {
    util::json::Value out = util::json::Value::array();
    for (const scenario::CellAggregate& cell : cells) out.push_back(cell.to_json());
    std::cout << out.dump(2);
    return 0;
  }
  if (as_grid) {
    // 2-D pivot, like the paper figures: the two axes with more than one
    // value become rows x columns; singleton axes are fixed context.
    std::vector<std::size_t> multi;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (axes[a].values.size() > 1) multi.push_back(a);
    }
    if (multi.size() != 2) {
      throw PreconditionError(
          "--grid needs exactly two axes with more than one value (got " +
          std::to_string(multi.size()) +
          "); pin the others to single values");
    }
    const SweepAxis& row_axis = axes[multi[0]];
    const SweepAxis& col_axis = axes[multi[1]];
    std::cout << metric << " (mean), " << row_axis.name << " rows x "
              << col_axis.name << " columns";
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (axes[a].values.size() == 1) {
        std::cout << ", " << axes[a].name << "=" << axes[a].values.front();
      }
    }
    std::cout << '\n';
    std::vector<std::string> header{row_axis.name + "\\" + col_axis.name};
    header.insert(header.end(), col_axis.values.begin(), col_axis.values.end());
    util::Table table(header);
    // Each (row, col) pair occurs exactly once in the grid product (the
    // other axes are singletons), so the odometer walk fills the matrix.
    std::vector<std::vector<std::string>> matrix(
        row_axis.values.size(),
        std::vector<std::string>(col_axis.values.size(), "n/a"));
    std::vector<std::size_t> cursor(axes.size(), 0);
    for (const scenario::CellAggregate& cell : cells) {
      if (cell.has(metric)) {
        matrix[cursor[multi[0]]][cursor[multi[1]]] =
            util::format_double(cell.at(metric).mean(), 4);
      }
      for (std::size_t a = axes.size(); a-- > 0;) {
        if (++cursor[a] < axes[a].values.size()) break;
        cursor[a] = 0;
      }
    }
    for (std::size_t r = 0; r < row_axis.values.size(); ++r) {
      std::vector<std::string> row{row_axis.values[r]};
      row.insert(row.end(), matrix[r].begin(), matrix[r].end());
      table.add_row(row);
    }
    table.print(std::cout);
    return 0;
  }
  std::vector<std::string> header;
  for (const SweepAxis& axis : axes) header.push_back(axis.name);
  header.insert(header.end(),
                {metric + " (mean)", "stddev", "runs", "wall_ms"});
  util::Table table(header);
  // Re-enumerate the axis products in grid order for the row labels.
  std::vector<std::size_t> cursor(axes.size(), 0);
  for (const scenario::CellAggregate& cell : cells) {
    std::vector<std::string> row;
    for (std::size_t a = 0; a < axes.size(); ++a) row.push_back(axes[a].values[cursor[a]]);
    const bool present = cell.has(metric);
    const util::RunningStats empty;
    const util::RunningStats& stats = present ? cell.at(metric) : empty;
    row.push_back(present ? util::format_double(stats.mean(), 4) : "n/a");
    row.push_back(present ? util::format_double(stats.stddev(), 4) : "n/a");
    row.push_back(std::to_string(stats.count()));
    row.push_back(util::format_double(cell.wall_ms, 1));
    table.add_row(row);
    // Odometer increment, last axis fastest (matches build_axis_grid).
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++cursor[a] < axes[a].values.size()) break;
      cursor[a] = 0;
    }
  }
  table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// serve / client: the long-running daemon and its reference client.
// ---------------------------------------------------------------------------

constexpr const char* kDefaultSocket = "/tmp/poqsim-serve.sock";

int cmd_serve(const util::ArgParser& args) {
  if (args.has("help")) {
    std::cout <<
        "usage: poqsim serve [--socket PATH] [--workers N] [--queue-depth D]\n"
        "                    [--sweep-threads T] [--job-timeout SECS]\n"
        "Long-running simulation server: accepts jobs over a local AF_UNIX\n"
        "socket speaking newline-delimited JSON (see `poqsim client`), with a\n"
        "bounded job queue, cooperative cancellation and live per-task\n"
        "progress events. Blocks until a client sends the shutdown op.\n"
        "  --socket PATH      socket file (default " << kDefaultSocket << ")\n"
        "  --workers N        concurrent jobs (default 1)\n"
        "  --queue-depth D    queued jobs before submits are rejected with\n"
        "                     code queue_full (default 8)\n"
        "  --sweep-threads T  sweep pool threads per sweep job (default 1;\n"
        "                     0 = hardware); each cell's intra-run threads\n"
        "                     are its own 'threads' knob, set by the client\n"
        "                     (`poqsim client sweep --threads K`)\n"
        "  --job-timeout SECS per-job wall-clock budget; a job running past\n"
        "                     it is cancelled and fails with error \"timeout\"\n"
        "                     (default 0 = no deadline)\n";
    return 0;
  }
  serve::ServerOptions options;
  options.socket_path = args.get_string("socket", kDefaultSocket);
  const std::int64_t workers = args.get_int("workers", 1);
  if (workers < 1 || workers > 256) {
    throw PreconditionError("--workers must be in [1, 256]");
  }
  options.workers = static_cast<unsigned>(workers);
  const std::int64_t depth = args.get_int("queue-depth", 8);
  if (depth < 1 || depth > 4096) {
    throw PreconditionError("--queue-depth must be in [1, 4096]");
  }
  options.queue_depth = static_cast<std::size_t>(depth);
  const std::int64_t sweep_threads = args.get_int("sweep-threads", 1);
  if (sweep_threads < 0 || sweep_threads > 4096) {
    throw PreconditionError("--sweep-threads must be in [0, 4096]");
  }
  options.sweep_threads = static_cast<unsigned>(sweep_threads);
  const double job_timeout = args.get_double("job-timeout", 0.0);
  if (job_timeout < 0.0 || job_timeout > 1.0e6) {
    throw PreconditionError("--job-timeout must be in [0, 1e6] seconds");
  }
  options.job_timeout = job_timeout;
  check_unused(args);
  serve::Server server(options);
  server.start();
  // Scripts wait for this line before connecting.
  std::cout << "poqsim serve: listening on " << options.socket_path
            << std::endl;
  server.wait();
  server.stop();
  std::cout << "poqsim serve: shut down\n";
  return 0;
}

/// Grid construction for `client sweep`: the same --nodes/--axes surface
/// as `poqsim sweep`, but the sweep executes inside the server.
std::vector<scenario::ScenarioSpec> build_client_grid(const util::ArgParser& args,
                                                      const std::string& name) {
  const scenario::Protocol& protocol = scenario::registry().find(name);
  const std::vector<SweepAxis> axes = sweep_axes(args);
  scenario::ScenarioSpec base = parse_frame(args, name, false);
  parse_knobs(args, protocol, base);
  return build_axis_grid(base, protocol, axes);
}

int cmd_client(const util::ArgParser& args) {
  if (args.has("help") || args.positional().empty()) {
    std::cout <<
        "usage: poqsim client <action> [options]\n"
        "Reference client for `poqsim serve`; prints the server's JSON reply\n"
        "(and, when watching, one event frame per line).\n"
        "actions:\n"
        "  submit    submit a run job: --spec FILE.json [--seed S] [--watch]\n"
        "  sweep     submit a sweep job: --protocol P --nodes LIST\n"
        "            [--axes \"a=1,2\"] [--seeds K] [--watch] + frame options\n"
        "  status    job table snapshot, or one job with --job N\n"
        "  watch     stream a job's events until it ends: --job N\n"
        "  cancel    request cancellation: --job N\n"
        "  reset     cancel everything and clear the job table\n"
        "  shutdown  stop the daemon\n"
        "  list      protocol/knob registry as JSON\n"
        "common: --socket PATH (default " << kDefaultSocket << ")\n"
        "        --retries N          retry transient failures (connect\n"
        "                             refused, queue_full) up to N times\n"
        "                             (default 0 = fail immediately)\n"
        "        --retry-base-ms MS   first retry delay; doubles per attempt,\n"
        "                             capped at 2000 ms (default 50)\n"
        "exit code: 0 on ok replies (and job_done/job_cancelled watches),\n"
        "1 on error replies, 2 when a watched job fails\n";
    return args.has("help") ? 0 : 1;
  }
  const std::string action = args.positional().front();
  if (args.positional().size() > 1) {
    throw PreconditionError("client: unexpected argument '" +
                            args.positional()[1] + "'");
  }
  using util::json::Value;
  Value request = Value::object();
  const bool watch = args.get_bool("watch", false);
  if (action == "submit") {
    const std::string path = args.get_string("spec", "");
    if (path.empty()) {
      throw PreconditionError("client submit: --spec FILE.json is required");
    }
    scenario::ScenarioSpec spec = load_spec_file(path);
    if (args.has("seed")) {
      spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    }
    request.set("op", "submit_run");
    request.set("spec", spec.to_json());
    request.set("watch", watch);
  } else if (action == "sweep") {
    const std::string protocol =
        canonical_protocol(args.get_string("protocol", "balancing"));
    const std::int64_t seeds = args.get_int("seeds", 3);
    if (seeds < 1 || seeds > 100000) {
      throw PreconditionError("--seeds must be in [1, 100000]");
    }
    Value grid = Value::array();
    for (const scenario::ScenarioSpec& cell : build_client_grid(args, protocol)) {
      grid.push_back(cell.to_json());
    }
    request.set("op", "submit_sweep");
    request.set("grid", std::move(grid));
    request.set("seeds_per_cell", static_cast<std::uint64_t>(seeds));
    request.set("watch", watch);
  } else if (action == "status" || action == "watch" || action == "cancel") {
    request.set("op", action);
    if (args.has("job")) {
      request.set("job", static_cast<std::uint64_t>(args.get_int("job", 0)));
    } else if (action != "status") {
      throw PreconditionError("client " + action + ": --job N is required");
    }
  } else if (action == "reset" || action == "shutdown" || action == "list") {
    request.set("op", action);
  } else {
    throw PreconditionError("client: unknown action '" + action +
                            "' (see `poqsim client --help`)");
  }
  const std::string socket = args.get_string("socket", kDefaultSocket);
  const std::int64_t retries = args.get_int("retries", 0);
  if (retries < 0 || retries > 1000) {
    throw PreconditionError("--retries must be in [0, 1000]");
  }
  const std::int64_t retry_base_ms = args.get_int("retry-base-ms", 50);
  if (retry_base_ms < 1 || retry_base_ms > 60000) {
    throw PreconditionError("--retry-base-ms must be in [1, 60000]");
  }
  {
    const auto unused = args.unused();
    if (!unused.empty()) {
      throw PreconditionError("unknown option --" + unused.front());
    }
  }

  // Transient failures — the daemon's socket not up yet, or a full job
  // queue — are retried with capped exponential backoff; every other
  // failure (and the final exhausted attempt) behaves exactly as with
  // --retries 0, so exit codes are unchanged.
  const auto backoff = [&](std::int64_t attempt) {
    const std::int64_t cap = 2000;
    std::int64_t delay = retry_base_ms;
    for (std::int64_t i = 0; i < attempt && delay < cap; ++i) delay *= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(std::min(delay, cap)));
  };
  std::unique_ptr<serve::Client> client;
  Value reply;
  for (std::int64_t attempt = 0;; ++attempt) {
    try {
      // A fresh Client per attempt: the frame reader must not carry bytes
      // of a half-dead connection into the next one.
      client = std::make_unique<serve::Client>(socket);
      client->connect();
      reply = client->request(request);
    } catch (const std::exception&) {
      if (attempt >= retries) throw;
      backoff(attempt);
      continue;
    }
    const bool transient = reply.is_object() && reply.contains("code") &&
                           reply.at("code").is_string() &&
                           reply.at("code").as_string() == "queue_full";
    if (transient && attempt < retries) {
      client->close();
      backoff(attempt);
      continue;
    }
    break;
  }
  std::cout << reply.dump() << '\n';
  if (!(reply.is_object() && reply.contains("ok") && reply.at("ok").is_bool() &&
        reply.at("ok").as_bool())) {
    return 1;
  }
  const bool streaming =
      action == "watch" || ((action == "submit" || action == "sweep") && watch);
  if (!streaming) return 0;
  const Value terminal = client->read_events(
      [](const Value& event) { std::cout << event.dump() << '\n'; });
  return terminal.at("event").as_string() == "job_failed" ? 2 : 0;
}

void print_usage() {
  std::cout << "usage: poqsim <subcommand> [options]\nprotocols:\n";
  for (const std::string& name : scenario::registry().names()) {
    std::cout << "  " << util::pad_right(name, 14)
              << scenario::registry().find(name).describe() << '\n';
  }
  std::cout <<
      "other subcommands:\n"
      "  list         registered protocols and their knobs (--json for machines)\n"
      "  run          run a ScenarioSpec JSON file (see `poqsim run --help`)\n"
      "  sweep        parallel grid sweep over any axes (see `poqsim sweep --help`)\n"
      "  serve        long-running job server on a local socket (see --help)\n"
      "  client       talk to a running server: submit/sweep/status/watch/\n"
      "               cancel/reset/shutdown/list (see `poqsim client --help`)\n"
      "common options: --topology <family> --nodes N --pairs P --requests R --seed S\n"
      "               --topo-p X --topo-k K --topo-beta X --topo-m M (family params)\n"
      "families: cycle random-grid full-grid erdos-renyi watts-strogatz barabasi-albert\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::string(argv[1]) == "--help") {
    print_usage();
    return argc < 2 ? 1 : 0;
  }
  try {
    const util::ArgParser args(argc - 1, argv + 1);
    const std::string command = canonical_protocol(argv[1]);
    if (command == "list") return cmd_list(args);
    if (command == "run") return cmd_run_spec(args);
    if (command == "sweep") return cmd_sweep(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "client") return cmd_client(args);
    if (!scenario::registry().contains(command)) {
      std::cerr << "unknown subcommand '" << command << "'\n";
      print_usage();
      return 1;
    }
    const scenario::Protocol& protocol = scenario::registry().find(command);
    if (args.has("help")) {
      print_protocol_help(protocol);
      return 0;
    }
    return cmd_run(protocol, args);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
