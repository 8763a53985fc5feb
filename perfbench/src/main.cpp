// poqbench — perfbench's benchmark binary (run it through perfbench/run.py,
// which builds it first).
//
//   poqbench --workload serve_converge|serve_paper --seed N
//            --seconds S --trace 0|1 --poqsim PATH --work-dir DIR
//
// Prints a readable summary, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit code 0 when every output check passed, 1 when one failed (the
// result line is still printed), 2 on a usage or set-up error (no
// result line).
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --name value pairs, got '" + flag + "'");
    }
    values[flag.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const std::string& name) {
    const auto it = values.find(name);
    if (it == values.end()) throw std::invalid_argument("missing --" + name);
    std::string value = it->second;
    values.erase(it);
    return value;
  };
  Options options;
  options.workload = take("workload");
  options.seed = std::stoull(take("seed"));
  options.seconds = std::stod(take("seconds"));
  options.trace = take("trace") == "1";
  options.poqsim = take("poqsim");
  options.work_dir = take("work-dir");
  if (!values.empty()) throw std::invalid_argument("unknown option --" + values.begin()->first);
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
    throw std::invalid_argument("--seconds must be in (0, 60]");
  }
  options.cores = std::max(1u, std::thread::hardware_concurrency());
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Report report;
  try {
    const Options options = parse_options(argc, argv);
    if (options.workload == "serve_converge") {
      report = perfbench::run_served(options, perfbench::converge_deck(),
                                     perfbench::kConvergeTailPercentile);
    } else if (options.workload == "serve_paper") {
      report = perfbench::run_served(options, perfbench::paper_deck(),
                                     perfbench::kPaperTailPercentile);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload + "'");
    }
  } catch (const std::exception& error) {
    std::cerr << "poqbench: " << error.what() << '\n';
    return 2;
  }

  using poq::util::json::Value;
  Value metrics = Value::object();
  for (const std::string& note : report.notes) std::cout << note << '\n';
  for (const perfbench::Metric& metric : report.metrics) {
    std::cout << "  " << std::left << std::setw(36) << metric.name << ' '
              << std::setprecision(6) << metric.value << ' ' << metric.unit << '\n';
    if (!std::isfinite(metric.value)) {
      std::cerr << "poqbench: metric " << metric.name << " is not finite\n";
      report.correct = false;
    }
    Value entry = Value::object();
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    metrics.set(metric.name, std::move(entry));
  }
  Value line = Value::object();
  line.set("correct", report.correct);
  line.set("attempted", report.attempted);
  line.set("failed", report.failed);
  line.set("metrics", std::move(metrics));
  std::cout << line.dump() << std::endl;
  return report.correct ? 0 : 1;
}
