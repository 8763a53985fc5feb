// §3.2 physics bridge: deriving the abstract D_{x,y} from link fidelity.
//
// The paper treats D as a free parameter ("an expected number D_{x,y} of
// distillations"). This walkthrough grounds it: for raw link fidelities and
// target fidelities, it computes the expected raw-pair overhead of nested
// BBPSSW and of entanglement pumping, the end-to-end fidelity of swap
// chains without distillation, and the storage budget decoherence allows
// — the quantities that motivate Fig. 4's D sweep.
//
//   ./build/distillation_cost
#include <iostream>
#include <string>

#include "quantum/distillation.hpp"
#include "quantum/werner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace poq;

  std::cout << "Deriving the paper's D from physics (nested BBPSSW vs "
               "pumping)\n\n";
  util::Table cost({"raw F", "target F", "D (nested)", "rounds", "D (pumping)",
                    "out F"});
  for (const double raw : {0.80, 0.85, 0.90, 0.95, 0.99}) {
    for (const double target : {0.90, 0.95, 0.99}) {
      const quantum::DistillationCost nested =
          quantum::nested_distillation_cost(raw, target);
      const quantum::DistillationCost pumped = quantum::pumping_cost(raw, target);
      cost.add_row({util::format_double(raw, 2), util::format_double(target, 2),
                    nested.reachable
                        ? util::format_double(nested.expected_raw_pairs, 2)
                        : "unreachable",
                    nested.reachable ? std::to_string(nested.rounds) : "-",
                    pumped.reachable
                        ? util::format_double(pumped.expected_raw_pairs, 2)
                        : "unreachable",
                    nested.reachable
                        ? util::format_double(nested.output_fidelity, 4)
                        : "-"});
    }
  }
  cost.print(std::cout);

  std::cout << "\nEnd-to-end fidelity of an undistilled swap chain (why long "
               "paths need distillation at all):\n\n";
  util::Table chain({"segments", "F=0.99 links", "F=0.95 links", "F=0.90 links"});
  for (const unsigned segments : {1u, 2u, 4u, 8u, 16u, 32u}) {
    chain.add_row({std::to_string(segments),
                   util::format_double(quantum::chain_fidelity(0.99, segments), 4),
                   util::format_double(quantum::chain_fidelity(0.95, segments), 4),
                   util::format_double(quantum::chain_fidelity(0.90, segments), 4)});
  }
  chain.print(std::cout);

  std::cout << "\nStorage budget under decoherence F(t) = 1/4 + (F0 - 1/4) "
               "e^{-t/T} (time until F drops to 0.85, units of T):\n\n";
  util::Table storage({"F0", "time to 0.85 [T]"});
  for (const double f0 : {0.99, 0.95, 0.90, 0.87}) {
    storage.add_row(
        {util::format_double(f0, 2),
         util::format_double(quantum::time_to_fidelity(f0, 0.85, 1.0), 3)});
  }
  storage.print(std::cout);
  std::cout << "\nReading: D(nested) is the value the balancer's D knob "
               "should take for a given hardware fidelity / application "
               "target; the paper sweeps D = 1..5, i.e. raw links around "
               "0.9-0.95 against a 0.95-0.99 target.\n";
  return 0;
}
