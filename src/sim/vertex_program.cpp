#include "sim/vertex_program.hpp"

#include "util/error.hpp"

namespace poq::sim {

SignalSet::SignalSet(std::size_t vertex_count) : bits_(vertex_count, 0) {
  require(vertex_count > 0, "SignalSet: vertex_count must be positive");
}

void SignalSet::signal(std::uint32_t vertex) {
  if (relaxed(bits_[vertex]).exchange(1, std::memory_order_relaxed) == 0) {
    count_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SignalSet::signal_all() {
  std::size_t marked = 0;
  for (std::uint8_t& byte : bits_) {
    if (relaxed(byte).exchange(1, std::memory_order_relaxed) == 0) ++marked;
  }
  count_.fetch_add(marked, std::memory_order_relaxed);
}

bool SignalSet::test(std::uint32_t vertex) const {
  return relaxed(bits_[vertex]).load(std::memory_order_relaxed) != 0;
}

void SignalSet::clear(std::uint32_t vertex) {
  if (relaxed(bits_[vertex]).exchange(0, std::memory_order_relaxed) != 0) {
    count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::size_t SignalSet::signaled_count() const {
  return count_.load(std::memory_order_relaxed);
}

std::size_t SignalSet::drain(std::vector<std::uint32_t>& out) {
  const std::size_t before = out.size();
  if (count_.load(std::memory_order_relaxed) == 0) return 0;
  for (std::uint32_t v = 0; v < bits_.size(); ++v) {
    if (bits_[v] != 0) {
      bits_[v] = 0;
      out.push_back(v);
    }
  }
  count_.store(0, std::memory_order_relaxed);
  return out.size() - before;
}

}  // namespace poq::sim
