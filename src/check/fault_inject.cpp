#include "check/fault_inject.h"

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>

namespace finwork::check {

namespace {

// The site registry.  One entry per forced-failure point; lint rule R9
// (tools/finwork_lint.py) keeps it equal to the fault_at("...") probes in
// src/ and to the table in docs/ROBUSTNESS.md.
constexpr std::array<std::string_view, 6> kFaultSites = {
    "lu/factorize",          // dense PLU reports the matrix singular
    "iterative/neumann",     // Neumann series reports non-convergence
    "iterative/bicgstab",    // BiCGSTAB reports non-convergence
    "iterative/gmres",       // GMRES reports non-convergence
    "cache/build",           // ModelCache build on a miss throws
    "state_space/assemble",  // a level's build throws at its start
};

struct SiteState {
  std::atomic<std::size_t> armed{0};
  std::atomic<std::uint64_t> fired{0};
};

// Zero-initialized globals, trivially destructible: probes from worker
// threads during static teardown can never touch a dead object.
std::array<SiteState, kFaultSites.size()> g_sites{};

std::size_t site_index(std::string_view site) {
  for (std::size_t i = 0; i < kFaultSites.size(); ++i) {
    if (kFaultSites[i] == site) return i;
  }
  throw std::logic_error("fault_inject: unknown site '" + std::string(site) +
                         "'");
}

}  // namespace

namespace detail {

bool should_fail_impl(std::string_view site) noexcept {
  for (std::size_t i = 0; i < kFaultSites.size(); ++i) {
    if (kFaultSites[i] != site) continue;
    SiteState& st = g_sites[i];
    std::size_t armed = st.armed.load(std::memory_order_relaxed);
    while (armed > 0) {
      if (st.armed.compare_exchange_weak(armed, armed - 1,
                                         std::memory_order_relaxed)) {
        st.fired.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }
  return false;  // unknown site: probes never fire (arming validates names)
}

}  // namespace detail

std::vector<std::string_view> fault_sites() {
  return {kFaultSites.begin(), kFaultSites.end()};
}

void arm_fault(std::string_view site, std::size_t failures) {
  const std::size_t i = site_index(site);
  if constexpr (!kFaultInjectEnabled) {
    throw std::logic_error(
        "fault_inject: framework compiled out (build with "
        "FINWORK_FAULT_INJECT=ON to arm faults)");
  }
  g_sites[i].armed.store(failures, std::memory_order_relaxed);
}

void disarm_fault(std::string_view site) {
  g_sites[site_index(site)].armed.store(0, std::memory_order_relaxed);
}

void disarm_all_faults() noexcept {
  for (SiteState& st : g_sites) st.armed.store(0, std::memory_order_relaxed);
}

std::uint64_t fault_fire_count(std::string_view site) {
  return g_sites[site_index(site)].fired.load(std::memory_order_relaxed);
}

}  // namespace finwork::check
