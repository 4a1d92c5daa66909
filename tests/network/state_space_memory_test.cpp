// The heap a state space holds: Figure 6's C^2 = 10 model (8 stations,
// 5 908 states over levels 0..5) keeps one flat array of 32-bit codes per
// level and no per-state vectors or index maps; a level assembles straight
// into exactly sized CSR arrays, within twice what it keeps; I - P is built
// with no array growth; and a CSR
// matrix with more columns than 32-bit indices address is refused before it
// allocates.
// This binary links the counting allocator (tests/support), so it is built
// only without sanitizers.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "cluster/experiments.h"
#include "linalg/sparse.h"
#include "network/state_space.h"
#include "support/counting_allocator.h"

namespace la = finwork::la;
namespace cluster = finwork::cluster;
namespace net = finwork::net;
namespace heap = finwork::heap;

TEST(StateSpaceMemory, Fig6Scv10HoldsAtMost48BytesPerState) {
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  const net::NetworkSpec spec = cluster::build_cluster(cfg);

  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  std::optional<net::StateSpace> space;
  space.emplace(spec, 5);
  const std::size_t held = heap::live_bytes() - before;
  const std::size_t peak = heap::peak_bytes() - before;

  std::size_t states = 0;
  for (std::size_t k = 0; k <= 5; ++k) states += space->dimension(k);
  ASSERT_EQ(states, 5908u);
  ASSERT_EQ(space->num_stations(), 8u);
  std::printf("%zu states: the space holds %zu B (%.1f B per state), "
              "peak %zu B\n",
              states, held, static_cast<double>(held) / states, peak);
  // The codes alone take 4 B per station: 32 B per state.
  EXPECT_LE(held, 48 * states);
}

/// Bytes of a CSR matrix whose arrays are exactly sized: 8 per row start,
/// 4 per column index and 8 per value.
std::size_t exact_bytes(const la::CsrMatrix& m) {
  return (m.rows() + 1) * sizeof(std::size_t) +
         m.nnz() * (sizeof(std::uint32_t) + sizeof(double));
}

TEST(StateSpaceMemory, LevelAssemblyPeaksWithinTwiceWhatItKeeps) {
  // Distributed K = 6 with a C^2 = 10 remote disk: level 6 holds 22 180
  // states.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 6;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  const net::StateSpace space(cluster::build_cluster(cfg), 6);
  for (std::size_t k = 1; k <= 5; ++k) (void)space.level(k);
  ASSERT_EQ(space.dimension(6), 22180u);

  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  const net::LevelMatrices& lm = space.level(6);
  const std::size_t kept = heap::live_bytes() - before;
  const std::size_t peak = heap::peak_bytes() - before;

  const std::size_t exact = exact_bytes(lm.p) + exact_bytes(lm.q) +
                            exact_bytes(lm.r) +
                            lm.event_rates.size() * sizeof(double);
  std::printf("level 6: %zu entries of P, Q and R; keeps %zu B (exact "
              "arrays %zu B), peak %zu B (%.2fx kept)\n",
              lm.p.nnz() + lm.q.nnz() + lm.r.nnz(), kept, exact, peak,
              static_cast<double>(peak) / static_cast<double>(kept));
  EXPECT_LE(kept, exact);
  EXPECT_LE(peak, 2 * kept);
}

TEST(StateSpaceMemory, IdentityMinusAllocatesOnlyWhatItKeeps) {
  // Figure 6's C^2 = 10 level 5: the builder is told its entry count, so
  // its arrays are allocated once at their final size and never trimmed.
  cluster::ExperimentConfig cfg;
  cfg.architecture = cluster::Architecture::kDistributed;
  cfg.workstations = 5;
  cfg.shapes.remote_disk = cluster::ServiceShape::from_scv(10.0);
  const net::StateSpace space(cluster::build_cluster(cfg), 5);
  const la::CsrMatrix& p = space.level(5).p;

  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  std::optional<la::CsrMatrix> a;
  a.emplace(la::CsrMatrix::identity_minus(p));
  const std::size_t kept = heap::live_bytes() - before;
  const std::size_t peak = heap::peak_bytes() - before;
  std::printf("I - P on level 5: %zu entries, keeps %zu B, peak %zu B\n",
              a->nnz(), kept, peak);
  EXPECT_EQ(kept, exact_bytes(*a));
  // Beyond the kept arrays, only the builder's one-row buffer.
  EXPECT_LE(peak, kept + 4096);
}

TEST(StateSpaceMemory, CsrBeyond32BitColumnsThrowsBeforeAllocating) {
  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  EXPECT_THROW(la::CsrBuilder(1, std::size_t{1} << 32), std::length_error);
  // Only the exception object itself is allocated.
  EXPECT_LT(heap::peak_bytes() - before, 1024u);
}
