#include "khop/geom/placement.hpp"

#include <cmath>

#include "khop/common/assert.hpp"

namespace khop {

std::vector<Point2> place_uniform(std::size_t n, const Field& field,
                                  Rng& rng) {
  std::vector<Point2> pts;
  place_uniform_into(n, field, rng, pts);
  return pts;
}

void place_uniform_into(std::size_t n, const Field& field, Rng& rng,
                        std::vector<Point2>& out) {
  KHOP_REQUIRE(n > 0, "cannot place zero nodes");
  out.resize(n);
  for (Point2& p : out) {
    p.x = rng.uniform(0.0, field.side);
    p.y = rng.uniform(0.0, field.side);
  }
}

std::vector<Point2> place_jittered_grid(std::size_t n, const Field& field,
                                        Rng& rng) {
  KHOP_REQUIRE(n > 0, "cannot place zero nodes");
  const auto cells =
      static_cast<std::size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  const double cell = field.side / static_cast<double>(cells);
  std::vector<Point2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t gx = i % cells;
    const std::size_t gy = i / cells;
    pts.push_back({(static_cast<double>(gx) + rng.uniform()) * cell,
                   (static_cast<double>(gy) + rng.uniform()) * cell});
  }
  return pts;
}

}  // namespace khop
