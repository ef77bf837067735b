/// \file placement.hpp
/// Random node placement in the deployment field.
#pragma once

#include <cstddef>
#include <vector>

#include "khop/common/rng.hpp"
#include "khop/geom/point.hpp"

namespace khop {

/// Places \p n nodes independently and uniformly at random in \p field.
/// \pre n > 0
std::vector<Point2> place_uniform(std::size_t n, const Field& field, Rng& rng);

/// place_uniform into \p out (resized to n, capacity reused): the same draws
/// in the same order (x then y per node), so rejection loops redraw a
/// placement without allocating. \pre n > 0
void place_uniform_into(std::size_t n, const Field& field, Rng& rng,
                        std::vector<Point2>& out);

/// Places \p n nodes on a jittered grid: a ceil(sqrt(n))^2 lattice with each
/// node displaced uniformly within its cell. Produces more evenly-covered
/// topologies; used by tests and the topology playground, not by the paper's
/// experiments.
std::vector<Point2> place_jittered_grid(std::size_t n, const Field& field,
                                        Rng& rng);

}  // namespace khop
