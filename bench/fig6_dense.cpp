// Reproduces paper Figure 6: size of the k-hop CDS versus number of nodes in
// DENSE networks (average degree D = 10), one panel per k in {1,2,3,4}.
//
// Expected shape (paper section 4): the ordering of Figure 5 with smaller
// CDS sizes overall (fewer clusters and shorter detours). The paper also
// expects AC-LMST lowest of the localized schemes, by an even smaller margin
// over NC-LMST than in Figure 5. Here, as in Figure 5, AC-LMST is above
// NC-LMST at all 28 points, and at N = 200 the gap is larger than at D = 6
// for every k: at k = 3, 39.65 vs 35.82 (10.7%), against 72.14 vs 69.30
// (4.1%) at D = 6 (README, "Deviations from the paper"). The PaperClaims
// suite (tests/test_paper_claims.cpp) asserts every order on this grid.
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace khop;
  using namespace khop::bench;

  std::cout << "Figure 6 - comparison of gateway-selection algorithms in "
               "dense networks (D = 10)\n"
            << "metric: size of k-hop CDS (clusterheads + gateways), mean "
               "over paper stopping rule\n\n";

  ThreadPool pool;
  const double degree = 10.0;
  for (const Hops k : {1u, 2u, 3u, 4u}) {
    std::vector<PairedPoint> points;
    for (const std::size_t n : paper_node_counts()) {
      points.push_back(run_paired_point(pool, n, degree, k,
                                        60000 + 100 * k + n));
    }
    print_panel(std::cout, "(" + std::string(1, static_cast<char>('a' + k - 1)) +
                               ") k = " + std::to_string(k),
                points, "fig6_k" + std::to_string(k));
  }
  return 0;
}
