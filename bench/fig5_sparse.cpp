// Reproduces paper Figure 5: size of the k-hop CDS versus number of nodes in
// SPARSE networks (average degree D = 6), one panel per k in {1,2,3,4},
// comparing NC-Mesh / AC-Mesh / NC-LMST / AC-LMST / G-MST.
//
// Expected shape (paper section 4): NC-Mesh largest; AC-Mesh below it (the
// A-NCR gain grows with k: at N = 200 it is 5.7% at k = 1, 125.97 -> 118.80,
// and 11.6% at k = 4); LMST variants clearly below the mesh variants (>10%
// gateway reduction); G-MST the lower bound of all five. The paper also
// expects AC-LMST lowest of the localized schemes; here AC-LMST is above
// NC-LMST at all 28 points (README, "Deviations from the paper").
#include <iostream>

#include "figure_common.hpp"

int main() {
  using namespace khop;
  using namespace khop::bench;

  std::cout << "Figure 5 - comparison of gateway-selection algorithms in "
               "sparse networks (D = 6)\n"
            << "metric: size of k-hop CDS (clusterheads + gateways), mean "
               "over paper stopping rule\n\n";

  ThreadPool pool;
  const double degree = 6.0;
  for (const Hops k : {1u, 2u, 3u, 4u}) {
    std::vector<PairedPoint> points;
    for (const std::size_t n : paper_node_counts()) {
      points.push_back(run_paired_point(pool, n, degree, k,
                                        50000 + 100 * k + n));
    }
    print_panel(std::cout, "(" + std::string(1, static_cast<char>('a' + k - 1)) +
                               ") k = " + std::to_string(k),
                points, "fig5_k" + std::to_string(k));
  }
  return 0;
}
