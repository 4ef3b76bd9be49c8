// The full loop, for real: a distributed Jacobi solver on the mpp runtime
// (threads as emulated heterogeneous ranks) whose band sizes are adapted
// between epochs by the online rebalancer, using only the wall-clock
// timings each epoch produces. No models are built offline; the schedule
// converges from an even split toward speed-proportional bands.
//
// Build & run:  ./examples/adaptive_distributed
#include <iostream>

#include "balance/rebalancer.hpp"
#include "linalg/kernels.hpp"
#include "mpp/distributed_stencil.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace fpm;
  const std::int64_t rows = 1200, cols = 1200;
  const std::vector<int> multipliers{1, 2, 5};  // emulated machine speeds
  const int p = static_cast<int>(multipliers.size());
  const int epochs = 8;
  const int sweeps_per_epoch = 3;

  balance::OnlineModelOptions model;
  model.min_size = 1.0;
  model.max_size = static_cast<double>(rows * cols);
  balance::RebalancerOptions policy;
  policy.warmup_iterations = 0;
  policy.cooldown_iterations = 0;
  policy.imbalance_threshold = 0.10;
  balance::Rebalancer rebalancer(static_cast<std::size_t>(p), rows, model,
                                 policy);

  util::MatrixD grid = linalg::random_matrix(rows, cols, 1);
  util::Table t("epochs", {"epoch", "rows_per_rank", "epoch_seconds",
                           "rebalanced"});
  double total = 0.0;
  for (int e = 0; e < epochs; ++e) {
    const core::Distribution d = rebalancer.distribution();  // copy: the
    // rebalancer may change its distribution inside step() below.
    util::Timer timer;
    const mpp::DistributedStencilResult result =
        mpp::distributed_jacobi(grid, d.counts, sweeps_per_epoch, multipliers);
    const double wall = timer.seconds();
    total += wall;
    grid = result.grid;  // continue from the evolved field

    // Feed the per-rank kernel times back; sizes are cells, time is what
    // the rank actually measured this epoch.
    std::vector<double> cell_seconds(p);
    for (int r = 0; r < p; ++r) cell_seconds[r] = result.compute_seconds[r];
    const bool moved = rebalancer.step(cell_seconds);

    std::string layout;
    for (int r = 0; r < p; ++r) {
      if (r) layout += '/';
      layout += util::fmt(d.counts[r]);
    }
    t.add_row({util::fmt(e), layout, util::fmt(wall, 3),
               moved ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << "\ntotal " << util::fmt(total, 2) << " s across " << epochs
            << " epochs; final layout "
            << rebalancer.distribution().counts[0] << "/"
            << rebalancer.distribution().counts[1] << "/"
            << rebalancer.distribution().counts[2]
            << " rows (emulated speeds 1 : 1/2 : 1/5).\n";
  std::cout << "Numerics stay exact throughout: every epoch's grid is "
               "bit-identical to serial sweeps regardless of the layout.\n";
  return 0;
}
