#include "mpp/distributed_stencil.hpp"

#include <numeric>
#include <stdexcept>

#include "util/timer.hpp"

namespace fpm::mpp {
namespace {

constexpr int kScatterTag = 21;
constexpr int kHaloBase = 100;  // +2*iter (down) / +2*iter+1 (up)

}  // namespace

DistributedStencilResult distributed_jacobi(
    const util::MatrixD& grid, std::span<const std::int64_t> rows,
    int iterations, std::span<const int> work_multiplier) {
  if (rows.empty())
    throw std::invalid_argument("distributed_jacobi: no ranks");
  const std::int64_t total =
      std::accumulate(rows.begin(), rows.end(), std::int64_t{0});
  if (total != static_cast<std::int64_t>(grid.rows()))
    throw std::invalid_argument("distributed_jacobi: rows do not cover grid");
  if (iterations < 0)
    throw std::invalid_argument("distributed_jacobi: iterations < 0");
  if (!work_multiplier.empty() && work_multiplier.size() != rows.size())
    throw std::invalid_argument("distributed_jacobi: multiplier size");
  for (const int m : work_multiplier)
    if (m < 1) throw std::invalid_argument("distributed_jacobi: multiplier < 1");

  const int p = static_cast<int>(rows.size());
  const std::size_t cols = grid.cols();
  const std::size_t n_rows = grid.rows();

  std::vector<std::size_t> first(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r)
    first[r + 1] = first[r] + static_cast<std::size_t>(rows[r]);

  // Ring neighbours among non-empty bands: prev_of[r] / next_of[r] is the
  // rank owning the band directly above / below rank r's band (-1 = none).
  std::vector<int> prev_of(p, -1), next_of(p, -1);
  {
    int last = -1;
    for (int r = 0; r < p; ++r) {
      if (rows[r] == 0) continue;
      prev_of[r] = last;
      if (last >= 0) next_of[last] = r;
      last = r;
    }
  }

  DistributedStencilResult result;
  result.grid = grid;
  result.compute_seconds.assign(static_cast<std::size_t>(p), 0.0);
  result.compute_flops.assign(static_cast<std::size_t>(p), 0);

  run_parallel(p, [&](Communicator& comm) {
    const int me = comm.rank();
    const auto my_rows = static_cast<std::size_t>(rows[me]);
    const int mult =
        work_multiplier.empty() ? 1 : work_multiplier[static_cast<std::size_t>(me)];

    // Scatter bands.
    util::MatrixD band(0, 0);
    if (me == 0) {
      for (int r = 1; r < p; ++r)
        if (rows[r] > 0) {
          const util::MatrixD slice =
              grid.slice_rows(first[r], static_cast<std::size_t>(rows[r]));
          comm.send(r, kScatterTag, slice.flat());
        }
      band = my_rows > 0 ? grid.slice_rows(0, my_rows) : util::MatrixD(0, cols);
    } else if (my_rows > 0) {
      const std::vector<double> payload = comm.recv(0, kScatterTag);
      band = util::MatrixD(my_rows, cols);
      std::copy(payload.begin(), payload.end(), band.flat().begin());
    } else {
      band = util::MatrixD(0, cols);
    }

    util::Timer timer;
    for (int it = 0; it < iterations; ++it) {
      std::vector<double> halo_above, halo_below;
      if (my_rows > 0) {
        const int up = prev_of[me];
        const int down = next_of[me];
        const int tag_down = kHaloBase + 2 * it;      // sent to the band below
        const int tag_up = kHaloBase + 2 * it + 1;    // sent to the band above
        if (down >= 0) {
          const auto last_row = band.row(my_rows - 1);
          comm.send(down, tag_down, last_row);
        }
        if (up >= 0) {
          const auto first_row = band.row(0);
          comm.send(up, tag_up, first_row);
        }
        if (up >= 0) halo_above = comm.recv(up, tag_down);
        if (down >= 0) halo_below = comm.recv(down, tag_up);
      }

      if (my_rows > 0 && cols >= 3) {
        timer.reset();
        std::int64_t flops = 0;
        util::MatrixD next(0, 0);
        for (int repeat = 0; repeat < mult; ++repeat) {
          next = band;
          const auto row_above = [&](std::size_t local) -> const double* {
            if (local > 0) return &band(local - 1, 0);
            return halo_above.empty() ? nullptr : halo_above.data();
          };
          const auto row_below = [&](std::size_t local) -> const double* {
            if (local + 1 < my_rows) return &band(local + 1, 0);
            return halo_below.empty() ? nullptr : halo_below.data();
          };
          for (std::size_t local = 0; local < my_rows; ++local) {
            const std::size_t global = first[me] + local;
            if (global == 0 || global + 1 >= n_rows) continue;  // boundary
            const double* above = row_above(local);
            const double* below = row_below(local);
            for (std::size_t c = 1; c + 1 < cols; ++c)
              next(local, c) = 0.25 * (above[c] + below[c] +
                                       band(local, c - 1) + band(local, c + 1));
            flops += 4 * static_cast<std::int64_t>(cols - 2);
          }
        }
        result.compute_seconds[static_cast<std::size_t>(me)] += timer.seconds();
        result.compute_flops[static_cast<std::size_t>(me)] += flops;
        band = std::move(next);
      }
    }

    // Gather the final bands.
    const auto all = comm.gather(0, band.flat());
    if (me == 0) {
      for (int r = 0; r < p; ++r) {
        if (rows[r] == 0) continue;
        util::MatrixD slice(static_cast<std::size_t>(rows[r]), cols);
        std::copy(all[static_cast<std::size_t>(r)].begin(),
                  all[static_cast<std::size_t>(r)].end(),
                  slice.flat().begin());
        result.grid.paste_rows(first[r], slice);
      }
    }
  });
  return result;
}

}  // namespace fpm::mpp
