#include "mpp/distributed_lu.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

#include "util/timer.hpp"

namespace fpm::mpp {
namespace {

constexpr int kBlockTag = 11;   // initial distribution of column blocks
constexpr int kPanelTag = 12;   // per-step pivot + panel broadcast
constexpr int kGatherTag = 13;  // final collection

}  // namespace

DistributedLuResult distributed_lu(const util::MatrixD& a, std::size_t block,
                                   std::span<const int> block_owner,
                                   int ranks,
                                   std::span<const int> work_multiplier) {
  const std::size_t n = a.rows();
  if (a.cols() != n)
    throw std::invalid_argument("distributed_lu: matrix must be square");
  if (block == 0) throw std::invalid_argument("distributed_lu: block == 0");
  const std::size_t nb = (n + block - 1) / block;
  if (block_owner.size() != nb)
    throw std::invalid_argument("distributed_lu: one owner per column block");
  if (ranks < 1) throw std::invalid_argument("distributed_lu: ranks < 1");
  for (const int o : block_owner)
    if (o < 0 || o >= ranks)
      throw std::invalid_argument("distributed_lu: owner out of range");
  if (!work_multiplier.empty() &&
      work_multiplier.size() != static_cast<std::size_t>(ranks))
    throw std::invalid_argument("distributed_lu: multiplier size");
  for (const int m : work_multiplier)
    if (m < 1) throw std::invalid_argument("distributed_lu: multiplier < 1");

  DistributedLuResult result;
  result.lu = util::MatrixD(n, n);
  result.pivots.assign(n, 0);
  result.compute_seconds.assign(static_cast<std::size_t>(ranks), 0.0);
  result.compute_flops.assign(static_cast<std::size_t>(ranks), 0);

  const auto width_of = [&](std::size_t kb_idx) {
    return std::min(block, n - kb_idx * block);
  };

  run_parallel(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    const int mult =
        work_multiplier.empty() ? 1 : work_multiplier[static_cast<std::size_t>(me)];

    // --- Distribute: rank 0 ships every rank its column blocks (full n
    // rows each). Extract from `a` directly on rank 0; others receive. ---
    std::map<std::size_t, util::MatrixD> mine;  // block index -> n x width
    for (std::size_t kb_idx = 0; kb_idx < nb; ++kb_idx) {
      const std::size_t w = width_of(kb_idx);
      const int owner = block_owner[kb_idx];
      if (me == 0) {
        util::MatrixD cols(n, w);
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < w; ++j)
            cols(i, j) = a(i, kb_idx * block + j);
        if (owner == 0) {
          mine.emplace(kb_idx, std::move(cols));
        } else {
          comm.send(owner, kBlockTag + static_cast<int>(kb_idx),
                    cols.flat());
        }
      } else if (owner == me) {
        const std::vector<double> payload =
            comm.recv(0, kBlockTag + static_cast<int>(kb_idx));
        util::MatrixD cols(n, w);
        std::copy(payload.begin(), payload.end(), cols.flat().begin());
        mine.emplace(kb_idx, std::move(cols));
      }
    }

    std::vector<std::size_t> pivots(n, 0);
    bool singular = false;
    util::Timer timer;

    for (std::size_t kb_idx = 0; kb_idx < nb && !singular; ++kb_idx) {
      const std::size_t col0 = kb_idx * block;
      const std::size_t w = width_of(kb_idx);
      const int owner = block_owner[kb_idx];

      // --- Panel factorization by the owner. ---
      std::vector<double> payload;  // [status, pivots(w), panel rows col0..n)
      if (owner == me) {
        util::MatrixD& panel = mine.at(kb_idx);
        double status = 1.0;
        for (std::size_t jl = 0; jl < w; ++jl) {
          const std::size_t g = col0 + jl;
          std::size_t piv = g;
          double best = std::abs(panel(g, jl));
          for (std::size_t i = g + 1; i < n; ++i) {
            const double v = std::abs(panel(i, jl));
            if (v > best) {
              best = v;
              piv = i;
            }
          }
          pivots[g] = piv;
          if (best == 0.0) {
            status = 0.0;
            break;
          }
          if (piv != g)
            for (std::size_t j = 0; j < w; ++j)
              std::swap(panel(g, j), panel(piv, j));
          const double inv = 1.0 / panel(g, jl);
          for (std::size_t i = g + 1; i < n; ++i) {
            const double l = panel(i, jl) * inv;
            panel(i, jl) = l;
            for (std::size_t j = jl + 1; j < w; ++j)
              panel(i, j) -= l * panel(g, j);
          }
        }
        payload.push_back(status);
        for (std::size_t jl = 0; jl < w; ++jl)
          payload.push_back(static_cast<double>(pivots[col0 + jl]));
        for (std::size_t i = col0; i < n; ++i)
          for (std::size_t j = 0; j < w; ++j) payload.push_back(panel(i, j));
      }
      payload = comm.broadcast(owner, payload);
      if (payload[0] == 0.0) {
        singular = true;
        break;
      }
      for (std::size_t jl = 0; jl < w; ++jl)
        pivots[col0 + jl] = static_cast<std::size_t>(payload[1 + jl]);
      // Panel factors for rows [col0, n), unit-lower L plus U on top.
      const std::size_t panel_rows = n - col0;
      const auto panel_at = [&](std::size_t i, std::size_t j) {
        return payload[1 + w + i * w + j];  // i relative to col0
      };

      // --- Apply the panel's row swaps to every local non-panel block. ---
      for (auto& [idx, cols] : mine) {
        if (idx == kb_idx) continue;
        for (std::size_t jl = 0; jl < w; ++jl) {
          const std::size_t g = col0 + jl;
          const std::size_t piv = pivots[g];
          if (piv != g)
            for (std::size_t j = 0; j < cols.cols(); ++j)
              std::swap(cols(g, j), cols(piv, j));
        }
      }

      // --- Trailing update of the local blocks right of the panel. ---
      timer.reset();
      std::int64_t flops = 0;
      for (int repeat = 0; repeat < mult; ++repeat) {
        const bool for_real = repeat + 1 == mult;
        for (auto& [idx, cols] : mine) {
          if (idx <= kb_idx) continue;
          util::MatrixD scratch(0, 0);
          util::MatrixD& target = for_real ? cols : (scratch = cols, scratch);
          const std::size_t cw = target.cols();
          // U12 = L11^{-1} A12 (unit lower forward substitution).
          for (std::size_t jl = 0; jl < w; ++jl)
            for (std::size_t i = jl + 1; i < w; ++i) {
              const double l = panel_at(i, jl);
              if (l == 0.0) continue;
              for (std::size_t j = 0; j < cw; ++j)
                target(col0 + i, j) -= l * target(col0 + jl, j);
              flops += 2 * static_cast<std::int64_t>(cw);
            }
          // A22 -= L21 U12.
          for (std::size_t i = w; i < panel_rows; ++i)
            for (std::size_t jl = 0; jl < w; ++jl) {
              const double l = panel_at(i, jl);
              if (l == 0.0) continue;
              for (std::size_t j = 0; j < cw; ++j)
                target(col0 + i, j) -= l * target(col0 + jl, j);
              flops += 2 * static_cast<std::int64_t>(cw);
            }
        }
      }
      result.compute_seconds[static_cast<std::size_t>(me)] += timer.seconds();
      result.compute_flops[static_cast<std::size_t>(me)] += flops;
      comm.barrier();  // step boundary (matches the bulk-synchronous model)
    }

    // --- Gather the factored blocks and pivots at rank 0. ---
    std::vector<double> flat;
    for (const auto& [idx, cols] : mine) {
      flat.push_back(static_cast<double>(idx));
      flat.insert(flat.end(), cols.flat().begin(), cols.flat().end());
    }
    const auto all_blocks = comm.gather(0, flat);
    // Every rank already knows all pivots (each panel's were broadcast),
    // so rank 0 can publish them directly.
    if (me == 0) {
      result.nonsingular = !singular;
      for (std::size_t g = 0; g < n; ++g) result.pivots[g] = pivots[g];
      for (const auto& rank_flat : all_blocks) {
        std::size_t pos = 0;
        while (pos < rank_flat.size()) {
          const auto idx = static_cast<std::size_t>(rank_flat[pos++]);
          const std::size_t wv = width_of(idx);
          for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < wv; ++j)
              result.lu(i, idx * block + j) = rank_flat[pos++];
        }
      }
    }
  });
  return result;
}

}  // namespace fpm::mpp
