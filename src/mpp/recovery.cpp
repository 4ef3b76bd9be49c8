#include "mpp/recovery.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "core/partition.hpp"
#include "core/policy.hpp"
#include "linalg/kernels.hpp"
#include "mpp/fault.hpp"
#include "obs/metrics.hpp"

namespace fpm::mpp {

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(std::int64_t items) : items_(items) {
  if (items < 1)
    throw std::invalid_argument("CheckpointStore: items must be >= 1");
}

void CheckpointStore::save(int version, std::int64_t item,
                           std::vector<double> data) {
  if (item < 0 || item >= items_)
    throw std::out_of_range("CheckpointStore::save: item out of range");
  std::scoped_lock lock(mutex_);
  versions_[version][item] = std::move(data);
}

int CheckpointStore::latest_complete() const {
  std::scoped_lock lock(mutex_);
  for (auto it = versions_.rbegin(); it != versions_.rend(); ++it)
    if (static_cast<std::int64_t>(it->second.size()) == items_)
      return it->first;
  return -1;
}

void CheckpointStore::purge_after(int version) {
  std::scoped_lock lock(mutex_);
  versions_.erase(versions_.upper_bound(version), versions_.end());
}

std::vector<double> CheckpointStore::load(int version,
                                          std::int64_t item) const {
  std::scoped_lock lock(mutex_);
  return versions_.at(version).at(item);
}

// ---------------------------------------------------------------------------
// Shared recovery machinery
// ---------------------------------------------------------------------------

namespace {

/// Allocates n items over the alive ranks: counts indexed by *rank* (dead
/// ranks get 0). Runs the world's partitioner policy over the survivors'
/// speed curves at item granularity (`elements_per_item` elements each);
/// falls back to an even split when no usable curves are supplied.
///
/// `hint`, when non-null, is an in/out warm-start slot: a usable previous
/// slope narrows the search (the post-failure problem is a near miss of the
/// pre-failure one — same curves, fewer ranks) and the accepted slope is
/// written back. The fingerprint stays 0 because the survivor sub-list
/// legitimately changes across failures; the engine's bracket verification
/// alone decides whether the hint holds. Distributions are bit-identical
/// with or without a hint, so every rank computes the same counts no matter
/// how its private hint evolved.
std::vector<std::int64_t> partition_over(const std::vector<int>& active,
                                         int ranks,
                                         const FaultToleranceOptions& options,
                                         std::int64_t n,
                                         double elements_per_item,
                                         core::PartitionHint* hint = nullptr) {
  const core::SpeedList& speeds = options.speeds;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(ranks), 0);
  core::Distribution d;
  if (speeds.size() == static_cast<std::size_t>(ranks)) {
    std::vector<core::GranularSpeedView> views;
    views.reserve(active.size());
    for (const int r : active)
      views.emplace_back(*speeds[static_cast<std::size_t>(r)],
                         elements_per_item);
    core::SpeedList sub;
    sub.reserve(views.size());
    for (const auto& v : views) sub.push_back(&v);
    const core::PartitionHint* previous =
        hint != nullptr && hint->usable() ? hint : nullptr;
    core::PartitionPolicy policy = options.policy;
    if (previous != nullptr && !policy.hint) policy.hint = *previous;
    const core::PartitionResult res = core::partition(sub, n, policy);
    d = res.distribution;
    if (hint != nullptr) {
      if (auto next = core::next_hint(res, n, previous, 0)) *hint = *next;
    }
  } else {
    d = core::partition_even(n, active.size());
  }
  for (std::size_t i = 0; i < active.size(); ++i)
    counts[static_cast<std::size_t>(active[i])] = d.counts[i];
  return counts;
}

/// The recovery rendezvous (see file header of recovery.hpp). Returns when
/// the world is quiescent with stale checkpoints and messages discarded; a
/// further failure mid-protocol restarts it. Rethrows when this rank
/// itself has been declared failed (it must die, not recover).
void rendezvous(Communicator& comm, CheckpointStore& store,
                std::atomic<int>& recoveries) {
  // Per-rank recovery wall time; the protocol may restart on further
  // failures, and the span covers every restart until quiescence.
  obs::TimerSpan span(
      obs::metrics().histogram(obs::names::kMppRecoveryDuration));
  for (;;) {
    try {
      comm.barrier();
      const std::vector<int> active = comm.alive_ranks();
      if (comm.rank() == active.front()) {
        store.purge_after(store.latest_complete());
        recoveries.fetch_add(1, std::memory_order_relaxed);
        obs::metrics().counter(obs::names::kMppRecoveries).add(1);
      }
      comm.purge_inbox();
      comm.barrier();
      return;
    } catch (const RankFailedError& e) {
      if (e.failed_rank() == comm.rank() || !comm.is_alive(comm.rank()))
        throw;
    }
  }
}

/// True when `e` means this rank itself is dead and must not recover.
bool fenced(const RankFailedError& e, const Communicator& comm) {
  return e.failed_rank() == comm.rank() || !comm.is_alive(comm.rank());
}

std::vector<std::size_t> prefix_offsets(std::span<const std::int64_t> counts) {
  std::vector<std::size_t> first(counts.size() + 1, 0);
  for (std::size_t r = 0; r < counts.size(); ++r)
    first[r + 1] = first[r] + static_cast<std::size_t>(counts[r]);
  return first;
}

RunOptions run_options(const FaultToleranceOptions& options) {
  RunOptions ro;
  ro.fault_tolerant = true;
  ro.timeout_seconds = options.timeout_seconds;
  ro.faults = options.faults;
  return ro;
}

void validate_common(int ranks, const FaultToleranceOptions& options) {
  if (ranks < 1) throw std::invalid_argument("fault_tolerant: ranks < 1");
  if (options.checkpoint_interval < 1)
    throw std::invalid_argument("fault_tolerant: checkpoint_interval < 1");
}

}  // namespace

// ---------------------------------------------------------------------------
// Jacobi
// ---------------------------------------------------------------------------

FtJacobiResult fault_tolerant_jacobi(const util::MatrixD& grid, int ranks,
                                     int iterations,
                                     const FaultToleranceOptions& options) {
  validate_common(ranks, options);
  if (iterations < 0)
    throw std::invalid_argument("fault_tolerant_jacobi: iterations < 0");
  if (grid.rows() == 0 || grid.cols() == 0)
    throw std::invalid_argument("fault_tolerant_jacobi: empty grid");
  const auto n_rows = static_cast<std::int64_t>(grid.rows());
  const std::size_t cols = grid.cols();
  const int interval = options.checkpoint_interval;

  // Version 0 = the initial grid, row by row (item = global row index).
  CheckpointStore store(n_rows);
  for (std::int64_t r = 0; r < n_rows; ++r) {
    const auto row = grid.row(static_cast<std::size_t>(r));
    store.save(0, r, std::vector<double>(row.begin(), row.end()));
  }

  FtJacobiResult out;
  out.grid = util::MatrixD(grid.rows(), cols);
  std::atomic<int> recoveries{0};

  const RunReport report = run_parallel(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    // Survives recovery restarts: after a failure the repartition over the
    // survivors warm-starts from the pre-failure slope.
    core::PartitionHint part_hint;
    for (;;) {
      try {
        const std::vector<int> active = comm.alive_ranks();
        const int from = store.latest_complete();
        const std::vector<std::int64_t> rows =
            partition_over(active, ranks, options, n_rows,
                           static_cast<double>(cols), &part_hint);
        const std::vector<std::size_t> first = prefix_offsets(rows);

        // Ring neighbours among non-empty bands (dead ranks own 0 rows).
        std::vector<int> prev_of(static_cast<std::size_t>(ranks), -1);
        std::vector<int> next_of(static_cast<std::size_t>(ranks), -1);
        {
          int last = -1;
          for (int r = 0; r < ranks; ++r) {
            if (rows[static_cast<std::size_t>(r)] == 0) continue;
            prev_of[static_cast<std::size_t>(r)] = last;
            if (last >= 0) next_of[static_cast<std::size_t>(last)] = r;
            last = r;
          }
        }

        const auto my_rows =
            static_cast<std::size_t>(rows[static_cast<std::size_t>(me)]);
        util::MatrixD band(my_rows, cols);
        for (std::size_t local = 0; local < my_rows; ++local) {
          const auto data = store.load(
              from, static_cast<std::int64_t>(first[static_cast<std::size_t>(me)] + local));
          std::copy(data.begin(), data.end(), band.row(local).begin());
        }

        constexpr int kHaloBase = 100;  // +2*iter (down) / +2*iter+1 (up)
        for (int it = from; it < iterations; ++it) {
          comm.at_step(it);

          std::vector<double> halo_above, halo_below;
          if (my_rows > 0) {
            const int up = prev_of[static_cast<std::size_t>(me)];
            const int down = next_of[static_cast<std::size_t>(me)];
            const int tag_down = kHaloBase + 2 * it;
            const int tag_up = kHaloBase + 2 * it + 1;
            if (down >= 0) comm.send(down, tag_down, band.row(my_rows - 1));
            if (up >= 0) comm.send(up, tag_up, band.row(0));
            if (up >= 0) halo_above = comm.recv(up, tag_down);
            if (down >= 0) halo_below = comm.recv(down, tag_up);
          }

          if (my_rows > 0) {
            // Same arithmetic, in the same order, as apps::jacobi_sweep —
            // ownership changes must not perturb a single bit.
            util::MatrixD next = band;
            const auto row_above = [&](std::size_t local) -> const double* {
              if (local > 0) return &band(local - 1, 0);
              return halo_above.empty() ? nullptr : halo_above.data();
            };
            const auto row_below = [&](std::size_t local) -> const double* {
              if (local + 1 < my_rows) return &band(local + 1, 0);
              return halo_below.empty() ? nullptr : halo_below.data();
            };
            for (std::size_t local = 0; local < my_rows; ++local) {
              const std::size_t global =
                  first[static_cast<std::size_t>(me)] + local;
              if (global == 0 ||
                  global + 1 >= static_cast<std::size_t>(n_rows))
                continue;  // fixed boundary rows
              const double* above = row_above(local);
              const double* below = row_below(local);
              for (std::size_t c = 1; c + 1 < cols; ++c)
                next(local, c) =
                    0.25 * (above[c] + below[c] + band(local, c - 1) +
                            band(local, c + 1));
            }
            band = std::move(next);
          }

          const int done = it + 1;
          if (done % interval == 0 || done == iterations) {
            for (std::size_t local = 0; local < my_rows; ++local) {
              const auto row = band.row(local);
              store.save(
                  done,
                  static_cast<std::int64_t>(first[static_cast<std::size_t>(me)] + local),
                  std::vector<double>(row.begin(), row.end()));
            }
            comm.barrier();  // the checkpoint commit point
          }
        }

        if (me == active.front()) {
          for (std::int64_t r = 0; r < n_rows; ++r) {
            const auto data = store.load(iterations, r);
            std::copy(data.begin(), data.end(),
                      out.grid.row(static_cast<std::size_t>(r)).begin());
          }
          out.final_rows = rows;
        }
        return;
      } catch (const RankFailedError& e) {
        if (fenced(e, comm)) throw;
        rendezvous(comm, store, recoveries);
      }
    }
  }, run_options(options));

  out.failed_ranks = report.failed_ranks;
  out.recoveries = recoveries.load();
  return out;
}

// ---------------------------------------------------------------------------
// LU
// ---------------------------------------------------------------------------

namespace {

/// Ownership map after failures: surviving owners keep their blocks; dead
/// owners' blocks are dealt out cyclically to survivors in proportion to
/// their speed curves. Pure function of (base, active), so every survivor
/// computes the identical map.
std::vector<int> owners_over(std::span<const int> base,
                             const std::vector<int>& active, int ranks,
                             const FaultToleranceOptions& options,
                             double elements_per_block,
                             core::PartitionHint* hint = nullptr) {
  std::vector<char> alive(static_cast<std::size_t>(ranks), 0);
  for (const int r : active) alive[static_cast<std::size_t>(r)] = 1;
  std::vector<int> owners(base.begin(), base.end());
  std::vector<std::size_t> orphans;
  for (std::size_t kb = 0; kb < owners.size(); ++kb)
    if (!alive[static_cast<std::size_t>(owners[kb])]) orphans.push_back(kb);
  if (orphans.empty()) return owners;

  std::vector<std::int64_t> quota =
      partition_over(active, ranks, options,
                     static_cast<std::int64_t>(orphans.size()),
                     elements_per_block, hint);
  std::size_t next_orphan = 0;
  while (next_orphan < orphans.size()) {
    for (const int r : active) {
      if (next_orphan >= orphans.size()) break;
      if (quota[static_cast<std::size_t>(r)] == 0) continue;
      --quota[static_cast<std::size_t>(r)];
      owners[orphans[next_orphan++]] = r;
    }
  }
  return owners;
}

}  // namespace

FtLuResult fault_tolerant_lu(const util::MatrixD& a, std::size_t block,
                             std::span<const int> block_owner, int ranks,
                             const FaultToleranceOptions& options) {
  validate_common(ranks, options);
  const std::size_t n = a.rows();
  if (a.cols() != n)
    throw std::invalid_argument("fault_tolerant_lu: matrix must be square");
  if (block == 0) throw std::invalid_argument("fault_tolerant_lu: block == 0");
  const std::size_t nb = (n + block - 1) / block;
  if (block_owner.size() != nb)
    throw std::invalid_argument("fault_tolerant_lu: one owner per block");
  for (const int o : block_owner)
    if (o < 0 || o >= ranks)
      throw std::invalid_argument("fault_tolerant_lu: owner out of range");
  const int interval = options.checkpoint_interval;

  const auto width_of = [&](std::size_t kb) {
    return std::min(block, n - kb * block);
  };

  // Items 0..nb-1 hold the column blocks (n x width, flat); item nb is the
  // pivot record [status, pivots_0 .. pivots_{n-1}]. Version = completed
  // panel steps (nb = finished, possibly early via a singular panel).
  const auto record_item = static_cast<std::int64_t>(nb);
  CheckpointStore store(record_item + 1);
  for (std::size_t kb = 0; kb < nb; ++kb) {
    const std::size_t w = width_of(kb);
    std::vector<double> flat;
    flat.reserve(n * w);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < w; ++j)
        flat.push_back(a(i, kb * block + j));
    store.save(0, static_cast<std::int64_t>(kb), std::move(flat));
  }
  {
    std::vector<double> record(1 + n, 0.0);
    record[0] = 1.0;
    store.save(0, record_item, std::move(record));
  }

  FtLuResult out;
  out.lu = util::MatrixD(n, n);
  out.pivots.assign(n, 0);
  std::atomic<int> recoveries{0};

  const std::vector<int> base_owner(block_owner.begin(), block_owner.end());

  const RunReport report = run_parallel(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    // Warm-starts each recovery's orphan redistribution from the slope the
    // previous failure settled on (same curves, one survivor fewer).
    core::PartitionHint part_hint;
    for (;;) {
      try {
        const std::vector<int> active = comm.alive_ranks();
        const int from = store.latest_complete();
        const std::vector<int> owners =
            owners_over(base_owner, active, ranks, options,
                        static_cast<double>(n * block), &part_hint);

        std::map<std::size_t, util::MatrixD> mine;
        for (std::size_t kb = 0; kb < nb; ++kb) {
          if (owners[kb] != me) continue;
          const std::size_t w = width_of(kb);
          const auto flat = store.load(from, static_cast<std::int64_t>(kb));
          util::MatrixD cols(n, w);
          std::copy(flat.begin(), flat.end(), cols.flat().begin());
          mine.emplace(kb, std::move(cols));
        }
        std::vector<std::size_t> pivots(n, 0);
        bool singular = false;
        {
          const auto record = store.load(from, record_item);
          singular = record[0] == 0.0;
          for (std::size_t g = 0; g < n; ++g)
            pivots[g] = static_cast<std::size_t>(record[1 + g]);
        }

        const auto checkpoint = [&](int version, double status) {
          for (const auto& [idx, cols] : mine)
            store.save(version, static_cast<std::int64_t>(idx),
                       std::vector<double>(cols.flat().begin(),
                                           cols.flat().end()));
          if (me == active.front()) {
            std::vector<double> record(1 + n);
            record[0] = status;
            for (std::size_t g = 0; g < n; ++g)
              record[1 + g] = static_cast<double>(pivots[g]);
            store.save(version, record_item, std::move(record));
          }
          comm.barrier();  // the checkpoint commit point
        };

        for (std::size_t kb = static_cast<std::size_t>(from);
             kb < nb && !singular; ++kb) {
          comm.at_step(static_cast<int>(kb));
          const std::size_t col0 = kb * block;
          const std::size_t w = width_of(kb);
          const int owner = owners[kb];

          // Panel factorization by the owner (identical arithmetic to
          // distributed_lu — only the owner may differ after recovery).
          std::vector<double> payload;
          if (owner == me) {
            util::MatrixD& panel = mine.at(kb);
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
              for (std::size_t j = 0; j < w; ++j)
                payload.push_back(panel(i, j));
          }
          payload = comm.broadcast(owner, payload);
          if (payload[0] == 0.0) {
            singular = true;
            break;
          }
          for (std::size_t jl = 0; jl < w; ++jl)
            pivots[col0 + jl] = static_cast<std::size_t>(payload[1 + jl]);
          const std::size_t panel_rows = n - col0;
          const auto panel_at = [&](std::size_t i, std::size_t j) {
            return payload[1 + w + i * w + j];  // i relative to col0
          };

          for (auto& [idx, cols] : mine) {
            if (idx == kb) continue;
            for (std::size_t jl = 0; jl < w; ++jl) {
              const std::size_t g = col0 + jl;
              const std::size_t piv = pivots[g];
              if (piv != g)
                for (std::size_t j = 0; j < cols.cols(); ++j)
                  std::swap(cols(g, j), cols(piv, j));
            }
          }
          for (auto& [idx, cols] : mine) {
            if (idx <= kb) continue;
            const std::size_t cw = cols.cols();
            for (std::size_t jl = 0; jl < w; ++jl)
              for (std::size_t i = jl + 1; i < w; ++i) {
                const double l = panel_at(i, jl);
                if (l == 0.0) continue;
                for (std::size_t j = 0; j < cw; ++j)
                  cols(col0 + i, j) -= l * cols(col0 + jl, j);
              }
            for (std::size_t i = w; i < panel_rows; ++i)
              for (std::size_t jl = 0; jl < w; ++jl) {
                const double l = panel_at(i, jl);
                if (l == 0.0) continue;
                for (std::size_t j = 0; j < cw; ++j)
                  cols(col0 + i, j) -= l * cols(col0 + jl, j);
              }
          }

          const int done = static_cast<int>(kb) + 1;
          if (done % interval == 0 || done == static_cast<int>(nb))
            checkpoint(done, 1.0);
        }
        if (singular && from < static_cast<int>(nb))
          checkpoint(static_cast<int>(nb), 0.0);

        if (me == active.front()) {
          const auto record = store.load(static_cast<int>(nb), record_item);
          out.nonsingular = record[0] != 0.0;
          for (std::size_t g = 0; g < n; ++g)
            out.pivots[g] = static_cast<std::size_t>(record[1 + g]);
          for (std::size_t kb = 0; kb < nb; ++kb) {
            const std::size_t w = width_of(kb);
            const auto flat =
                store.load(static_cast<int>(nb), static_cast<std::int64_t>(kb));
            for (std::size_t i = 0; i < n; ++i)
              for (std::size_t j = 0; j < w; ++j)
                out.lu(i, kb * block + j) = flat[i * w + j];
          }
          out.final_block_owner = owners;
        }
        return;
      } catch (const RankFailedError& e) {
        if (fenced(e, comm)) throw;
        rendezvous(comm, store, recoveries);
      }
    }
  }, run_options(options));

  out.failed_ranks = report.failed_ranks;
  out.recoveries = recoveries.load();
  return out;
}

// ---------------------------------------------------------------------------
// Matrix multiplication
// ---------------------------------------------------------------------------

FtMmResult fault_tolerant_mm_abt(const util::MatrixD& a,
                                 const util::MatrixD& b, int ranks,
                                 const FaultToleranceOptions& options) {
  validate_common(ranks, options);
  if (a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows())
    throw std::invalid_argument("fault_tolerant_mm_abt: need equal square A, B");
  if (a.rows() == 0)
    throw std::invalid_argument("fault_tolerant_mm_abt: empty matrices");
  const std::size_t n = a.rows();

  // The ring holds no reusable intermediate state, so there is only one
  // checkpoint: version 1 = the finished C rows. A failure restarts the
  // multiplication from the (read-only) inputs over the survivors.
  CheckpointStore store(static_cast<std::int64_t>(n));

  FtMmResult out;
  out.c = util::MatrixD(n, n);
  std::atomic<int> recoveries{0};

  const RunReport report = run_parallel(ranks, [&](Communicator& comm) {
    const int me = comm.rank();
    // Post-failure restarts warm-start from the pre-failure slope.
    core::PartitionHint part_hint;
    for (;;) {
      try {
        const std::vector<int> active = comm.alive_ranks();
        const std::vector<std::int64_t> rows =
            partition_over(active, ranks, options,
                           static_cast<std::int64_t>(n),
                           static_cast<double>(n), &part_hint);
        const std::vector<std::size_t> first = prefix_offsets(rows);
        const auto my_rows =
            static_cast<std::size_t>(rows[static_cast<std::size_t>(me)]);
        const std::size_t my_first = first[static_cast<std::size_t>(me)];

        const int k = static_cast<int>(active.size());
        const int pos = static_cast<int>(
            std::find(active.begin(), active.end(), me) - active.begin());

        util::MatrixD my_a = a.slice_rows(my_first, my_rows);
        util::MatrixD held = b.slice_rows(my_first, my_rows);
        int held_owner = me;
        util::MatrixD my_c(my_rows, n);

        constexpr int kRingTag = 2;
        for (int step = 0; step < k; ++step) {
          comm.at_step(step);
          if (my_rows > 0 && held.rows() > 0) {
            const util::MatrixD blockc = linalg::matmul_abt_naive(my_a, held);
            const std::size_t col0 = first[static_cast<std::size_t>(held_owner)];
            for (std::size_t i = 0; i < my_rows; ++i)
              for (std::size_t j = 0; j < blockc.cols(); ++j)
                my_c(i, col0 + j) = blockc(i, j);
          }
          if (k == 1) break;
          const int next = active[static_cast<std::size_t>((pos + 1) % k)];
          const int prev =
              active[static_cast<std::size_t>((pos + k - 1) % k)];
          std::vector<double> packet;
          packet.reserve(held.size() + 3);
          packet.push_back(static_cast<double>(held.rows()));
          packet.insert(packet.end(), held.flat().begin(), held.flat().end());
          packet.push_back(static_cast<double>(held_owner));
          comm.send(next, kRingTag + step, packet);
          std::vector<double> incoming = comm.recv(prev, kRingTag + step);
          held_owner = static_cast<int>(incoming.back());
          incoming.pop_back();
          const auto in_rows = static_cast<std::size_t>(incoming.front());
          held = util::MatrixD(in_rows, n);
          std::copy(incoming.begin() + 1, incoming.end(),
                    held.flat().begin());
        }

        for (std::size_t i = 0; i < my_rows; ++i) {
          const auto row = my_c.row(i);
          store.save(1, static_cast<std::int64_t>(my_first + i),
                     std::vector<double>(row.begin(), row.end()));
        }
        comm.barrier();  // the result commit point

        if (me == active.front()) {
          for (std::size_t r = 0; r < n; ++r) {
            const auto data = store.load(1, static_cast<std::int64_t>(r));
            std::copy(data.begin(), data.end(), out.c.row(r).begin());
          }
          out.final_rows = rows;
        }
        return;
      } catch (const RankFailedError& e) {
        if (fenced(e, comm)) throw;
        rendezvous(comm, store, recoveries);
      }
    }
  }, run_options(options));

  out.failed_ranks = report.failed_ranks;
  out.recoveries = recoveries.load();
  return out;
}

}  // namespace fpm::mpp
