// A tiny process-wide helper pool for splitting one intersect_all sweep
// across cores at large p. This is deliberately NOT the PartitionServer's
// worker pool: that pool parallelizes across *requests* and its threads are
// the very callers of the solve path, so borrowing it for intra-solve
// parallelism would deadlock a fully-loaded server (every worker waiting
// for a worker). The lane pool is lazily created, sized
// hardware_concurrency() - 1, and the *calling* thread always participates
// in the chunk loop — with zero helpers (single-core hosts, or before any
// pool exists) parallel_for_chunks degrades to a plain serial loop with no
// thread machinery touched.
#pragma once

#include <cstddef>
#include <functional>

namespace fpm::core::detail {

/// Helper-thread count the lane pool uses (excludes the calling thread).
/// Defaults to hardware_concurrency() - 1, resolved once on first use. Calling
/// set_lane_pool_threads before the pool's first parallel run overrides the
/// default (tests and benches pin this for determinism of *scheduling*;
/// results never depend on it). Once the pool has started, later calls are
/// recorded but have no effect on the running pool.
void set_lane_pool_threads(unsigned n) noexcept;
unsigned lane_pool_threads() noexcept;

/// Invokes fn(chunk) for every chunk in [0, chunk_count), spread across the
/// calling thread plus the lane-pool helpers; returns only after every
/// chunk completed. fn must be safe to call concurrently for distinct
/// chunks. Serial (and pool-free) when chunk_count < 2 or no helpers are
/// configured. Concurrent calls from different threads serialize against
/// each other — the unit of parallelism is one solve's sweep.
void parallel_for_chunks(std::size_t chunk_count,
                         const std::function<void(std::size_t)>& fn);

}  // namespace fpm::core::detail
