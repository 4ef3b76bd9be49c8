// Tests for the message-passing runtime and the truly distributed striped
// multiplication: point-to-point ordering, collectives, error propagation,
// and distributed-vs-serial numerical identity.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "linalg/kernels.hpp"
#include "mpp/distributed_mm.hpp"
#include "mpp/runtime.hpp"

namespace fpm::mpp {
namespace {

TEST(Runtime, RanksSeeTheirIdentity) {
  std::atomic<int> sum{0};
  run_parallel(4, [&](Communicator& comm) {
    EXPECT_EQ(comm.size(), 4);
    sum += comm.rank();
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(Runtime, SendRecvDeliversPayload) {
  run_parallel(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, std::vector<double>{1.5, 2.5, 3.5});
    } else {
      const auto got = comm.recv(0, 7);
      ASSERT_EQ(got.size(), 3u);
      EXPECT_DOUBLE_EQ(got[1], 2.5);
    }
  });
}

TEST(Runtime, FifoOrderPerSourceAndTag) {
  run_parallel(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      for (double v = 0.0; v < 32.0; v += 1.0)
        comm.send(1, 1, std::vector<double>{v});
    } else {
      for (double v = 0.0; v < 32.0; v += 1.0) {
        const auto got = comm.recv(0, 1);
        ASSERT_EQ(got.size(), 1u);
        EXPECT_DOUBLE_EQ(got[0], v);
      }
    }
  });
}

TEST(Runtime, TagsDoNotCross) {
  run_parallel(2, [](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 2, std::vector<double>{22.0});
      comm.send(1, 1, std::vector<double>{11.0});
    } else {
      // Receive in the opposite order of sending: tags must select.
      EXPECT_DOUBLE_EQ(comm.recv(0, 1)[0], 11.0);
      EXPECT_DOUBLE_EQ(comm.recv(0, 2)[0], 22.0);
    }
  });
}

TEST(Runtime, BarrierSynchronizes) {
  // Phase counter: every rank increments before the barrier; after it,
  // every rank must observe the full count.
  std::atomic<int> before{0};
  run_parallel(6, [&](Communicator& comm) {
    before.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(before.load(), 6);
    comm.barrier();  // reusable (generation counting)
  });
}

TEST(Runtime, BroadcastFromEveryRoot) {
  run_parallel(3, [](Communicator& comm) {
    for (int root = 0; root < 3; ++root) {
      std::vector<double> data;
      if (comm.rank() == root) data = {static_cast<double>(root), 42.0};
      const auto got = comm.broadcast(root, data);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_DOUBLE_EQ(got[0], root);
      EXPECT_DOUBLE_EQ(got[1], 42.0);
    }
  });
}

TEST(Runtime, GatherCollectsByRank) {
  run_parallel(4, [](Communicator& comm) {
    const std::vector<double> mine{static_cast<double>(comm.rank() * 10)};
    const auto all = comm.gather(2, mine);
    if (comm.rank() == 2) {
      ASSERT_EQ(all.size(), 4u);
      for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(all[r][0], r * 10.0);
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Runtime, ExceptionsPropagateAndUnblockPeers) {
  // Rank 1 throws while rank 0 is blocked in recv: the run must terminate
  // and rethrow the original error.
  EXPECT_THROW(run_parallel(2,
                            [](Communicator& comm) {
                              if (comm.rank() == 0) {
                                comm.recv(1, 9);  // never satisfied
                              } else {
                                throw std::runtime_error("boom");
                              }
                            }),
               std::runtime_error);
}

TEST(Runtime, ValidatesArguments) {
  EXPECT_THROW(run_parallel(0, [](Communicator&) {}), std::invalid_argument);
  run_parallel(2, [](Communicator& comm) {
    EXPECT_THROW(comm.send(5, 0, std::vector<double>{}),
                 std::invalid_argument);
    EXPECT_THROW(comm.send(-1, 0, std::vector<double>{}),
                 std::invalid_argument);
    EXPECT_THROW(comm.recv(-1, 0), std::invalid_argument);
    EXPECT_THROW(comm.recv(2, 0), std::invalid_argument);
    EXPECT_THROW(comm.broadcast(9, std::vector<double>{}),
                 std::invalid_argument);
    EXPECT_THROW(comm.gather(-3, std::vector<double>{}),
                 std::invalid_argument);
  });
}

TEST(Runtime, UnsatisfiableSelfRecvIsRejectedNotDeadlocked) {
  run_parallel(2, [](Communicator& comm) {
    // No queued self-message exists, and no other thread can ever produce
    // one: blocking would deadlock the rank forever.
    EXPECT_THROW(comm.recv(comm.rank(), 4), std::invalid_argument);
    // A buffered self-send makes the same recv legitimate.
    comm.send(comm.rank(), 4, std::vector<double>{9.0});
    EXPECT_DOUBLE_EQ(comm.recv(comm.rank(), 4)[0], 9.0);
  });
}

TEST(DistributedMm, MatchesSerialProductExactly) {
  for (const auto& rows : {std::vector<std::int64_t>{40},
                           {13, 27},
                           {10, 14, 16},
                           {1, 2, 3, 34},
                           {0, 20, 0, 20}}) {
    const std::int64_t n =
        std::accumulate(rows.begin(), rows.end(), std::int64_t{0});
    const util::MatrixD a =
        linalg::random_matrix(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(n), 5);
    const util::MatrixD b =
        linalg::random_matrix(static_cast<std::size_t>(n),
                              static_cast<std::size_t>(n), 6);
    const DistributedMmResult result = distributed_mm_abt(a, b, rows);
    const util::MatrixD serial = linalg::matmul_abt_naive(a, b);
    EXPECT_DOUBLE_EQ(util::max_abs_diff(result.c, serial), 0.0)
        << rows.size() << " ranks";
  }
}

TEST(DistributedMm, ReportsPerRankComputeTimes) {
  const std::vector<std::int64_t> rows{24, 24};
  const util::MatrixD a = linalg::random_matrix(48, 48, 7);
  const util::MatrixD b = linalg::random_matrix(48, 48, 8);
  const DistributedMmResult result = distributed_mm_abt(a, b, rows);
  ASSERT_EQ(result.compute_seconds.size(), 2u);
  for (const double t : result.compute_seconds) EXPECT_GT(t, 0.0);
}

TEST(DistributedMm, WorkMultiplierSlowsARank) {
  const std::vector<std::int64_t> rows{32, 32};
  const util::MatrixD a = linalg::random_matrix(64, 64, 9);
  const util::MatrixD b = linalg::random_matrix(64, 64, 10);
  const std::vector<int> mult{1, 8};
  const DistributedMmResult result = distributed_mm_abt(a, b, rows, mult);
  // Numerics unaffected...
  EXPECT_DOUBLE_EQ(
      util::max_abs_diff(result.c, linalg::matmul_abt_naive(a, b)), 0.0);
  // ...but rank 1 does measurably more work. Flops, not seconds: a
  // wall-clock ratio between two threads flips when a loaded host preempts
  // the faster rank.
  EXPECT_GT(result.compute_flops[1], 3 * result.compute_flops[0]);
}

TEST(DistributedMm, ValidatesArguments) {
  const util::MatrixD sq = linalg::random_matrix(8, 8, 1);
  const util::MatrixD rect = linalg::random_matrix(8, 4, 1);
  EXPECT_THROW(distributed_mm_abt(rect, rect, std::vector<std::int64_t>{8}),
               std::invalid_argument);
  EXPECT_THROW(distributed_mm_abt(sq, sq, std::vector<std::int64_t>{4}),
               std::invalid_argument);
  EXPECT_THROW(distributed_mm_abt(sq, sq, std::vector<std::int64_t>{}),
               std::invalid_argument);
  EXPECT_THROW(distributed_mm_abt(sq, sq, std::vector<std::int64_t>{8},
                                  std::vector<int>{0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fpm::mpp
