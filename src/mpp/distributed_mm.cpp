#include "mpp/distributed_mm.hpp"

#include <numeric>
#include <stdexcept>

#include "linalg/kernels.hpp"
#include "util/timer.hpp"

namespace fpm::mpp {
namespace {

constexpr int kSliceTag = 1;    // scatter of A/B slices
constexpr int kRingTag = 2;     // circulating B slices

/// Serializes rows x cols starting with a 2-element header so slices of
/// unknown size can travel as flat payloads.
std::vector<double> pack(const util::MatrixD& m) {
  std::vector<double> payload;
  payload.reserve(2 + m.size());
  payload.push_back(static_cast<double>(m.rows()));
  payload.push_back(static_cast<double>(m.cols()));
  payload.insert(payload.end(), m.flat().begin(), m.flat().end());
  return payload;
}

util::MatrixD unpack(const std::vector<double>& payload) {
  if (payload.size() < 2)
    throw std::runtime_error("distributed_mm: malformed slice payload");
  const auto rows = static_cast<std::size_t>(payload[0]);
  const auto cols = static_cast<std::size_t>(payload[1]);
  if (payload.size() != 2 + rows * cols)
    throw std::runtime_error("distributed_mm: slice size mismatch");
  util::MatrixD m(rows, cols);
  std::copy(payload.begin() + 2, payload.end(), m.flat().begin());
  return m;
}

}  // namespace

DistributedMmResult distributed_mm_abt(
    const util::MatrixD& a, const util::MatrixD& b,
    std::span<const std::int64_t> rows,
    std::span<const int> work_multiplier) {
  if (a.rows() != a.cols() || b.rows() != b.cols() || a.rows() != b.rows())
    throw std::invalid_argument("distributed_mm_abt: need equal square A, B");
  if (rows.empty())
    throw std::invalid_argument("distributed_mm_abt: no ranks");
  const std::int64_t total =
      std::accumulate(rows.begin(), rows.end(), std::int64_t{0});
  if (total != static_cast<std::int64_t>(a.rows()))
    throw std::invalid_argument("distributed_mm_abt: rows do not cover A");
  if (!work_multiplier.empty() && work_multiplier.size() != rows.size())
    throw std::invalid_argument("distributed_mm_abt: multiplier size");
  for (const int m : work_multiplier)
    if (m < 1)
      throw std::invalid_argument("distributed_mm_abt: multiplier < 1");

  const int p = static_cast<int>(rows.size());
  const std::size_t n = a.rows();

  // First row index of every rank's slice.
  std::vector<std::size_t> first(static_cast<std::size_t>(p) + 1, 0);
  for (int r = 0; r < p; ++r)
    first[r + 1] = first[r] + static_cast<std::size_t>(rows[r]);

  DistributedMmResult result;
  result.c = util::MatrixD(n, n);
  result.compute_seconds.assign(static_cast<std::size_t>(p), 0.0);
  result.compute_flops.assign(static_cast<std::size_t>(p), 0);

  run_parallel(p, [&](Communicator& comm) {
    const int me = comm.rank();
    const auto my_rows = static_cast<std::size_t>(rows[me]);

    // --- Scatter: rank 0 ships each rank its A and B slices. ---
    util::MatrixD my_a(0, 0), my_b(0, 0);
    if (me == 0) {
      for (int r = 1; r < p; ++r) {
        comm.send(r, kSliceTag,
                  pack(a.slice_rows(first[r], static_cast<std::size_t>(rows[r]))));
        comm.send(r, kSliceTag,
                  pack(b.slice_rows(first[r], static_cast<std::size_t>(rows[r]))));
      }
      my_a = a.slice_rows(0, my_rows);
      my_b = b.slice_rows(0, my_rows);
    } else {
      my_a = unpack(comm.recv(0, kSliceTag));
      my_b = unpack(comm.recv(0, kSliceTag));
    }

    // --- Ring: p steps; at step s this rank holds the B slice that
    // started at rank (me + s) mod p. ---
    util::MatrixD my_c(my_rows, n);
    util::MatrixD held = std::move(my_b);
    int held_owner = me;
    const int mult =
        work_multiplier.empty() ? 1 : work_multiplier[static_cast<std::size_t>(me)];
    util::Timer timer;
    double compute_s = 0.0;
    std::int64_t flops = 0;
    for (int step = 0; step < p; ++step) {
      // Multiply own A slice against the held B slice: produces the C
      // columns belonging to the held slice's global rows.
      if (my_rows > 0 && held.rows() > 0) {
        timer.reset();
        util::MatrixD block(0, 0);
        for (int repeat = 0; repeat < mult; ++repeat)
          block = linalg::matmul_abt_naive(my_a, held);
        compute_s += timer.seconds();
        flops += std::int64_t{2} * mult *
                 static_cast<std::int64_t>(my_rows * held.rows() * n);
        const std::size_t col0 = first[held_owner];
        for (std::size_t i = 0; i < my_rows; ++i)
          for (std::size_t j = 0; j < block.cols(); ++j)
            my_c(i, col0 + j) = block(i, j);
      }
      if (p == 1) break;
      // Pass the held slice along the ring (send before recv is safe: the
      // runtime buffers sends). Tag by owner so steps cannot cross.
      const int next = (me + 1) % p;
      const int prev = (me + p - 1) % p;
      std::vector<double> packet = pack(held);
      packet.push_back(static_cast<double>(held_owner));
      comm.send(next, kRingTag + step, packet);
      std::vector<double> incoming = comm.recv(prev, kRingTag + step);
      held_owner = static_cast<int>(incoming.back());
      incoming.pop_back();
      held = unpack(incoming);
    }

    // --- Gather C slices and timings at rank 0. ---
    const auto c_slices = comm.gather(0, pack(my_c));
    const auto times = comm.gather(
        0, std::vector<double>{compute_s, static_cast<double>(flops)});
    if (me == 0) {
      for (int r = 0; r < p; ++r) {
        const util::MatrixD slice = unpack(c_slices[static_cast<std::size_t>(r)]);
        if (slice.rows() > 0) result.c.paste_rows(first[r], slice);
        result.compute_seconds[static_cast<std::size_t>(r)] =
            times[static_cast<std::size_t>(r)][0];
        result.compute_flops[static_cast<std::size_t>(r)] =
            static_cast<std::int64_t>(times[static_cast<std::size_t>(r)][1]);
      }
    }
  });
  return result;
}

}  // namespace fpm::mpp
