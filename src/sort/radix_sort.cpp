#include "sort/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <type_traits>
#include <vector>

#include "util/padded.hpp"

namespace parbcc {
namespace {

/// Widest digit we use: 2048 buckets keep the per-thread histogram and
/// cursor table comfortably inside L1/L2.
constexpr int kMaxRadixBits = 11;

/// One stable distribution pass over `bits` bits starting at `shift`.
/// `V` is the payload type.  `hist` is the caller's p * 2^bits scratch
/// matrix (overwritten).
template <class V>
void radix_pass(Executor& ex, std::span<std::size_t> hist,
                const std::uint64_t* keys_in, std::uint64_t* keys_out,
                const V* vals_in, V* vals_out, std::size_t n, int shift,
                int bits) {
  const int p = ex.threads();
  const std::size_t np = static_cast<std::size_t>(p);
  const std::size_t buckets = std::size_t{1} << bits;
  const std::uint64_t mask = buckets - 1;
  // hist[t * buckets + d]: thread t's count for digit d; reused as the
  // scatter cursor after the layout step.
  std::fill(hist.begin(), hist.begin() + np * buckets, std::size_t{0});

  ex.run([&](int tid) {
    const std::size_t ut = static_cast<std::size_t>(tid);
    auto [begin, end] = Executor::block_range(n, p, tid);
    std::size_t* h = hist.data() + ut * buckets;
    for (std::size_t i = begin; i < end; ++i) {
      ++h[(keys_in[i] >> shift) & mask];
    }
    ex.barrier().wait();
    if (tid == 0) {
      // Column-major exclusive scan: digit-major then thread-major, so
      // the permutation is stable.
      std::size_t running = 0;
      for (std::size_t d = 0; d < buckets; ++d) {
        for (std::size_t t = 0; t < np; ++t) {
          const std::size_t c = hist[t * buckets + d];
          hist[t * buckets + d] = running;
          running += c;
        }
      }
    }
    ex.barrier().wait();
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t d = (keys_in[i] >> shift) & mask;
      const std::size_t dst = h[d]++;
      keys_out[dst] = keys_in[i];
      vals_out[dst] = vals_in[i];
    }
  });
}

template <class V>
void radix_sort_impl(Executor& ex, Workspace& ws, std::uint64_t* keys,
                     V* vals, std::size_t n) {
  if (n < 2) return;

  // Serial cutoff: the counting machinery costs more than std::sort.
  if (ex.threads() == 1 && n < 2048) {
    std::vector<std::pair<std::uint64_t, V>> kv(n);
    for (std::size_t i = 0; i < n; ++i) kv[i] = {keys[i], vals[i]};
    std::stable_sort(
        kv.begin(), kv.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 0; i < n; ++i) {
      keys[i] = kv[i].first;
      vals[i] = kv[i].second;
    }
    return;
  }

  std::uint64_t max_key = 0;
  for (std::size_t i = 0; i < n; ++i) max_key |= keys[i];
  int key_bits = 0;
  while (max_key != 0) {
    ++key_bits;
    max_key >>= 1;
  }
  if (key_bits == 0) return;  // all keys zero: already sorted
  // Fewest passes first, then the narrowest digit that still fits:
  // e.g. 20-bit keys sort in two 10-bit passes, not three 8-bit ones.
  const int passes = (key_bits + kMaxRadixBits - 1) / kMaxRadixBits;
  const int digit_bits = (key_bits + passes - 1) / passes;

  Workspace::Frame frame(ws);
  const std::size_t np = static_cast<std::size_t>(ex.threads());
  std::span<std::size_t> hist =
      ws.alloc<std::size_t>(np * (std::size_t{1} << digit_bits));
  std::span<std::uint64_t> key_buf = ws.alloc<std::uint64_t>(n);
  std::span<V> val_buf = ws.alloc<V>(n);

  std::uint64_t* kin = keys;
  std::uint64_t* kout = key_buf.data();
  V* vin = vals;
  V* vout = val_buf.data();

  for (int pass = 0; pass < passes; ++pass) {
    radix_pass<V>(ex, hist, kin, kout, vin, vout, n, pass * digit_bits,
                  std::min(digit_bits, key_bits - pass * digit_bits));
    std::swap(kin, kout);
    std::swap(vin, vout);
  }
  // After an odd number of passes the result lives in the buffers.
  if (kin != keys) {
    std::memcpy(keys, kin, n * sizeof(std::uint64_t));
    std::memcpy(vals, vin, n * sizeof(V));
  }
}

}  // namespace

void radix_sort_u64(Executor& ex, Workspace& ws,
                    std::span<std::uint64_t> keys) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  if (ex.threads() == 1 && n < 2048) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  // Key-only sort rides the kv machinery with a zero-byte-ish payload;
  // a dedicated path is not worth the duplication at these sizes.
  Workspace::Frame frame(ws);
  std::span<std::uint8_t> dummy = ws.alloc<std::uint8_t>(n);
  std::fill(dummy.begin(), dummy.end(), std::uint8_t{0});
  radix_sort_impl<std::uint8_t>(ex, ws, keys.data(), dummy.data(), n);
}

void radix_sort_kv(Executor& ex, Workspace& ws, std::span<std::uint64_t> keys,
                   std::span<std::uint32_t> vals) {
  radix_sort_impl<std::uint32_t>(ex, ws, keys.data(), vals.data(),
                                 keys.size());
}

void radix_sort_kv64(Executor& ex, Workspace& ws,
                     std::span<std::uint64_t> keys,
                     std::span<std::uint64_t> vals) {
  radix_sort_impl<std::uint64_t>(ex, ws, keys.data(), vals.data(),
                                 keys.size());
}

}  // namespace parbcc
