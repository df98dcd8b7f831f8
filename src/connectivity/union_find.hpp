#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

/// \file union_find.hpp
/// Sequential disjoint-set forest (union by rank, path halving).
///
/// Used by the certificate checks in core/validate.cpp and, in the
/// tests, as the sequential oracle for the parallel connected-components
/// routines and the cycle check on spanning forests.

namespace parbcc {

class UnionFind {
 public:
  explicit UnionFind(vid n) : parent_(n), rank_(n, 0) {
    for (vid v = 0; v < n; ++v) parent_[v] = v;
  }

  vid find(vid v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];  // path halving
      v = parent_[v];
    }
    return v;
  }

  /// Union the sets of a and b; returns true iff they were distinct.
  bool unite(vid a, vid b) {
    vid ra = find(a);
    vid rb = find(b);
    if (ra == rb) return false;
    if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    if (rank_[ra] == rank_[rb]) ++rank_[ra];
    return true;
  }

  bool same(vid a, vid b) { return find(a) == find(b); }

 private:
  std::vector<vid> parent_;
  std::vector<std::uint8_t> rank_;
};

}  // namespace parbcc
