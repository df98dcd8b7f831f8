#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "util/types.hpp"

/// \file edge_list.hpp
/// The library's interchange representation: a flat list of undirected
/// edges.  Tarjan-Vishkin takes an edge list as input (paper §2), and
/// every result labels edges by their index in this list.

namespace parbcc {

/// One undirected edge {u, v}.  Orientation is storage only.
struct Edge {
  vid u;
  vid v;

  friend bool operator==(const Edge&, const Edge&) = default;

  /// The endpoint that is not `x` (precondition: x is an endpoint).
  vid other(vid x) const { return x == u ? v : u; }
};

/// The largest counts an untrusted input (text or .pbg) may declare:
/// n stays clear of the kNoVertex sentinel, and 2m arcs fit an eid.
inline constexpr std::uint64_t kMaxVertices = kNoVertex - 1;
inline constexpr std::uint64_t kMaxEdges = 0x7fffffffull;

/// Storage for an edge array that either owns a vector or borrows a
/// read-only span (e.g. the edges section of an mmap'd .pbg file — see
/// io_binary.hpp).  Borrowing is what makes zero-copy ingestion
/// possible: a mapped graph's edges flow through every solver without
/// ever being copied into the heap.
///
/// The interface is the vector subset the codebase uses.  Const access
/// reads the active view; any mutating call on a borrowed store first
/// materializes a private owning copy (copy-on-write), so existing
/// mutation-heavy code (batch_dynamic's standing graph, generators,
/// readers) is correct regardless of where the edges came from.
/// Because overload resolution picks the non-const accessors on any
/// non-const EdgeStore, an accidental mutable iteration silently pays
/// that copy — materialize_count() makes it observable.  The
/// referenced storage of a borrowed store must outlive every read —
/// callers adopting mapped memory keep the mapping alive (see
/// BccContext::adopt).
class EdgeStore {
 public:
  using value_type = Edge;
  using iterator = Edge*;
  using const_iterator = const Edge*;

  EdgeStore() = default;
  EdgeStore(std::vector<Edge> v)
      : own_(std::move(v)), view_(own_.data(), own_.size()) {}

  /// A non-owning view over caller-managed storage.
  static EdgeStore borrow(std::span<const Edge> s) {
    EdgeStore e;
    e.view_ = s;
    e.borrowed_ = true;
    return e;
  }

  // A copy of an owning store deep-copies (and re-points the view at
  // the copy); a copy of a borrowed store stays a borrow of the same
  // storage — copies share the original's lifetime obligation.
  EdgeStore(const EdgeStore& o) : own_(o.own_), borrowed_(o.borrowed_) {
    view_ = borrowed_ ? o.view_ : std::span<const Edge>(own_);
  }
  EdgeStore& operator=(const EdgeStore& o) {
    if (this != &o) {
      own_ = o.own_;
      borrowed_ = o.borrowed_;
      view_ = borrowed_ ? o.view_ : std::span<const Edge>(own_);
    }
    return *this;
  }
  // Vector moves keep their heap buffer, so the moved view stays valid.
  EdgeStore(EdgeStore&& o) noexcept
      : own_(std::move(o.own_)), view_(o.view_), borrowed_(o.borrowed_) {
    o.view_ = {};
    o.own_.clear();
    o.borrowed_ = false;
  }
  EdgeStore& operator=(EdgeStore&& o) noexcept {
    if (this != &o) {
      own_ = std::move(o.own_);
      view_ = o.view_;
      borrowed_ = o.borrowed_;
      o.view_ = {};
      o.own_.clear();
      o.borrowed_ = false;
    }
    return *this;
  }

  bool is_borrowed() const { return borrowed_; }

  /// Process-wide count of borrow -> own materializations.  Each one is
  /// an O(m) heap copy of a mapped edges section, so a rising count on
  /// a zero-copy path means some caller reached a *non-const* accessor
  /// on an adopted graph (e.g. `for (Edge& e : g.edges)` on a non-const
  /// EdgeList) — pass the graph const to keep the borrow.  io_test
  /// pins this at zero across mmap-backed solves.
  static std::size_t materialize_count() {
    return materialize_count_.load(std::memory_order_relaxed);
  }

  const Edge* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const Edge& operator[](std::size_t i) const { return view_[i]; }
  const Edge& back() const { return view_.back(); }
  const_iterator begin() const { return view_.data(); }
  const_iterator end() const { return view_.data() + view_.size(); }
  operator std::span<const Edge>() const { return view_; }

  friend bool operator==(const EdgeStore& a, const EdgeStore& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }

  Edge* data() { return materialize().data(); }
  Edge& operator[](std::size_t i) { return materialize()[i]; }
  Edge& back() { return materialize().back(); }
  iterator begin() { return materialize().data(); }
  iterator end() {
    std::vector<Edge>& v = materialize();
    return v.data() + v.size();
  }
  void push_back(Edge e) {
    materialize().push_back(e);
    view_ = {own_.data(), own_.size()};
  }
  void pop_back() {
    materialize().pop_back();
    view_ = {own_.data(), own_.size()};
  }
  void reserve(std::size_t c) {
    materialize().reserve(c);
    view_ = {own_.data(), own_.size()};
  }
  void resize(std::size_t s) {
    materialize().resize(s);
    view_ = {own_.data(), own_.size()};
  }
  void clear() {
    own_.clear();
    borrowed_ = false;
    view_ = {};
  }

 private:
  /// Switch to owning storage, copying the borrowed view if needed.
  std::vector<Edge>& materialize() {
    if (borrowed_) {
      own_.assign(view_.begin(), view_.end());
      borrowed_ = false;
      view_ = {own_.data(), own_.size()};
      materialize_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return own_;
  }

  static inline std::atomic<std::size_t> materialize_count_{0};

  std::vector<Edge> own_;
  std::span<const Edge> view_;
  bool borrowed_ = false;
};

/// An undirected graph as n vertices plus an edge list.
/// Vertices are [0, n).  Parallel edges are permitted (they are
/// biconnectivity-relevant: a doubled edge is never a bridge);
/// self-loops are rejected by validate() — strip them first with
/// remove_self_loops() if an input may contain any.
struct EdgeList {
  vid n = 0;
  EdgeStore edges;

  EdgeList() = default;
  EdgeList(vid num_vertices, std::vector<Edge> e)
      : n(num_vertices), edges(std::move(e)) {}

  eid m() const { return static_cast<eid>(edges.size()); }

  void add_edge(vid u, vid v) { edges.push_back({u, v}); }

  /// True iff all endpoints are in range and there are no self-loops.
  bool validate() const {
    for (const Edge& e : edges) {
      if (e.u >= n || e.v >= n || e.u == e.v) return false;
    }
    return true;
  }
};

/// Copy of `g` without self-loops; `kept[i]` gets the original index of
/// surviving edge i when non-null.
inline EdgeList remove_self_loops(const EdgeList& g,
                                  std::vector<eid>* kept = nullptr) {
  EdgeList out;
  out.n = g.n;
  out.edges.reserve(g.edges.size());
  if (kept) kept->clear();
  for (eid i = 0; i < g.m(); ++i) {
    if (g.edges[i].u != g.edges[i].v) {
      out.edges.push_back(g.edges[i]);
      if (kept) kept->push_back(i);
    }
  }
  return out;
}

}  // namespace parbcc
