#include "core/batch_dynamic.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/bcc.hpp"
#include "core/hopcroft_tarjan.hpp"
#include "graph/csr.hpp"

namespace parbcc {

BatchDynamicBcc::BatchDynamicBcc(BccContext& ctx, EdgeList base,
                                 const BatchDynamicOptions& options)
    : ctx_(ctx), opt_(options), g_(std::move(base)), trace_(options.trace) {
  if (!g_.validate()) {
    throw std::invalid_argument(
        "BatchDynamicBcc: base graph must be loop-free with in-range "
        "endpoints");
  }
  full_solve();
  reseed_components();
  // The seeding solve leaves g_'s CSR in the conversion cache (a
  // disconnected base may need one parallel build here); each incidence
  // list is one sized copy of its CSR row.
  const Csr& csr = ctx_.prepare(g_).csr();
  adj_.assign(g_.n, {});
  ctx_.executor().parallel_for(g_.n, [&](std::size_t v) {
    const auto nbrs = csr.neighbors(static_cast<vid>(v));
    const auto eids = csr.incident_edges(static_cast<vid>(v));
    auto& list = adj_[v];
    list.resize(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) list[i] = {nbrs[i], eids[i]};
  });
  arc_pos_.resize(g_.m());
  ctx_.executor().parallel_for(g_.n, [&](std::size_t v) {
    const auto& list = adj_[v];
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto [y, e] = list[i];
      arc_pos_[e][arc_side(static_cast<vid>(v), y)] =
          static_cast<std::uint32_t>(i);
    }
  });
  touch_mark_.assign(g_.n, 0);
  mark_a_.assign(g_.n, 0);
  mark_b_.assign(g_.n, 0);
  par_a_.assign(g_.n, kNoEdge);
  par_b_.assign(g_.n, kNoEdge);
  compact_.resize(g_.n);
}

void BatchDynamicBcc::full_solve() {
  // A full solve restarts the label space: its labels are contiguous in
  // [0, num_components) (bcc_result.hpp), and it lists the bridges.
  result_ = biconnected_components(ctx_, g_, BccOptions{});
  next_label_ = result_.num_components;
  bridge_mask_.assign(g_.m(), 0);
  for (const eid b : result_.bridges) bridge_mask_[b] = 1;
}

void BatchDynamicBcc::reseed_components() {
  // SV's smallest-vertex-id labels are valid roots in [0, n) under an
  // identity union-find.  Construction and every fallback re-solve come
  // through here; the incremental path maintains the ids instead.
  comp_id_.resize(g_.n);
  connected_components_sv(ctx_.executor(), ctx_.workspace(), g_.n, g_.edges,
                          comp_id_);
  comp_parent_.resize(g_.n);
  for (vid v = 0; v < g_.n; ++v) comp_parent_[v] = v;
  comp_size_.assign(g_.n, 0);
  for (vid v = 0; v < g_.n; ++v) ++comp_size_[comp_id_[v]];
}

vid BatchDynamicBcc::comp_find(vid c) {
  while (comp_parent_[c] != c) {
    comp_parent_[c] = comp_parent_[comp_parent_[c]];
    c = comp_parent_[c];
  }
  return c;
}

void BatchDynamicBcc::comp_join(vid u, vid v) {
  vid a = comp_of(u);
  vid b = comp_of(v);
  if (a == b) return;
  if (comp_size_[a] < comp_size_[b]) std::swap(a, b);
  comp_parent_[b] = a;
  comp_size_[a] += comp_size_[b];
}

std::uint32_t BatchDynamicBcc::next_search_epoch() {
  if (++search_epoch_ == 0) {
    // Epoch wrap: old stamps could alias the fresh epoch, so reset.
    std::fill(mark_a_.begin(), mark_a_.end(), 0u);
    std::fill(mark_b_.begin(), mark_b_.end(), 0u);
    search_epoch_ = 1;
  }
  return search_epoch_;
}

bool BatchDynamicBcc::split_check(vid u, vid v, bool was_bridge) {
  const std::uint32_t cur = next_search_epoch();
  std::vector<std::uint32_t>* mark[2] = {&mark_a_, &mark_b_};
  std::vector<vid>* front[2] = {&front_a_, &front_b_};
  std::vector<vid>* next[2] = {&next_a_, &next_b_};
  std::vector<vid>* visits[2] = {&visits_a_, &visits_b_};
  const vid src[2] = {u, v};
  vid explored[2] = {1, 1};
  std::size_t cost[2] = {adj_[u].size(), adj_[v].size()};
  for (int s = 0; s < 2; ++s) {
    front[s]->clear();
    front[s]->push_back(src[s]);
    visits[s]->clear();
    visits[s]->push_back(src[s]);
    (*mark[s])[src[s]] = cur;
  }

  // Expand the cheaper live frontier (fewer arcs to scan, so a hub
  // endpoint waits) until contact (still connected) or a side runs dry
  // (that side is the detached component).  A deleted non-bridge edge
  // lies on a cycle, so the meet arrives within that cycle's ball —
  // small for the peripheral blocks churn targets.  A deleted bridge
  // can never meet; the sides only race to run dry.
  while (true) {
    const bool can0 = !front[0]->empty() && explored[0] <= kSearchCap;
    const bool can1 = !front[1]->empty() && explored[1] <= kSearchCap;
    int s;
    if (can0 && can1) {
      s = cost[0] <= cost[1] ? 0 : 1;
    } else if (can0) {
      s = 0;
    } else if (can1) {
      s = 1;
    } else if (!front[0]->empty() && !front[1]->empty()) {
      return false;  // both sides capped: verdict unaffordable
    } else {
      break;
    }
    const int o = 1 - s;
    next[s]->clear();
    cost[s] = 0;
    for (const vid x : *front[s]) {
      for (const auto& [y, e] : adj_[x]) {
        (void)e;
        if (!was_bridge && (*mark[o])[y] == cur) {
          return true;  // connected, no split
        }
        if ((*mark[s])[y] == cur) continue;
        (*mark[s])[y] = cur;
        ++explored[s];
        next[s]->push_back(y);
        visits[s]->push_back(y);
        cost[s] += adj_[y].size();
      }
    }
    std::swap(*front[s], *next[s]);
    if (front[s]->empty()) break;  // first exhaust wins
  }

  // The dried side has enumerated the detached component: relabel it
  // under a fresh id appended to the union-find, and move its head
  // count out of the surviving component.
  const int side = front[0]->empty() ? 0 : 1;
  const vid old_root = comp_of(src[side]);
  const vid cnt = static_cast<vid>(visits[side]->size());
  const vid fresh = static_cast<vid>(comp_parent_.size());
  comp_parent_.push_back(fresh);
  comp_size_.push_back(cnt);
  comp_size_[old_root] -= cnt;
  for (const vid x : *visits[side]) comp_id_[x] = fresh;
  return true;
}

void BatchDynamicBcc::prefetch_batch(std::span<const Edge> insertions) {
  const auto pf = [](const void* p) { __builtin_prefetch(p); };
  const std::vector<vid>& lab = result_.edge_component;
  const eid m = g_.m();
  // The edges the deletions will move into their holes: the tail.
  const eid tail = m - std::min<eid>(m, static_cast<eid>(del_scratch_.size()));
  // Wave 1: per-edge entries of the deleted edges, per-vertex entries
  // of the inserted endpoints.
  for (const eid e : del_scratch_) {
    pf(&g_.edges[e]);
    pf(&lab[e]);
    pf(&bridge_mask_[e]);
    pf(&edge_slot_[e]);
    pf(&arc_pos_[e]);
  }
  for (const Edge& e : insertions) {
    for (const vid w : {e.u, e.v}) {
      pf(&comp_id_[w]);
      pf(&adj_[w]);
      pf(&touch_mark_[w]);
    }
  }
  // Wave 2: incidence-list headers of every endpoint the surgery and
  // the split checks start from, the deleted blocks' flags; component
  // ids and parents of the endpoints.
  const auto endpoints = [&](const auto& visit) {
    for (const eid e : del_scratch_) visit(g_.edges[e]);
    for (eid e = tail; e < m; ++e) visit(g_.edges[e]);
  };
  endpoints([&](const Edge& e) {
    pf(&adj_[e.u]);
    pf(&adj_[e.v]);
    pf(&mark_a_[e.u]);
    pf(&mark_b_[e.v]);
  });
  for (const eid e : del_scratch_) {
    pf(&label_flags_[lab[e]]);
    pf(&comp_id_[g_.edges[e].u]);
    pf(&comp_id_[g_.edges[e].v]);
  }
  for (eid e = tail; e < m; ++e) pf(&label_flags_[lab[e]]);
  for (const Edge& e : insertions) {
    pf(&comp_parent_[comp_id_[e.u]]);
    pf(&comp_parent_[comp_id_[e.v]]);
  }
  // Wave 3: the arcs the surgery rewrites, the list tails it swaps in,
  // the heads of the lists the split checks scan, and the component
  // parents a split relabels under.
  for (const eid e : del_scratch_) {
    const Edge ed = g_.edges[e];
    pf(adj_[ed.u].data());
    pf(adj_[ed.v].data());
    pf(&adj_[ed.u].back());
    pf(&adj_[ed.v].back());
    pf(&adj_[ed.u][arc_pos_[e][arc_side(ed.u, ed.v)]]);
    pf(&adj_[ed.v][arc_pos_[e][arc_side(ed.v, ed.u)]]);
    pf(&comp_parent_[comp_id_[ed.u]]);
    pf(&comp_parent_[comp_id_[ed.v]]);
  }
  for (eid e = tail; e < m; ++e) {
    const Edge ed = g_.edges[e];
    pf(&adj_[ed.u][arc_pos_[e][arc_side(ed.u, ed.v)]]);
    pf(&adj_[ed.v][arc_pos_[e][arc_side(ed.v, ed.u)]]);
  }
  for (const Edge& e : insertions) {
    pf(adj_[e.u].data());
    pf(adj_[e.v].data());
  }
}

void BatchDynamicBcc::flag_block(eid e) {
  const vid l = result_.edge_component[e];
  if (label_flags_[l] & kFlagged) return;
  label_flags_[l] |= kFlagged;
  flagged_.push_back({l, e});
}

BatchDynamicBcc::Probe BatchDynamicBcc::search_pair(vid u, vid v) {
  const std::uint32_t cur = next_search_epoch();

  // Side 0 explores from u, side 1 from v.
  std::vector<std::uint32_t>* mark[2] = {&mark_a_, &mark_b_};
  std::vector<eid>* par[2] = {&par_a_, &par_b_};
  std::vector<vid>* front[2] = {&front_a_, &front_b_};
  std::vector<vid>* next[2] = {&next_a_, &next_b_};
  const vid src[2] = {u, v};
  vid explored[2] = {1, 1};
  std::size_t cost[2] = {adj_[u].size(), adj_[v].size()};
  for (int s = 0; s < 2; ++s) {
    front[s]->clear();
    front[s]->push_back(src[s]);
    (*mark[s])[src[s]] = cur;
    (*par[s])[src[s]] = kNoEdge;
  }

  // Flag the blocks of the discovery path from side s's source to x.
  const auto flag_chain = [&](int s, vid x) {
    while ((*par[s])[x] != kNoEdge) {
      const eid e = (*par[s])[x];
      flag_block(e);
      const Edge& ed = g_.edges[e];
      x = ed.u == x ? ed.v : ed.u;
    }
  };

  while (true) {
    // Expand the cheaper live frontier (fewer arcs to scan); a capped
    // side is frozen but keeps its marks, so the other side can still
    // meet it.
    const bool can0 = !front[0]->empty() && explored[0] <= kSearchCap;
    const bool can1 = !front[1]->empty() && explored[1] <= kSearchCap;
    int s;
    if (can0 && can1) {
      s = cost[0] <= cost[1] ? 0 : 1;
    } else if (can0) {
      s = 0;
    } else if (can1) {
      s = 1;
    } else {
      // Both sides capped without contact — or a side ran dry, which
      // the exact component ids rule out (a sweep that exhausts its
      // component visits the other endpoint, a marked vertex, before
      // it dries).  Either way the probe cannot vouch for the region.
      assert(!front[0]->empty() && !front[1]->empty() &&
             "component ids out of sync with the incidence lists");
      return Probe::kUndecided;
    }
    const int o = 1 - s;
    next[s]->clear();
    cost[s] = 0;
    for (const vid x : *front[s]) {
      for (const auto& [y, e] : adj_[x]) {
        if ((*mark[o])[y] == cur) {
          // Contact: the crossing edge closes a simple u-v path, which
          // visits exactly the block-cut-tree path's blocks (plus at
          // worst the meeting balls' blocks when the two discovery
          // chains overlap — a sound over-flag).
          flag_block(e);
          flag_chain(s, x);
          flag_chain(o, y);
          return Probe::kMeet;
        }
        if ((*mark[s])[y] == cur) continue;
        (*mark[s])[y] = cur;
        (*par[s])[y] = e;
        ++explored[s];
        next[s]->push_back(y);
        cost[s] += adj_[y].size();
      }
    }
    std::swap(*front[s], *next[s]);
  }
}

vid BatchDynamicBcc::probe_damage(std::span<const Edge> insertions,
                                  std::span<const eid> deletions) {
  TraceSpan span(trace_, "damage_probe");
  const std::vector<vid>& lab = result_.edge_component;
  force_full_ = false;

  // Clear the previous batch's flags entry by entry; labels only ever
  // index below label_bound(), so the array just grows with it.
  for (const auto& [l, seed] : flagged_) {
    (void)seed;
    label_flags_[l] = 0;
  }
  flagged_.clear();
  if (label_flags_.size() < next_label_) label_flags_.resize(next_label_, 0);
  if (edge_slot_.size() < g_.m()) edge_slot_.resize(g_.m());
  prefetch_batch(insertions);

  // A deletion can only split the block that holds the deleted edge.
  // The deletion count per block lets rebuild_edges skip the split
  // check of a block's only deletion.
  for (const eid e : deletions) {
    std::uint8_t& f = label_flags_[lab[e]];
    f |= (f & kDeleted) ? kMultiDeleted : kDeleted;
    flag_block(e);
  }

  if (++epoch_ == 0) {
    std::fill(touch_mark_.begin(), touch_mark_.end(), 0u);
    epoch_ = 1;
  }
  touched_.clear();

  if (!insertions.empty()) {
    // Classify every insertion by the exact component ids: two finds,
    // no search.  A same-component insertion meets in the middle and
    // flags its path's blocks — any simple u-v path crosses exactly
    // the block-cut-tree path between u and v, and the union of
    // per-insertion paths is exactly the set of blocks any combination
    // of added edges can merge (an edge of the block forest is off
    // every added path iff it stays a bridge).  A cross-component
    // insertion merges nothing by itself (the new edge becomes its own
    // bridge block); it feeds the component multigraph below.
    // Cross-component insertions as (component, endpoint) pairs, two
    // per edge; the per-batch union-find runs over their components'
    // dense ranks.
    cross_ends_.clear();
    for (const Edge& e : insertions) {
      const vid cu = comp_of(e.u);
      const vid cv = comp_of(e.v);
      if (cu != cv) {
        cross_ends_.push_back({cu, e.u});
        cross_ends_.push_back({cv, e.v});
      } else if (search_pair(e.u, e.v) == Probe::kUndecided) {
        force_full_ = true;
        break;
      }
    }

    if (!cross_ends_.empty() && !force_full_) {
      // Ranks by first appearance, parked in comp_rank_ (kNoVertex
      // outside a batch) and reset below.
      if (comp_rank_.size() < comp_parent_.size()) {
        comp_rank_.resize(comp_parent_.size(), kNoVertex);
      }
      cross_parent_.clear();
      cross_cycle_.clear();
      const auto rank = [&](vid key) {
        vid& r = comp_rank_[key];
        if (r == kNoVertex) {
          r = static_cast<vid>(cross_parent_.size());
          cross_parent_.push_back(r);
          cross_cycle_.push_back(0);
        }
        return r;
      };
      const auto find = [&](vid c) {
        while (cross_parent_[c] != c) {
          cross_parent_[c] = cross_parent_[cross_parent_[c]];
          c = cross_parent_[c];
        }
        return c;
      };
      bool any_cycle = false;
      for (std::size_t i = 0; i < cross_ends_.size(); i += 2) {
        const vid ru = find(rank(cross_ends_[i].first));
        const vid rv = find(rank(cross_ends_[i + 1].first));
        if (ru == rv) {
          cross_cycle_[ru] = 1;
          any_cycle = true;
        } else {
          cross_parent_[ru] = rv;
          cross_cycle_[rv] |= cross_cycle_[ru];
        }
      }

      if (any_cycle) {
        // Cross insertions whose multigraph class closed a cycle can
        // merge blocks along the tree paths between each component's
        // endpoints.  Flag, per endpoint group, the paths from one
        // representative to every other member — pairwise paths
        // factor through the representative.  Keys are exact, so
        // same-key members really share a component and every search
        // meets.
        std::sort(cross_ends_.begin(), cross_ends_.end());
        cross_ends_.erase(std::unique(cross_ends_.begin(), cross_ends_.end()),
                          cross_ends_.end());
        for (std::size_t i = 0; i < cross_ends_.size() && !force_full_;) {
          const auto [key, rep] = cross_ends_[i];
          const bool cyclic = cross_cycle_[find(rank(key))] != 0;
          for (++i; i < cross_ends_.size() && cross_ends_[i].first == key;
               ++i) {
            if (cyclic &&
                search_pair(rep, cross_ends_[i].second) == Probe::kUndecided) {
              force_full_ = true;
              break;
            }
          }
        }
      }
      for (const auto& [key, w] : cross_ends_) {
        (void)w;
        comp_rank_[key] = kNoVertex;
      }
    }
  }

  // Damage numerator: distinct vertices incident to a region edge or a
  // batch edge (deleted edges are still present here, so their
  // endpoints count through their flagged label).  The touched list
  // doubles as the cut-info patch set: only these vertices can change
  // articulation status.
  for (const Edge& e : insertions) {
    for (const vid w : {e.u, e.v}) {
      if (touch_mark_[w] != epoch_) {
        touch_mark_[w] = epoch_;
        touched_.push_back(w);
      }
    }
  }
  if (!force_full_) {
    collect_region(opt_.damage_threshold * static_cast<double>(g_.n));
  }
  return static_cast<vid>(touched_.size());
}

void BatchDynamicBcc::collect_region(double touch_limit) {
  const std::vector<vid>& lab = result_.edge_component;
  const eid m = g_.m();
  region_.clear();
  const auto touch = [&](vid v) {
    if (touch_mark_[v] != epoch_) {
      touch_mark_[v] = epoch_;
      touched_.push_back(v);
    }
  };
  const auto take = [&](eid e) {
    edge_slot_[e] = static_cast<eid>(region_.size());
    region_.push_back(e);
  };

  // Flood each flagged block from its seed along its own label.  Every
  // vertex of the block is scanned, so each block edge is taken once,
  // from its smaller endpoint.  A single-edge block is its seed alone.
  const std::uint64_t arc_budget = m / 2;
  std::uint64_t arcs = 0;
  for (const auto& [l, seed] : flagged_) {
    const Edge se = g_.edges[seed];
    if (bridge_mask_[seed]) {
      take(seed);
      touch(se.u);
      touch(se.v);
    } else {
      const std::uint32_t cur = next_search_epoch();
      front_a_.clear();
      front_a_.push_back(se.u);
      mark_a_[se.u] = cur;
      for (std::size_t head = 0; head < front_a_.size(); ++head) {
        const vid x = front_a_[head];
        touch(x);
        arcs += adj_[x].size();
        for (const auto& [y, e] : adj_[x]) {
          if (lab[e] != l) continue;
          if (x < y) take(e);
          if (mark_a_[y] != cur) {
            mark_a_[y] = cur;
            front_a_.push_back(y);
          }
        }
      }
    }
    if (static_cast<double>(touched_.size()) > touch_limit) return;
    if (arcs > arc_budget) break;
  }
  if (arcs <= arc_budget) return;

  // Hubs made the flood dearer than a sweep: one pass over the labels.
  if (trace_) trace_->counter("batch_region_sweeps", 1.0);
  region_.clear();
  for (eid e = 0; e < m; ++e) {
    if (!(label_flags_[lab[e]] & kFlagged)) continue;
    take(e);
    touch(g_.edges[e].u);
    touch(g_.edges[e].v);
  }
}

void BatchDynamicBcc::rebuild_edges(std::span<const Edge> insertions,
                                    bool maintain_components) {
  auto& lab = result_.edge_component;

  // Swap-with-last compaction, ids descending so the hole is always
  // filled by a live edge: O(1) incidence surgery at the affected
  // endpoints through arc_pos_ instead of an O(n + m) rebuild, hubs
  // included.
  const auto drop_arc = [&](vid x, vid y, eid e) {
    auto& list = adj_[x];
    const std::uint32_t pos = arc_pos_[e][arc_side(x, y)];
    assert(list[pos].second == e &&
           "adjacency out of sync with the edge list");
    const auto back = list.back();
    list[pos] = back;
    arc_pos_[back.second][arc_side(x, back.first)] = pos;
    list.pop_back();
  };
  moved_bridges_.clear();
  for (auto it = del_scratch_.rbegin(); it != del_scratch_.rend(); ++it) {
    const eid e = *it;
    const Edge dead = g_.edges[e];
    // Position e still holds its own edge: only higher positions have
    // been vacated or refilled so far.
    const bool was_bridge = bridge_mask_[e] != 0;
    const bool lone = !(label_flags_[lab[e]] & kMultiDeleted);
    if (maintain_components) region_[edge_slot_[e]] = kNoEdge;
    drop_arc(dead.u, dead.v, e);
    drop_arc(dead.v, dead.u, e);
    const eid last = g_.m() - 1;
    if (e != last) {
      const Edge moved = g_.edges[last];
      g_.edges[e] = moved;
      lab[e] = lab[last];
      bridge_mask_[e] = bridge_mask_[last];
      arc_pos_[e] = arc_pos_[last];
      adj_[moved.u][arc_pos_[e][arc_side(moved.u, moved.v)]].second = e;
      adj_[moved.v][arc_pos_[e][arc_side(moved.v, moved.u)]].second = e;
      if (maintain_components) {
        if (label_flags_[lab[e]] & kFlagged) {
          const eid slot = edge_slot_[last];
          region_[slot] = e;
          edge_slot_[e] = slot;
        } else if (bridge_mask_[e]) {
          moved_bridges_.push_back(e);
        }
      }
    }
    g_.edges.pop_back();
    lab.pop_back();
    bridge_mask_.pop_back();
    arc_pos_.pop_back();
    // Sequential semantics keep the component ids exact at every step:
    // the split check runs on the incidence lists with this deletion
    // (and every earlier one) applied.  The only deletion of a
    // non-bridge block cannot split: the rest of the block still joins
    // its endpoints.  Once a check is undecidable the ids are due for a
    // reseed anyway, so stop paying for them.
    if (maintain_components && !force_full_ && (was_bridge || !lone) &&
        !split_check(dead.u, dead.v, was_bridge)) {
      force_full_ = true;
    }
  }

  const eid base = g_.m();
  if (maintain_components) {
    // Drop the deleted entries; a moved bridge that a later deletion
    // moved again left a stale position past the new end.
    region_.erase(std::remove(region_.begin(), region_.end(), kNoEdge),
                  region_.end());
    moved_bridges_.erase(
        std::remove_if(moved_bridges_.begin(), moved_bridges_.end(),
                       [&](eid b) { return b >= base; }),
        moved_bridges_.end());
  }
  for (std::size_t i = 0; i < insertions.size(); ++i) {
    const Edge& e = insertions[i];
    const eid id = base + static_cast<eid>(i);
    region_.push_back(id);
    g_.edges.push_back(e);
    // Placeholder; insertions are always in the region, so the splice
    // overwrites this before anyone reads it.
    lab.push_back(kNoVertex);
    bridge_mask_.push_back(0);
    std::array<std::uint32_t, 2> pos;
    pos[arc_side(e.u, e.v)] = static_cast<std::uint32_t>(adj_[e.u].size());
    pos[arc_side(e.v, e.u)] = static_cast<std::uint32_t>(adj_[e.v].size());
    arc_pos_.push_back(pos);
    adj_[e.u].push_back({e.v, id});
    adj_[e.v].push_back({e.u, id});
    if (maintain_components && !force_full_) comp_join(e.u, e.v);
  }
}

const BccResult& BatchDynamicBcc::apply_batch(
    std::span<const Edge> insertions, std::span<const eid> deletions) {
  TraceSpan span(trace_, "batch_apply");
  const vid n = g_.n;
  const eid m = g_.m();
  for (const Edge& e : insertions) {
    if (e.u >= n || e.v >= n) {
      throw std::invalid_argument("apply_batch: insertion endpoint out of range");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("apply_batch: self-loop insertion");
    }
  }
  del_scratch_.assign(deletions.begin(), deletions.end());
  std::sort(del_scratch_.begin(), del_scratch_.end());
  if (!del_scratch_.empty()) {
    if (del_scratch_.back() >= m) {
      throw std::invalid_argument("apply_batch: deletion id out of range");
    }
    if (std::adjacent_find(del_scratch_.begin(), del_scratch_.end()) !=
        del_scratch_.end()) {
      throw std::invalid_argument("apply_batch: duplicate deletion id");
    }
  }

  stats_ = {};
  ++version_;  // the batch is validated; everything below republishes
  const vid touched = probe_damage(insertions, deletions);
  stats_.touched_vertices = touched;
  if (trace_) {
    trace_->counter("batch_touched_vertices", static_cast<double>(touched));
  }
  bool fall_back =
      force_full_ || static_cast<double>(touched) >
                         opt_.damage_threshold * static_cast<double>(n);

  if (!fall_back) {
    // The standing bridges the region swallows are the seeds of its
    // single-edge blocks; read in the pre-batch numbering, before any
    // edge moves.
    region_bridges_.clear();
    for (const auto& [l, seed] : flagged_) {
      (void)l;
      if (bridge_mask_[seed]) region_bridges_.push_back(seed);
    }
    std::sort(region_bridges_.begin(), region_bridges_.end());
  }

  rebuild_edges(insertions, /*maintain_components=*/!fall_back);
  // A split check may have been undecidable within the search cap.
  if (force_full_) fall_back = true;
  if (trace_) trace_->counter("batch_fallbacks", fall_back ? 1.0 : 0.0);
  // g_.edges was rebuilt in place, so the context's conversion and
  // strip caches keyed on (&g_, n, m) are stale.
  ctx_.invalidate();

  if (fall_back) {
    stats_.fell_back = true;
    ++fallbacks_;
    full_solve();
    reseed_components();
    return result_;
  }
  stats_.region_edges = static_cast<eid>(region_.size());

  {
    TraceSpan solve_span(trace_, "region_solve");
    vid region_blocks = 0;
    if (!region_.empty()) {
      // Compact vertex ids by first appearance, stamped in mark_b_ so
      // the extraction costs O(region), not O(n).
      const std::uint32_t cur = next_search_epoch();
      region_graph_.edges.clear();
      vid rn = 0;
      const auto compact = [&](vid v) {
        if (mark_b_[v] != cur) {
          mark_b_[v] = cur;
          compact_[v] = rn++;
        }
        return compact_[v];
      };
      for (const eid e : region_) {
        const Edge& ed = g_.edges[e];
        const vid cu = compact(ed.u);
        region_graph_.edges.push_back({cu, compact(ed.v)});
      }
      region_graph_.n = rn;
      // Hopcroft-Tarjan, linear in the region.  Building a k = 2
      // certificate first was slower on every dense family measured, and
      // the full entry point (solve frame, kAuto) won only on single
      // dense regions past ~200k edges at p >= 2 (EXPERIMENTS.md A13).
      const Csr csr =
          Csr::build(ctx_.executor(), ctx_.workspace(), region_graph_);
      const BccResult sub =
          hopcroft_tarjan_bcc(region_graph_, csr, /*cut_info=*/false);
      const std::vector<vid>& sub_labels = sub.edge_component;
      // Splice: the region's blocks take fresh label values past every
      // standing one, so unchanged blocks keep their labels and the
      // published array stays partition-equal to a from-scratch solve
      // of g_ (label values are never canonical across engines, see
      // bcc_result.hpp; the partition is).  HT's labels are contiguous
      // in [0, num_components).
      region_blocks = sub.num_components;
      sub_count_.assign(region_blocks, 0);
      for (const vid l : sub_labels) ++sub_count_[l];
      const vid offset = next_label_;
      for (std::size_t i = 0; i < region_.size(); ++i) {
        const bool bridge = sub_count_[sub_labels[i]] == 1;
        result_.edge_component[region_[i]] = offset + sub_labels[i];
        bridge_mask_[region_[i]] = static_cast<std::uint8_t>(bridge);
        if (bridge) moved_bridges_.push_back(region_[i]);
      }
      next_label_ += region_blocks;
    }
    // The flagged blocks vanished with the region (every edge of a
    // flagged label was a region member or deleted); the region solve's
    // blocks replaced them.
    result_.num_components = result_.num_components -
                             static_cast<vid>(flagged_.size()) +
                             region_blocks;
  }
  patch_cut_info(m - static_cast<eid>(del_scratch_.size()));

  // Opportunistic renormalization: splices only grow the label space,
  // so when the ids outrun ~2(n + m), pay one first-appearance pass to
  // keep per-label scratch (here and in callers sizing by
  // label_bound()) proportional to the graph.  Amortized O(1) per
  // spliced edge.  The threshold is 64-bit (renormalize_label_threshold)
  // — vid arithmetic wraps past n + m = 2^31.  The pass rewrites the
  // labels in place, as the splice does: publishers deep-copy result().
  const std::uint64_t renorm_limit =
      opt_.renorm_label_limit != 0
          ? opt_.renorm_label_limit
          : renormalize_label_threshold(g_.n, g_.m());
  if (static_cast<std::uint64_t>(next_label_) > renorm_limit) {
    result_.num_components = normalize_labels(result_.edge_component);
    next_label_ = result_.num_components;
  }

  // Splits only ever append component ids; compact the id space back
  // to [0, #components) once it outgrows ~2n (amortized O(1) per
  // split, and never on the fallback path, which reseeds instead).
  if (comp_parent_.size() > 2 * static_cast<std::size_t>(g_.n) + 1024) {
    std::unordered_map<vid, vid> dense(g_.n * 2 + 1);
    vid count = 0;
    for (vid v = 0; v < g_.n; ++v) {
      const auto [it, inserted] = dense.try_emplace(comp_of(v), count);
      if (inserted) ++count;
      comp_id_[v] = it->second;
    }
    comp_parent_.resize(count);
    for (vid c = 0; c < count; ++c) comp_parent_[c] = c;
    comp_size_.assign(count, 0);
    for (vid v = 0; v < g_.n; ++v) ++comp_size_[comp_id_[v]];
  }
  return result_;
}

void BatchDynamicBcc::patch_cut_info(eid base) {
  // Articulation status (incident to >= 2 distinct labels) can change
  // only where an incident label changed — exactly the touched set.
  const std::vector<vid>& lab = result_.edge_component;
  for (const vid v : touched_) {
    vid first = kNoVertex;
    std::uint8_t art = 0;
    for (const auto& [nbr, e] : adj_[v]) {
      (void)nbr;
      const vid l = lab[e];
      if (first == kNoVertex) {
        first = l;
      } else if (l != first) {
        art = 1;
        break;
      }
    }
    result_.is_articulation[v] = art;
  }
  // Ascending bridge ids in one pass over the standing list: a standing
  // bridge below `base` keeps its id unless the region swallowed it;
  // the ones past `base` moved into holes and are among the added
  // ones, with the region's new bridges.  The unchanged runs between
  // edits are found by a forward scan (sequential, so the hardware
  // prefetcher keeps it streaming) and copied whole.
  std::sort(moved_bridges_.begin(), moved_bridges_.end());
  const std::vector<eid>& old = result_.bridges;
  const std::vector<eid>& removed = region_bridges_;
  const std::vector<eid>& added = moved_bridges_;
  const std::size_t end = static_cast<std::size_t>(
      std::lower_bound(old.begin(), old.end(), base) - old.begin());
  std::vector<eid>& out = bridge_scratch_;
  out.clear();
  std::size_t r = 0;
  const auto copy_below = [&](eid key) {
    std::size_t pos = r;
    while (pos < end && old[pos] < key) ++pos;
    out.insert(out.end(), old.begin() + r, old.begin() + pos);
    r = pos;
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < removed.size() || j < added.size()) {
    if (i < removed.size() && (j == added.size() || removed[i] <= added[j])) {
      if (removed[i] < base) {
        copy_below(removed[i]);
        assert(r < end && old[r] == removed[i]);
        ++r;
      }
      ++i;
    } else {
      copy_below(added[j]);
      out.push_back(added[j++]);
    }
  }
  out.insert(out.end(), old.begin() + r, old.begin() + end);
  std::swap(result_.bridges, out);
}

}  // namespace parbcc
