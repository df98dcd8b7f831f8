#include "core/batch_dynamic.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "connectivity/shiloach_vishkin.hpp"
#include "core/articulation.hpp"
#include "core/bcc.hpp"
#include "graph/csr.hpp"
#include "graph/subgraph.hpp"
#include "spanning/certificate.hpp"

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
  reset_bookkeeping();
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
  touch_mark_.assign(g_.n, 0);
  mark_a_.assign(g_.n, 0);
  mark_b_.assign(g_.n, 0);
  par_a_.assign(g_.n, kNoEdge);
  par_b_.assign(g_.n, kNoEdge);
}

void BatchDynamicBcc::full_solve() {
  BccOptions o;
  o.algorithm = opt_.algorithm;
  o.compute_cut_info = opt_.compute_cut_info;
  result_ = biconnected_components(ctx_, g_, o);
  // A full solve restarts the label space: first-appearance normalized,
  // contiguous in [0, num_components).
  result_.num_components = normalize_labels(result_.edge_component);
}

void BatchDynamicBcc::reset_bookkeeping() {
  next_label_ = result_.num_components;
  bridge_mask_.assign(g_.m(), 0);
  for (const eid b : result_.bridges) bridge_mask_[b] = 1;
}

void BatchDynamicBcc::reseed_components() {
  // SV's smallest-vertex-id labels are valid roots in [0, n) under an
  // identity union-find.  Construction and every fallback re-solve come
  // through here; the incremental path maintains the ids instead.
  comp_id_ = connected_components_sv(ctx_.executor(), ctx_.workspace(), g_.n,
                                     g_.edges);
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

bool BatchDynamicBcc::split_check(vid u, vid v) {
  if (++search_epoch_ == 0) {
    std::fill(mark_a_.begin(), mark_a_.end(), 0u);
    std::fill(mark_b_.begin(), mark_b_.end(), 0u);
    search_epoch_ = 1;
  }
  const std::uint32_t cur = search_epoch_;
  std::vector<std::uint32_t>* mark[2] = {&mark_a_, &mark_b_};
  std::vector<vid>* front[2] = {&front_a_, &front_b_};
  std::vector<vid>* next[2] = {&next_a_, &next_b_};
  std::vector<vid>* visits[2] = {&visits_a_, &visits_b_};
  const vid src[2] = {u, v};
  vid explored[2] = {1, 1};
  for (int s = 0; s < 2; ++s) {
    front[s]->clear();
    front[s]->push_back(src[s]);
    visits[s]->clear();
    visits[s]->push_back(src[s]);
    (*mark[s])[src[s]] = cur;
  }

  // Expand the smaller live frontier until contact (still connected) or
  // a side runs dry (that side is the detached component).  A deleted
  // non-bridge edge lies on a cycle, so the meet arrives within that
  // cycle's ball — small for the peripheral blocks churn targets.
  while (true) {
    const bool can0 = !front[0]->empty() && explored[0] <= opt_.search_cap;
    const bool can1 = !front[1]->empty() && explored[1] <= opt_.search_cap;
    int s;
    if (can0 && can1) {
      s = front[0]->size() <= front[1]->size() ? 0 : 1;
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
    for (const vid x : *front[s]) {
      for (const auto& [y, e] : adj_[x]) {
        (void)e;
        if ((*mark[o])[y] == cur) return true;  // connected, no split
        if ((*mark[s])[y] == cur) continue;
        (*mark[s])[y] = cur;
        ++explored[s];
        next[s]->push_back(y);
        visits[s]->push_back(y);
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

BatchDynamicBcc::Probe BatchDynamicBcc::search_pair(
    vid u, vid v, std::vector<std::uint8_t>& label_in_region) {
  const std::vector<vid>& lab = result_.edge_component;
  if (++search_epoch_ == 0) {
    // Epoch wrap: old stamps could alias the fresh epoch, so reset.
    std::fill(mark_a_.begin(), mark_a_.end(), 0u);
    std::fill(mark_b_.begin(), mark_b_.end(), 0u);
    search_epoch_ = 1;
  }
  const std::uint32_t cur = search_epoch_;

  // Side 0 explores from u, side 1 from v.
  std::vector<std::uint32_t>* mark[2] = {&mark_a_, &mark_b_};
  std::vector<eid>* par[2] = {&par_a_, &par_b_};
  std::vector<vid>* front[2] = {&front_a_, &front_b_};
  std::vector<vid>* next[2] = {&next_a_, &next_b_};
  const vid src[2] = {u, v};
  vid explored[2] = {1, 1};
  for (int s = 0; s < 2; ++s) {
    front[s]->clear();
    front[s]->push_back(src[s]);
    (*mark[s])[src[s]] = cur;
    (*par[s])[src[s]] = kNoEdge;
  }

  // Flag the labels of the discovery path from side s's source to x.
  const auto flag_chain = [&](int s, vid x) {
    while ((*par[s])[x] != kNoEdge) {
      const eid e = (*par[s])[x];
      if (!label_in_region[lab[e]]) {
        label_in_region[lab[e]] = 1;
        ++flagged_count_;
      }
      const Edge& ed = g_.edges[e];
      x = ed.u == x ? ed.v : ed.u;
    }
  };

  while (true) {
    // Expand the smaller live frontier; a capped side is frozen but
    // keeps its marks, so the other side can still meet it.
    const bool can0 = !front[0]->empty() && explored[0] <= opt_.search_cap;
    const bool can1 = !front[1]->empty() && explored[1] <= opt_.search_cap;
    int s;
    if (can0 && can1) {
      s = front[0]->size() <= front[1]->size() ? 0 : 1;
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
    for (const vid x : *front[s]) {
      for (const auto& [y, e] : adj_[x]) {
        if ((*mark[o])[y] == cur) {
          // Contact: the crossing edge closes a simple u-v path, which
          // visits exactly the block-cut-tree path's blocks (plus at
          // worst the meeting balls' blocks when the two discovery
          // chains overlap — a sound over-flag).
          if (!label_in_region[lab[e]]) {
            label_in_region[lab[e]] = 1;
            ++flagged_count_;
          }
          flag_chain(s, x);
          flag_chain(o, y);
          return Probe::kMeet;
        }
        if ((*mark[s])[y] == cur) continue;
        (*mark[s])[y] = cur;
        (*par[s])[y] = e;
        ++explored[s];
        next[s]->push_back(y);
      }
    }
    std::swap(*front[s], *next[s]);
  }
}

vid BatchDynamicBcc::probe_damage(std::span<const Edge> insertions,
                                  std::span<const eid> deletions,
                                  std::vector<std::uint8_t>& label_in_region) {
  TraceSpan span(trace_, "damage_probe");
  const eid m = g_.m();
  const std::vector<vid>& lab = result_.edge_component;
  force_full_ = false;
  flagged_count_ = 0;

  // A deletion can only split the block that holds the deleted edge.
  label_in_region.assign(next_label_, 0);
  for (const eid e : deletions) {
    if (!label_in_region[lab[e]]) {
      label_in_region[lab[e]] = 1;
      ++flagged_count_;
    }
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
    struct CrossEnd {
      vid w, key;
    };
    std::vector<CrossEnd> cross_ends;
    std::unordered_map<vid, vid> uf;  // per-batch, over component ids
    std::unordered_map<vid, std::uint8_t> cyc;
    const auto find = [&](vid c) {
      vid r = c;
      auto it = uf.find(r);
      while (it != uf.end() && it->second != r) {
        r = it->second;
        it = uf.find(r);
      }
      while (c != r) {
        auto next = uf.find(c);
        const vid parent = next->second;
        next->second = r;
        c = parent;
      }
      return r;
    };
    bool any_cycle = false;
    for (const Edge& e : insertions) {
      const vid cu = comp_of(e.u);
      const vid cv = comp_of(e.v);
      if (cu == cv) {
        if (search_pair(e.u, e.v, label_in_region) == Probe::kUndecided) {
          force_full_ = true;
          break;
        }
        continue;
      }
      cross_ends.push_back({e.u, cu});
      cross_ends.push_back({e.v, cv});
      uf.try_emplace(cu, cu);
      uf.try_emplace(cv, cv);
      const vid ru = find(cu);
      const vid rv = find(cv);
      if (ru == rv) {
        cyc[ru] = 1;
        any_cycle = true;
      } else {
        const std::uint8_t c = static_cast<std::uint8_t>(cyc[ru] | cyc[rv]);
        uf[ru] = rv;
        cyc[rv] = c;
      }
    }

    if (any_cycle && !force_full_) {
      // Cross insertions whose multigraph class closed a cycle can
      // merge blocks along the tree paths between each component's
      // endpoints.  Flag, per endpoint group, the paths from one
      // representative to every other member — pairwise paths factor
      // through the representative.  Keys are exact, so same-key
      // members really share a component and every search meets.
      std::unordered_map<vid, std::vector<vid>> groups;
      for (const CrossEnd& ce : cross_ends) {
        if (cyc[find(ce.key)]) groups[ce.key].push_back(ce.w);
      }
      for (auto& [key, members] : groups) {
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        for (std::size_t i = 1; i < members.size(); ++i) {
          if (search_pair(members[0], members[i], label_in_region) ==
              Probe::kUndecided) {
            force_full_ = true;
            break;
          }
        }
        if (force_full_) break;
      }
    }
  }

  // Damage numerator: distinct vertices incident to a region edge or a
  // batch edge (deleted edges are still present here, so their
  // endpoints count through their flagged label).  The touched list
  // doubles as the cut-info patch set: only these vertices can change
  // articulation status.
  const auto touch = [&](vid v) {
    if (touch_mark_[v] != epoch_) {
      touch_mark_[v] = epoch_;
      touched_.push_back(v);
    }
  };
  for (eid e = 0; e < m; ++e) {
    if (!label_in_region[lab[e]]) continue;
    touch(g_.edges[e].u);
    touch(g_.edges[e].v);
  }
  for (const Edge& e : insertions) {
    touch(e.u);
    touch(e.v);
  }
  return static_cast<vid>(touched_.size());
}

void BatchDynamicBcc::rebuild_edges(
    std::span<const Edge> insertions, std::span<const eid> deletions,
    const std::vector<std::uint8_t>& label_in_region,
    std::vector<eid>& region_ids, bool maintain_components) {
  auto& lab = result_.edge_component;

  // Swap-with-last compaction, ids descending so the hole is always
  // filled by a live edge: O(degree) incidence surgery at the affected
  // endpoints instead of an O(n + m) rebuild.  Degrees are small on
  // the streams this serves; a hub-incident edit pays its hub's list.
  del_scratch_.assign(deletions.begin(), deletions.end());
  std::sort(del_scratch_.begin(), del_scratch_.end(),
            [](eid a, eid b) { return a > b; });
  const auto drop_arc = [&](vid x, eid e) {
    auto& list = adj_[x];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].second != e) continue;
      list[i] = list.back();
      list.pop_back();
      return;
    }
    assert(false && "adjacency out of sync with the edge list");
  };
  const auto rewrite_arc = [&](vid x, eid from, eid to) {
    for (auto& entry : adj_[x]) {
      if (entry.second != from) continue;
      entry.second = to;
      return;
    }
    assert(false && "adjacency out of sync with the edge list");
  };
  for (const eid e : del_scratch_) {
    const Edge dead = g_.edges[e];
    drop_arc(dead.u, e);
    drop_arc(dead.v, e);
    const eid last = g_.m() - 1;
    if (e != last) {
      const Edge moved = g_.edges[last];
      g_.edges[e] = moved;
      lab[e] = lab[last];
      bridge_mask_[e] = bridge_mask_[last];
      rewrite_arc(moved.u, last, e);
      rewrite_arc(moved.v, last, e);
    }
    g_.edges.pop_back();
    lab.pop_back();
    bridge_mask_.pop_back();
    // Sequential semantics keep the component ids exact at every step:
    // the split check runs on the incidence lists with this deletion
    // (and every earlier one) applied.  Once a check is undecidable
    // the ids are due for a reseed anyway, so stop paying for them.
    if (maintain_components && !force_full_ && !split_check(dead.u, dead.v)) {
      force_full_ = true;
    }
  }

  // Region membership reads the surviving labels (one sequential sweep
  // of the label array — the only whole-graph pass the splice path
  // keeps, a few hundred microseconds at millions of edges).
  region_ids.clear();
  const eid base = g_.m();
  for (eid e = 0; e < base; ++e) {
    if (label_in_region[lab[e]]) region_ids.push_back(e);
  }
  for (std::size_t i = 0; i < insertions.size(); ++i) {
    const Edge& e = insertions[i];
    const eid id = base + static_cast<eid>(i);
    region_ids.push_back(id);
    g_.edges.push_back(e);
    // Placeholder; insertions are always in the region, so the splice
    // overwrites this before anyone reads it.
    lab.push_back(kNoVertex);
    bridge_mask_.push_back(0);
    adj_[e.u].push_back({e.v, id});
    adj_[e.v].push_back({e.u, id});
    if (maintain_components && !force_full_) comp_join(e.u, e.v);
  }
}

std::vector<vid> BatchDynamicBcc::solve_region(const EdgeList& region) {
  BccOptions o;
  o.algorithm = opt_.algorithm;
  o.compute_cut_info = false;
  // The region is a union of scattered peripheral blocks — hundreds of
  // tiny connected components.  The dispatcher's per-component loop
  // would pay a parallel pipeline's fixed costs (spans, barriers,
  // arena frames) on every few-edge piece, so below a generous cutoff
  // force the sequential driver for the whole region; parallel solves
  // only pay off on regions big enough to flirt with the damage
  // threshold anyway.
  constexpr std::uint64_t kSequentialRegionCutoff = 1u << 16;
  if (static_cast<std::uint64_t>(region.n) + region.m() <
      kSequentialRegionCutoff) {
    o.algorithm = BccAlgorithm::kSequential;
  }

  const double density = region.n == 0
                             ? 0.0
                             : static_cast<double>(region.m()) /
                                   static_cast<double>(region.n);
  if (density <= opt_.certificate_density) {
    return biconnected_components(ctx_, region, o).edge_component;
  }

  // Dense region: solve the k = 2 BFS certificate (Theorem 2 — T u F
  // preserves the whole block structure) and scatter labels onto the
  // omitted edges.  An omitted edge {x, y} closes a cycle with its F1
  // tree path, so it shares a block with the parent tree edge of its
  // deeper endpoint; BFS levels across an edge differ by at most one,
  // so on a level tie either parent edge lies on that cycle.
  SparseCertificate cert =
      sparse_certificate_vertex(ctx_.executor(), region, 2);
  const EdgeList cert_graph = cert.subgraph(region);
  stats_.certificate_edges = cert_graph.m();
  const BccResult cert_result = biconnected_components(ctx_, cert_graph, o);

  std::vector<vid> labels(region.m(), kNoVertex);
  for (std::size_t i = 0; i < cert.edges.size(); ++i) {
    labels[cert.edges[i]] = cert_result.edge_component[i];
  }
  for (eid e = 0; e < region.m(); ++e) {
    if (labels[e] != kNoVertex) continue;
    const vid x = region.edges[e].u;
    const vid y = region.edges[e].v;
    const vid d = cert.f1_level[x] >= cert.f1_level[y] ? x : y;
    // The deeper endpoint is never an F1 root: roots sit at level 0
    // and a neighbor of a root is at level 1 exactly.
    assert(cert.f1_parent_edge[d] != kNoEdge);
    labels[e] = labels[cert.f1_parent_edge[d]];
  }
  return labels;
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
  if (!deletions.empty()) {
    del_scratch_.assign(deletions.begin(), deletions.end());
    std::sort(del_scratch_.begin(), del_scratch_.end());
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
  std::vector<std::uint8_t> label_in_region;
  const vid touched = probe_damage(insertions, deletions, label_in_region);
  stats_.touched_vertices = touched;
  if (trace_) {
    trace_->counter("batch_touched_vertices", static_cast<double>(touched));
  }
  bool fall_back =
      force_full_ || static_cast<double>(touched) >
                         opt_.damage_threshold * static_cast<double>(n);

  std::vector<eid> region_ids;
  rebuild_edges(insertions, deletions, label_in_region, region_ids,
                /*maintain_components=*/!fall_back);
  // A split check may have been undecidable within the search cap.
  if (force_full_) fall_back = true;
  stats_.region_edges = static_cast<eid>(region_ids.size());
  if (trace_) trace_->counter("batch_fallbacks", fall_back ? 1.0 : 0.0);
  // g_.edges was rebuilt in place, so the context's conversion and
  // strip caches keyed on (&g_, n, m) are stale.
  ctx_.invalidate();

  if (fall_back) {
    stats_.fell_back = true;
    ++fallbacks_;
    full_solve();
    reset_bookkeeping();
    reseed_components();
    return result_;
  }

  {
    TraceSpan solve_span(trace_, "certificate_solve");
    vid region_blocks = 0;
    if (!region_ids.empty()) {
      const Subgraph sub = extract_edges(g_, region_ids);
      const std::vector<vid> sub_labels = solve_region(sub.graph);
      // Splice: the region's blocks take fresh label values past every
      // standing one, so unchanged blocks keep their labels and the
      // published array stays partition-equal to a from-scratch solve
      // of g_ (label values are never canonical across engines, see
      // bcc_result.hpp; the partition is).  Every solve_region label
      // appears on some region edge, so the count is its max + 1.
      for (const vid l : sub_labels) {
        region_blocks = std::max(region_blocks, l + 1);
      }
      sub_count_.assign(region_blocks, 0);
      for (const vid l : sub_labels) ++sub_count_[l];
      const vid offset = next_label_;
      for (std::size_t i = 0; i < region_ids.size(); ++i) {
        result_.edge_component[region_ids[i]] = offset + sub_labels[i];
        bridge_mask_[region_ids[i]] =
            static_cast<std::uint8_t>(sub_count_[sub_labels[i]] == 1);
      }
      next_label_ += region_blocks;
      // Drop cache entries keyed on the batch's temporary subgraphs.
      ctx_.invalidate();
    }
    // The flagged blocks vanished with the region (every edge of a
    // flagged label was a region member or deleted); the region solve's
    // blocks replaced them.
    result_.num_components =
        result_.num_components - flagged_count_ + region_blocks;
  }
  patch_cut_info();

  // Opportunistic renormalization: splices only grow the label space,
  // so when the ids outrun ~2(n + m), pay one first-appearance pass to
  // keep per-label scratch (here and in callers sizing by
  // label_bound()) proportional to the graph.  Amortized O(1) per
  // spliced edge.  The threshold is 64-bit (renormalize_label_threshold)
  // — vid arithmetic wraps past n + m = 2^31.  Renormalization is
  // produce-then-swap: normalize_labels rewrites every element, and
  // doing that inside the standing array would tear any published
  // snapshot or caller-held span mid-pass into a mix of old and new
  // label values (an inconsistent partition, not just non-canonical
  // ids).  Writing into a fresh buffer and swapping makes the visible
  // mutation a single pointer-level replacement.
  const std::uint64_t renorm_limit =
      opt_.renorm_label_limit != 0
          ? opt_.renorm_label_limit
          : renormalize_label_threshold(g_.n, g_.m());
  if (static_cast<std::uint64_t>(next_label_) > renorm_limit) {
    std::vector<vid> fresh(result_.edge_component);
    result_.num_components = normalize_labels(fresh);
    result_.edge_component = std::move(fresh);
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

void BatchDynamicBcc::patch_cut_info() {
  if (!opt_.compute_cut_info) {
    result_.is_articulation.clear();
    result_.bridges.clear();
    return;
  }
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
  // Ascending bridge ids, re-emitted from the patched mask (ids move
  // under swap compaction, so patching the sorted list in place would
  // cost more than this sequential sweep).
  result_.bridges.clear();
  for (eid e = 0; e < g_.m(); ++e) {
    if (bridge_mask_[e]) result_.bridges.push_back(e);
  }
}

}  // namespace parbcc
