#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/bcc_context.hpp"
#include "core/bcc_result.hpp"
#include "graph/edge_list.hpp"
#include "util/trace.hpp"

/// \file batch_dynamic.hpp
/// Batch-dynamic biconnectivity: apply a batch of edge insertions and
/// deletions to a standing graph and republish its BCC labels without
/// re-solving from scratch.
///
/// The engine keeps the previous solve's edge labels and exploits the
/// locality of block structure under edits:
///
///  - a deletion can only split the block containing the deleted edge;
///  - an insertion can only merge the blocks along the block-cut-tree
///    path between its endpoints (or mint a fresh bridge block when the
///    endpoints were disconnected).
///
/// Alongside the labels it maintains *exact* connected-component ids
/// across batches (see comp_id_ below): an insertion joining two
/// components is an O(alpha) union; a deletion that disconnects its
/// endpoints is detected by a bidirectional BFS over the engine's
/// incidence lists whose cost is the size of the detached side — the
/// first side to run out of frontier *is* the split-off component and
/// is relabeled under a fresh id.  Exact ids make insertion
/// classification free: two finds decide same-component vs
/// cross-component, no search.
///
/// Per batch the engine (1) collects the *affected region* — the union
/// of complete blocks that any batch edge can touch.  Deletions flag
/// the block holding the deleted edge.  A same-component insertion
/// flags a path: the block-decomposition fact is that *any* simple u-v
/// path crosses exactly the blocks on the block-cut-tree path between
/// u and v (an excursion out of a block must re-enter through the same
/// articulation vertex, so it is never simple), so a capped
/// bidirectional BFS meeting in the middle flags such a path in work
/// proportional to the meeting balls — no per-batch CSR build and no
/// whole-component traversal.  Cross-component insertions merge
/// nothing on their own — the new edge becomes a bridge block — unless
/// the batch closes a cycle over standing components; a union-find
/// over the per-batch component multigraph (keyed by the exact
/// component ids) detects that, and the response flags, for every
/// endpoint group of the cyclic classes, the paths from one
/// representative to each other member — which covers all pairwise
/// block-cut-tree paths, and the union of per-edge tree paths is
/// exactly the set of blocks any added-edge combination can merge.
/// (2) It extracts that region plus the inserted edges as a compact
/// subgraph and solves only it, with Hopcroft-Tarjan; and (3) splices
/// the region's fresh labels back with previously unused label values,
/// patching the cut info only where it can change.
///
/// Everything the splice path touches is O(batch + region + bridges)
/// — never an O(n + m) rebuild, re-normalization, or full cut-info
/// recomputation:
///
///  - the region is collected by flooding each flagged block from a
///    seed edge along its own label over the incidence lists (one
///    label sweep over all edges only when hubs make the flood cost
///    more than half of one, counted as `batch_region_sweeps`);
///  - a deletion that is the only one in its (non-bridge) block cannot
///    disconnect anything, so it skips the split check;
///  - deletions compact `graph().edges` by swapping the last edge into
///    the hole, so the incidence lists need only O(degree) surgery at
///    the four affected endpoints (ids of unaffected edges never move
///    en masse);
///  - spliced region labels take fresh ids from a monotone counter
///    (`label_bound()` is the exclusive upper bound); the published
///    array is renormalized in place, and only when the id space
///    outgrows ~2(n + m), so labels are *partition*-canonical but not
///    contiguous — exactly the guarantee bcc_result.hpp already limits
///    callers to.  `num_components` stays exact by arithmetic: flagged
///    blocks vanish with the region, the region solve's blocks appear;
///  - `is_articulation` is recomputed only for vertices incident to the
///    region or the batch (no other vertex's incident label multiset
///    changed), and bridges are maintained as a per-edge mask patched
///    by the splice; the ascending id list keeps its unmoved standing
///    bridges and merges in the moved and region ones.
///
/// Region growth is the damage model: when the touched-vertex fraction
/// passes `BatchDynamicOptions::damage_threshold`, patching would cost
/// as much as solving, so the engine falls back to a full solve through
/// the shared `BccContext` path (counter `batch_fallbacks`).  The
/// fallback, like construction, seeds the component ids with one
/// parallel connected-components pass; construction also copies the
/// incidence lists, in parallel, from the solve's cached CSR rows.
///
/// A bidirectional search (insertion path or deletion split check)
/// whose both sides pass kSearchCap vertices without a verdict also
/// forces the full solve.
///
/// Tracing: every batch opens a `batch_apply` span with `damage_probe`
/// and (on the incremental path) `region_solve` nested inside, and
/// charges the `batch_touched_vertices` / `batch_fallbacks` counters —
/// the streaming bench's segments are validated against exactly these
/// names by tools/validate_trace.py.

namespace parbcc {

/// Label values above this bound trigger the opportunistic
/// renormalization (labels are partition-canonical but sparse between
/// renormalizations, and per-label scratch sizes by the bound).  The
/// arithmetic is 64-bit on purpose: computed in 32-bit `vid`, the
/// 2(n + m) product wraps once n + m passes 2^31 and the comparison
/// silently misfires on exactly the graphs whose label space most
/// needs compacting.
inline constexpr std::uint64_t renormalize_label_threshold(std::uint64_t n,
                                                           std::uint64_t m) {
  return 2 * (n + m) + 1024;
}

struct BatchDynamicOptions {
  /// Fall back to a full re-solve when the affected region touches more
  /// than this fraction of the graph's vertices.  The default is the
  /// measured crossover of the streaming bench (see EXPERIMENTS.md A6):
  /// below ~15% damage the region solve plus the O(batch + region)
  /// splice beats the full pipeline; above it the region solve
  /// converges to the full solve while still paying the probe.
  double damage_threshold = 0.15;
  /// Renormalize the published labels once label_bound() exceeds this;
  /// 0 means renormalize_label_threshold(n, m) of the standing graph.
  /// Tests set a tiny limit to force the renormalization on every
  /// batch.
  std::uint64_t renorm_label_limit = 0;
  /// Event sink shared by every batch (spans + counters as above).
  Trace* trace = nullptr;
};

/// Telemetry of the most recent apply_batch call.
struct BatchStats {
  /// Vertices incident to the affected region (the damage numerator).
  vid touched_vertices = 0;
  /// Edges of the extracted region subgraph (insertions included); 0
  /// when the batch fell back.
  eid region_edges = 0;
  /// True when the batch fell back to a full re-solve (damage past the
  /// threshold, or a search past kSearchCap).
  bool fell_back = false;
};

class BatchDynamicBcc {
 public:
  /// Take ownership of `base` (must be loop-free) and solve it once to
  /// seed the standing labels.  The context supplies the executor, the
  /// scratch arena and the conversion cache for every later batch.
  BatchDynamicBcc(BccContext& ctx, EdgeList base,
                  const BatchDynamicOptions& options = {});

  /// The standing graph after all batches so far.  A deletion swaps the
  /// last edge into the freed slot (ids of the swapped edges change;
  /// everything else keeps its id); insertions append.  The result's
  /// labels, bridges and stats are always in this numbering.
  const EdgeList& graph() const { return g_; }

  /// The standing result: labels and cut info of graph(), updated by
  /// every apply_batch.  Labels are partition-canonical with values in
  /// [0, label_bound()) — contiguous right after construction or a
  /// fallback, sparse after splices until the opportunistic
  /// renormalization (bcc_result.hpp already limits callers to the
  /// partition); num_components is always exact.
  const BccResult& result() const { return result_; }

  /// Exclusive upper bound of the label values in result(); size
  /// per-label scratch by this, not by num_components.
  vid label_bound() const { return next_label_; }

  const BatchStats& last_batch() const { return stats_; }

  /// Batches that fell back to a full re-solve since construction.
  std::uint64_t fallbacks() const { return fallbacks_; }

  /// Monotone epoch counter: 0 after construction, +1 per apply_batch
  /// (splice or fallback alike).  This is the snapshot-publication
  /// hook: a serving layer that republishes result() as an immutable
  /// snapshot stamps each published epoch with this value, so readers
  /// can tell stale answers from fresh ones without touching the
  /// engine.  result()'s buffers are engine-owned and rewritten by the
  /// next apply_batch — publishers must deep-copy what they serve.
  std::uint64_t version() const { return version_; }

  /// Apply one batch: drop `deletions` (edge ids into graph().edges as
  /// numbered *before* this call; duplicates rejected), append
  /// `insertions` (loop-free; parallel edges allowed), and republish
  /// the labels.  Returns the updated standing result.
  const BccResult& apply_batch(std::span<const Edge> insertions,
                               std::span<const eid> deletions);

 private:
  /// Verdict of one bidirectional path search (see search_pair).
  enum class Probe { kMeet, kUndecided };

  /// Solve g_ from scratch (kAuto, with cut info) and restart the
  /// label counter and the bridge mask from its result.
  void full_solve();
  /// Rebuild comp_id_ / the component union-find from scratch: one
  /// connected_components pass, whose smallest-vertex-id labels are
  /// the roots of an identity union-find (construction and fallback
  /// re-solves; the incremental path maintains the ids exactly instead).
  void reseed_components();
  vid comp_find(vid c);
  /// Exact component id of vertex v (find over comp_id_[v]).
  vid comp_of(vid v) { return comp_find(comp_id_[v]); }
  /// Union the components of u and v (by size).  No-op if equal.
  void comp_join(vid u, vid v);
  /// Did deleting {u, v} disconnect them?  Bidirectional BFS over the
  /// post-deletion incidence lists: a meet proves them still connected;
  /// the first side to exhaust is the detached component and is
  /// relabeled under a fresh id (cost = its size).  `was_bridge` skips
  /// the contact test: a deleted bridge always disconnects.  Returns
  /// false — component ids unreliable — when both sides hit
  /// kSearchCap; the caller must then force a full re-solve,
  /// which reseeds.
  bool split_check(vid u, vid v, bool was_bridge);
  /// Bumps search_epoch_ (resetting the stamp arrays on wrap) and
  /// returns the fresh stamp.
  std::uint32_t next_search_epoch();
  /// Prefetches the scattered entries the batch will touch one miss at
  /// a time — deleted edges, the tail edges their holes take, the
  /// endpoints' incidence lists and component ids — in three waves of
  /// independent loads, so the misses overlap instead of queueing.
  void prefetch_batch(std::span<const Edge> insertions);
  /// Flags the block holding edge e (once per label; e seeds the
  /// region flood of that block).
  void flag_block(eid e);
  /// Flags the labels of every block a batch edge can touch: deleted
  /// edges flag their own block; each same-component insertion flags
  /// the blocks met by its bidirectional-search path (exactly the
  /// block-cut-tree path plus at most the meeting balls); and
  /// component-joining insertions that close a cycle over standing
  /// components flag representative paths inside each endpoint group.
  /// Then collects the flagged blocks' edges into region_ (see
  /// collect_region).  Returns the region's touched-vertex count (the
  /// touched vertices are also collected into touched_ for the
  /// cut-info patch); sets force_full_ when a search was undecidable.
  vid probe_damage(std::span<const Edge> insertions,
                   std::span<const eid> deletions);
  /// Capped bidirectional BFS between u and v (same component by the
  /// exact ids) over adj_.  On kMeet the labels of a simple u-v path
  /// have been flagged.  kUndecided means the cap was hit first — or a
  /// side exhausted without contact, which would contradict the ids
  /// and is treated as undecidable for safety.
  Probe search_pair(vid u, vid v);
  /// Edge ids (pre-batch numbering) of every flagged block into
  /// region_, their endpoints into touched_.  Each block is flooded
  /// from its seed edge over adj_ along its own label, so the cost is
  /// the degree sum of the region's vertices, not m; a flood whose arc
  /// count passes m / 2 (hub-heavy regions) gives way to one label
  /// sweep over all edges.  Stops early once more than `touch_limit`
  /// vertices are touched — the batch falls back and needs no region.
  void collect_region(double touch_limit);
  /// Applies the batch to g_.edges, the aligned label / bridge-mask
  /// arrays and the incidence lists: deletions (del_scratch_, sorted
  /// ascending) swap-compact with O(degree) surgery per affected
  /// endpoint, insertions append with fresh ids.  With
  /// maintain_components, each deletion runs its split check right
  /// after its arcs are dropped and each insertion joins its endpoints'
  /// components — sequential semantics, so the ids stay exact at every
  /// step — and region_ follows every moved edge into the new
  /// numbering (insertions appended; they get a placeholder label and
  /// are always in the region).  Pass false when a fallback re-solve
  /// (which reseeds) is already decided.
  void rebuild_edges(std::span<const Edge> insertions,
                     bool maintain_components);
  /// Recompute is_articulation for the touched vertices (no other
  /// vertex's incident label multiset changed) and patch the ascending
  /// bridge list: drop the region's standing bridges and those past
  /// `base` (the edge count after the deletions, before the
  /// insertions), merge in the moved and region ones.
  void patch_cut_info(eid base);

  BccContext& ctx_;
  BatchDynamicOptions opt_;
  EdgeList g_;
  BccResult result_;
  BatchStats stats_;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t version_ = 0;
  Trace* trace_ = nullptr;  // opt_.trace, or null (spans become no-ops)
  /// Per-side exploration cap of the bidirectional searches (insertion
  /// paths and deletion split checks).  It covers meets across the bulk
  /// of a power-law giant component while bounding the worst batch.
  static constexpr vid kSearchCap = 1u << 16;
  /// Set by the probe or a split check when a search was undecidable
  /// within kSearchCap; apply_batch then falls back regardless of
  /// damage.
  bool force_full_ = false;

  /// Incidence lists (neighbor, edge id) of the standing graph, kept
  /// current across batches by rebuild_edges' per-endpoint surgery.
  std::vector<std::vector<std::pair<vid, eid>>> adj_;
  /// Per edge, the positions of its two arcs: [arc_side(x, y)] is the
  /// index of edge {x, y} in adj_[x] (side 0 is the smaller endpoint's
  /// list; loop-free, so the sides never collide).  Aligned with
  /// g_.edges, so deleting or renumbering an arc is O(1) even at a hub.
  std::vector<std::array<std::uint32_t, 2>> arc_pos_;
  static int arc_side(vid x, vid y) { return x < y ? 0 : 1; }

  /// Exact connected-component ids, maintained across batches: splits
  /// relabel the detached (smaller) side under a fresh id appended to
  /// the union-find arrays; joins union by size.  Ids are indices into
  /// comp_parent_ / comp_size_, compacted back to [0, n) whenever
  /// splits have grown the id space past ~2n.
  std::vector<vid> comp_id_;
  std::vector<vid> comp_parent_;
  std::vector<vid> comp_size_;

  /// One past the largest label value in result_.edge_component; fresh
  /// splice labels are drawn from here so unchanged blocks keep their
  /// values (which is what makes the cut-info patch local).
  vid next_label_ = 0;
  /// Per-label probe flags (kFlagged, kDeleted, kMultiDeleted), sized
  /// by label_bound() and cleared entry by entry through flagged_, so a
  /// batch never pays for the whole label space.
  static constexpr std::uint8_t kFlagged = 1;
  static constexpr std::uint8_t kDeleted = 2;
  static constexpr std::uint8_t kMultiDeleted = 4;
  std::vector<std::uint8_t> label_flags_;
  /// (label, seed edge) per block flagged by the last probe.  Its size
  /// is the number of blocks that vanish with the region (every flagged
  /// label's edges are region members or deleted), which keeps
  /// num_components exact without a scan.
  std::vector<std::pair<vid, eid>> flagged_;
  /// Region edge ids: pre-batch numbering after the probe, the new one
  /// after rebuild_edges (deleted entries dropped, moved ones followed,
  /// insertions appended).  edge_slot_[e] is e's index in region_,
  /// meaningful only while e's label is flagged.
  std::vector<eid> region_;
  std::vector<eid> edge_slot_;
  /// Per-edge bridge flags, aligned with g_.edges across swaps and
  /// splices: the probe, the split checks and the bridge-list patch
  /// read it.
  std::vector<std::uint8_t> bridge_mask_;
  /// Standing bridges the region swallows (pre-batch ids), and the
  /// final positions of moved non-region bridges plus the region's new
  /// bridges — the two edits patch_cut_info makes to the sorted list,
  /// which it rebuilds into bridge_scratch_ and swaps in.
  std::vector<eid> region_bridges_;
  std::vector<eid> moved_bridges_;
  std::vector<eid> bridge_scratch_;

  // Search scratch, persistent across batches and epoch-stamped so a
  // batch initializes O(visited), not O(n).  touch_mark_ de-duplicates
  // the damage numerator; mark_a_/mark_b_ with par_a_/par_b_ are the
  // two search sides' visit stamps and discovery edges; visits_a_/
  // visits_b_ replay a side's marked set so a split check can relabel
  // the detached side without re-traversal.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> touch_mark_;
  std::vector<vid> touched_;
  std::uint32_t search_epoch_ = 0;
  std::vector<std::uint32_t> mark_a_, mark_b_;
  std::vector<eid> par_a_, par_b_;
  std::vector<vid> front_a_, front_b_, next_a_, next_b_;
  std::vector<vid> visits_a_, visits_b_;
  std::vector<eid> del_scratch_;
  std::vector<vid> sub_count_;
  /// Per-batch component multigraph of the cross-component insertions:
  /// (component, endpoint) pairs, each component id's rank (kNoVertex
  /// between batches), and a union-find with cycle flags over ranks.
  std::vector<std::pair<vid, vid>> cross_ends_;
  std::vector<vid> comp_rank_;
  std::vector<vid> cross_parent_;
  std::vector<std::uint8_t> cross_cycle_;
  /// Region extraction: compact id per vertex, valid where mark_b_
  /// carries the extraction's stamp.
  std::vector<vid> compact_;
  EdgeList region_graph_;
};

}  // namespace parbcc
