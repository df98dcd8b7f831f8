// Tests for the span tracer behind every StepTimes figure: rollup
// structure, counter aggregation across SPMD widths, charge semantics,
// the disabled fast path, StepTimes derivation, and the Chrome export.

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/bcc.hpp"
#include "graph/generators.hpp"
#include "paper/solve.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace parbcc {
namespace {

void spin_ns(std::int64_t ns) {
  const std::int64_t until = Trace::now_ns() + ns;
  while (Trace::now_ns() < until) {
  }
}

TEST(Trace, NestedSpansRollUpIntoPathsWithCallCounts) {
  Trace tr;
  {
    TraceSpan outer(tr, "solve");
    {
      TraceSpan inner(tr, "spanning_tree");
      spin_ns(200000);
    }
    {
      TraceSpan inner(tr, "label_edge");
      spin_ns(200000);
    }
  }
  const TraceReport report = tr.report();
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_EQ(report.phases[0].path, "solve");
  EXPECT_EQ(report.phases[0].depth, 0);
  EXPECT_EQ(report.phases[1].path, "solve/spanning_tree");
  EXPECT_EQ(report.phases[1].depth, 1);
  EXPECT_EQ(report.phases[2].path, "solve/label_edge");

  const TracePhase* solve = report.find_path("solve");
  const TracePhase* st = report.find_path("solve/spanning_tree");
  const TracePhase* le = report.find_path("solve/label_edge");
  ASSERT_NE(solve, nullptr);
  ASSERT_NE(st, nullptr);
  ASSERT_NE(le, nullptr);
  EXPECT_EQ(solve->calls, 1u);
  EXPECT_GT(st->inclusive_seconds, 0.0);
  // Parent inclusive covers both children; its exclusive does not.
  EXPECT_GE(solve->inclusive_seconds,
            st->inclusive_seconds + le->inclusive_seconds);
  EXPECT_NEAR(solve->exclusive_seconds,
              solve->inclusive_seconds - st->inclusive_seconds -
                  le->inclusive_seconds,
              1e-9);
}

TEST(Trace, RepeatedSpansOnTheSamePathAggregate) {
  // TV-filter opens "filtering" twice (forest build + final scatter);
  // the rollup must fold both into one phase so Fig. 4 sees one bar.
  Trace tr;
  {
    TraceSpan root(tr, "TV-filter");
    { TraceSpan f(tr, steps::kFiltering); }
    { TraceSpan e(tr, steps::kEulerTour); }
    { TraceSpan f(tr, steps::kFiltering); }
  }
  const TraceReport report = tr.report();
  const TracePhase* filtering = report.find_path("TV-filter/filtering");
  ASSERT_NE(filtering, nullptr);
  EXPECT_EQ(filtering->calls, 2u);
  int filtering_phases = 0;
  for (const TracePhase& p : report.phases) {
    if (p.name == "filtering") ++filtering_phases;
  }
  EXPECT_EQ(filtering_phases, 1);
}

TEST(Trace, CountersAggregateAcrossThreadWidths) {
  for (const int p : {1, 4, 12}) {
    Executor ex(p);
    Trace tr(p);
    ex.run([&](int tid) {
      for (int i = 0; i < 3; ++i) {
        tr.counter("edges_inspected", 10.0, tid);
      }
    });
    const TraceReport report = tr.report();
    EXPECT_DOUBLE_EQ(report.counter_total("edges_inspected"), 30.0 * p)
        << "p = " << p;
    ASSERT_EQ(report.counters.size(), 1u);
    EXPECT_EQ(report.counters[0].samples, 3u * static_cast<unsigned>(p));
    EXPECT_DOUBLE_EQ(report.counter_total("never_emitted"), 0.0);
  }
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace tr(4);
  tr.set_enabled(false);
  {
    TraceSpan span(tr, "solve");
    tr.counter("edges", 5.0);
    tr.charge("conversion", 1.0);
  }
  EXPECT_TRUE(tr.events().empty());
  const TraceReport report = tr.report();
  EXPECT_TRUE(report.phases.empty());
  EXPECT_TRUE(report.counters.empty());
}

TEST(Trace, NullTraceSpanIsANoOp) {
  TraceSpan span(static_cast<Trace*>(nullptr), "solve");
  span.close();  // must not crash
}

TEST(Trace, ChargeBooksAsChildWithoutShrinkingParentExclusive) {
  Trace tr;
  {
    TraceSpan root(tr, "TV-opt");
    tr.charge(steps::kConversion, 1.5);
    spin_ns(100000);
  }
  const TraceReport report = tr.report();
  const TracePhase* conv = report.find_path("TV-opt/conversion");
  const TracePhase* root = report.find_path("TV-opt");
  ASSERT_NE(conv, nullptr);
  ASSERT_NE(root, nullptr);
  EXPECT_DOUBLE_EQ(conv->inclusive_seconds, 1.5);
  EXPECT_DOUBLE_EQ(conv->charged_seconds, 1.5);
  EXPECT_EQ(conv->calls, 1u);
  // The charge was not measured inside the root span's wall clock, so
  // it must not be subtracted from the root's exclusive time.
  EXPECT_GT(root->exclusive_seconds, 0.0);
  EXPECT_NEAR(root->exclusive_seconds, root->inclusive_seconds, 1e-9);
}

TEST(Trace, MarkSlicesOlderEventsOut)
{
  Trace tr;
  { TraceSpan span(tr, "first_solve"); }
  const Trace::Mark mark = tr.mark();
  { TraceSpan span(tr, "second_solve"); }
  const TraceReport report = tr.report_since(mark);
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].path, "second_solve");
  // The full report still sees both.
  EXPECT_EQ(tr.report().phases.size(), 2u);
}

TEST(Trace, DeriveStepTimesMatchesExactCharges) {
  // Charges have exact, clock-free durations, so the derivation can be
  // checked to the double-precision digit.
  Trace tr;
  tr.charge(steps::kConversion, 0.25);
  {
    TraceSpan root(tr, "TV-filter");
    tr.charge(steps::kSpanningTree, 1.0);
    tr.charge(steps::kFiltering, 0.5);
    tr.charge(steps::kFiltering, 0.25);
    {
      TraceSpan e(tr, steps::kEulerTour);
      tr.charge(steps::kLowHigh, 0.125);
    }
  }
  const TraceReport report = tr.report();
  const double euler = report.inclusive_seconds(steps::kEulerTour);
  const double total = 0.25 + 1.0 + 0.5 + 0.25 + euler + 0.75;
  const StepTimes times = derive_step_times(report, total);
  EXPECT_DOUBLE_EQ(times.conversion, 0.25);
  EXPECT_DOUBLE_EQ(times.spanning_tree, 1.0);
  EXPECT_DOUBLE_EQ(times.filtering, 0.75);
  // A nested charge counts toward its own step, at any depth, but not
  // toward the enclosing span's measured wall clock.
  EXPECT_DOUBLE_EQ(times.low_high, 0.125);
  EXPECT_LT(times.euler_tour, 0.125);
  EXPECT_DOUBLE_EQ(times.total, total);
  EXPECT_NEAR(times.unattributed, 0.75 - 0.125, 1e-9);
  EXPECT_NEAR(times.accounted() + times.unattributed, times.total, 1e-9);
}

TEST(Trace, UnattributedClampsAtZero) {
  Trace tr;
  tr.charge(steps::kConversion, 2.0);
  const StepTimes times = derive_step_times(tr.report(), 1.0);
  EXPECT_DOUBLE_EQ(times.unattributed, 0.0);
  EXPECT_DOUBLE_EQ(times.total, 1.0);
}

TEST(Trace, StepNameConstantsPinTheSubstrateSpellings) {
  // Substrate files (spanning/, eulertour/, the filter driver) spell
  // these as string literals; a renamed constant must fail here, not
  // silently split a Fig. 4 bar in two.
  EXPECT_STREQ(steps::kConversion, "conversion");
  EXPECT_STREQ(steps::kSpanningTree, "spanning_tree");
  EXPECT_STREQ(steps::kEulerTour, "euler_tour");
  EXPECT_STREQ(steps::kRootTree, "root_tree");
  EXPECT_STREQ(steps::kLowHigh, "low_high");
  EXPECT_STREQ(steps::kLabelEdge, "label_edge");
  EXPECT_STREQ(steps::kConnectedComponents, "connected_components");
  EXPECT_STREQ(steps::kFiltering, "filtering");
}

TEST(Trace, UnclosedSpanClosesAtLastTimestamp) {
  Trace tr;
  tr.begin("solve");
  tr.begin("spanning_tree");
  tr.end("spanning_tree");
  // "solve" never ends (e.g. report taken mid-flight): the rollup
  // closes it at the last observed timestamp instead of dropping it.
  const TraceReport report = tr.report();
  const TracePhase* solve = report.find_path("solve");
  ASSERT_NE(solve, nullptr);
  EXPECT_EQ(solve->calls, 1u);
  EXPECT_GE(solve->inclusive_seconds,
            report.find_path("solve/spanning_tree")->inclusive_seconds);
}

TEST(Trace, DrainConcatenatesAndClears) {
  const int p = 4;
  Executor ex(p);
  Trace tr(p);
  {
    TraceSpan span(tr, "solve");
    ex.run([&](int tid) { tr.counter("c", 1.0, tid); });
  }
  std::vector<TraceEvent> events = tr.drain(ex);
  // 2 span events from tid 0 + one counter per tid.
  EXPECT_EQ(events.size(), 2u + p);
  EXPECT_TRUE(tr.events().empty());
}

bool json_braces_balance(const std::string& s) {
  long brace = 0;
  long bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
        ++brace;
        break;
      case '}':
        --brace;
        break;
      case '[':
        ++bracket;
        break;
      case ']':
        --bracket;
        break;
      default:
        break;
    }
    if (brace < 0 || bracket < 0) return false;
  }
  return brace == 0 && bracket == 0 && !in_string;
}

TEST(Trace, ChromeExportIsStructurallyValidJson) {
  Trace tr(2);
  {
    TraceSpan root(tr, "TV-filter");
    tr.charge(steps::kConversion, 0.125);
    { TraceSpan f(tr, steps::kFiltering); }
    tr.counter("sv_rounds", 3.0);
    tr.counter("weird \"name\"\n", 1.0, 1);
  }
  TraceSegment seg;
  seg.label = "TV-filter";
  seg.events = tr.events();
  seg.report = tr.report();
  const std::string json =
      chrome_trace_json(std::span<const TraceSegment>(&seg, 1));

  EXPECT_TRUE(json_braces_balance(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"parbccReports\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"charged\": true"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  // The escaped counter name must not have produced a raw newline
  // inside a string (the balance check would still pass).
  EXPECT_NE(json.find("weird \\\"name\\\"\\n"), std::string::npos);
}

TEST(Trace, SolveRollupReachesBccResult) {
  // End-to-end: a traced solve exposes its step spans and telemetry
  // counters through BccResult::trace.
  EdgeList g;
  g.n = 64;
  for (vid v = 0; v + 1 < g.n; ++v) g.edges.push_back({v, v + 1});
  for (vid v = 0; v + 2 < g.n; v += 2) g.edges.push_back({v, v + 2});
  paper::PaperOptions opt;
  opt.algorithm = paper::Algorithm::kTvFilter;
  opt.threads = 4;
  BccContext ctx(opt.threads);
  const BccResult r = paper::solve(ctx, g, opt);
  EXPECT_NE(r.trace.find_path("TV-filter"), nullptr);
  EXPECT_GT(r.trace.inclusive_seconds(steps::kSpanningTree), 0.0);
  EXPECT_GT(r.trace.counter_total("peak_workspace_bytes"), 0.0);
  EXPECT_GE(r.trace.counter_total("sv_rounds"), 1.0);
  EXPECT_NEAR(r.times.accounted() + r.times.unattributed, r.times.total,
              std::max(0.01 * r.times.total, 1e-6));
}

bool opens_span(const TraceReport& report, const std::string& name) {
  for (const TracePhase& phase : report.phases) {
    if (phase.name == name) return true;
  }
  return false;
}

TEST(Trace, LibraryEnginesReportCutInfoWithoutAPostPass) {
  // HT and FastBCC return cut info from their own state, with
  // contiguous ids: no cut_info pass and no label normalization.  The
  // TV pipelines still derive cut info from their labels.
  const EdgeList g = gen::random_gnm(3000, 4500, 5);  // several components
  BccContext ctx(4);
  for (const BccAlgorithm algorithm :
       {BccAlgorithm::kSequential, BccAlgorithm::kFastBcc}) {
    BccOptions opt;
    opt.algorithm = algorithm;
    const BccResult r = biconnected_components(ctx, g, opt);
    ASSERT_EQ(r.is_articulation.size(), g.n) << to_string(algorithm);
    EXPECT_FALSE(opens_span(r.trace, "cut_info")) << to_string(algorithm);
    EXPECT_FALSE(opens_span(r.trace, "normalize")) << to_string(algorithm);
  }
  paper::PaperOptions popt;
  popt.algorithm = paper::Algorithm::kTvOpt;
  const BccResult tv = paper::solve(ctx, g, popt);
  EXPECT_TRUE(opens_span(tv.trace, "cut_info"));
}

}  // namespace
}  // namespace parbcc
