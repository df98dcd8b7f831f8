// bcc_tool: command-line front end for the library — reads an edge
// list, runs the selected algorithm, and writes per-edge component
// labels (plus a cut-vertex/bridge summary) so the results can feed
// scripts and notebooks.
//
//   ./examples/bcc_tool --algo filter --threads 4 graph.txt labels.txt
//   ./examples/bcc_tool --algo seq graph.txt -        # labels to stdout
//   ./examples/bcc_tool --gen 100000x400000 -         # generated input
//
// Exit code 0 on success; the output format is one line per edge:
//   <u> <v> <component>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/bcc.hpp"
#include "core/validate.hpp"
#include "graph/generators.hpp"
#include "graph/text_parse.hpp"
#include "paper/solve.hpp"

namespace {

using namespace parbcc;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bcc_tool [--algo seq|smp|opt|filter|auto]\n"
               "                [--threads P] [--validate]\n"
               "                [--format plain|dimacs|metis]\n"
               "                (<input> | --gen NxM[:seed]) <output|->\n");
  std::exit(2);
}

EdgeList read_input(Executor& ex, const std::string& path,
                    const std::string& format) {
  io::TextFormat parsed_format = io::TextFormat::kEdgeList;
  if (format == "dimacs") {
    parsed_format = io::TextFormat::kDimacs;
  } else if (format == "metis") {
    parsed_format = io::TextFormat::kMetis;
  } else if (format != "plain") {
    usage();
  }
  try {
    return io::read_text_graph(ex, path, parsed_format);
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

/// An --algo value: one of the library's engines, or (tv set) one of
/// the paper's TV pipelines.
struct Algo {
  BccAlgorithm algorithm = BccAlgorithm::kAuto;
  std::optional<paper::Algorithm> tv;
};

Algo parse_algo(const std::string& s) {
  if (s == "seq") return {BccAlgorithm::kSequential, {}};
  if (s == "auto") return {BccAlgorithm::kAuto, {}};
  if (s == "smp") return {{}, paper::Algorithm::kTvSmp};
  if (s == "opt") return {{}, paper::Algorithm::kTvOpt};
  if (s == "filter") return {{}, paper::Algorithm::kTvFilter};
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  Algo algo;
  int threads = 4;
  bool run_validator = false;
  std::string gen_spec;
  std::string input;
  std::string output;
  std::string format = "plain";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--algo" && i + 1 < argc) {
      algo = parse_algo(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--validate") {
      run_validator = true;
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--gen" && i + 1 < argc) {
      gen_spec = argv[++i];
    } else if (input.empty() && gen_spec.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      usage();
    }
  }
  if (output.empty() || (input.empty() && gen_spec.empty())) usage();

  BccContext ctx(threads);
  EdgeList g;
  if (!gen_spec.empty()) {
    std::uint64_t n = 0, m = 0, seed = 1;
    const auto x = gen_spec.find('x');
    const auto colon = gen_spec.find(':');
    if (x == std::string::npos) usage();
    n = std::stoull(gen_spec.substr(0, x));
    m = std::stoull(gen_spec.substr(x + 1, colon == std::string::npos
                                               ? std::string::npos
                                               : colon - x - 1));
    if (colon != std::string::npos) seed = std::stoull(gen_spec.substr(colon + 1));
    g = gen::random_connected_gnm(static_cast<vid>(n), static_cast<eid>(m),
                                  seed);
  } else {
    g = read_input(ctx.executor(), input, format);
  }

  BccResult result;
  if (algo.tv) {
    paper::PaperOptions options;
    options.algorithm = *algo.tv;
    result = paper::solve(ctx, g, options);
  } else {
    BccOptions options;
    options.algorithm = algo.algorithm;
    result = biconnected_components(ctx, g, options);
  }

  std::fprintf(stderr, "n=%u m=%u algorithm=%s threads=%d\n", g.n, g.m(),
               algo.tv ? paper::to_string(*algo.tv) : to_string(algo.algorithm),
               ctx.executor().threads());
  std::fprintf(stderr, "components=%u bridges=%zu total=%.3fs\n",
               result.num_components, result.bridges.size(),
               result.times.total);

  if (run_validator) {
    const ValidationReport report = validate_bcc(ctx.executor(), g, result);
    if (!report.ok) {
      std::fprintf(stderr, "VALIDATION FAILED: %s\n", report.message.c_str());
      return 1;
    }
    std::fprintf(stderr, "validation: ok\n");
  }

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (output != "-") {
    file.open(output);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", output.c_str());
      return 1;
    }
    os = &file;
  }
  for (eid e = 0; e < g.m(); ++e) {
    (*os) << g.edges[e].u << ' ' << g.edges[e].v << ' '
          << result.edge_component[e] << '\n';
  }
  return 0;
}
