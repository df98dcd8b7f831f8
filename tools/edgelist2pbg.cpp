// edgelist2pbg: convert a text graph (edge list / DIMACS / METIS /
// SNAP) to the .pbg binary prepared-graph format.
//
//   edgelist2pbg [options] <input.txt> <output.pbg>
//     --format auto|edgelist|dimacs|metis|snap   (default auto)
//     --threads N          parser + CSR build width (default hardware)
//     --verify             re-map the output with the deep integrity
//                          pass and cross-check counts
//
// The text parse is the chunked newline-aligned parallel parser
// (text_parse.hpp); the CSR build is the library's bucket scatter.
// Self-loops are stripped before writing (a .pbg stores a validated
// loop-free graph; the strip count is reported).  Timings for each
// stage are printed so the conversion cost is visible next to what
// the mmap loader later avoids.

#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "graph/io_binary.hpp"
#include "graph/text_parse.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace parbcc;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--format auto|edgelist|dimacs|metis|snap] [--threads N]"
               " [--verify] <input> <output.pbg>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  io::TextFormat format = io::TextFormat::kAuto;
  int threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  bool verify = false;
  std::string input;
  std::string output;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--format" && i + 1 < argc) {
      const std::string f = argv[++i];
      if (f == "auto") {
        format = io::TextFormat::kAuto;
      } else if (f == "edgelist") {
        format = io::TextFormat::kEdgeList;
      } else if (f == "dimacs") {
        format = io::TextFormat::kDimacs;
      } else if (f == "metis") {
        format = io::TextFormat::kMetis;
      } else if (f == "snap") {
        format = io::TextFormat::kSnap;
      } else {
        std::cerr << "unknown format: " << f << "\n";
        return usage(argv[0]);
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) threads = 1;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    } else if (input.empty()) {
      input = arg;
    } else if (output.empty()) {
      output = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input.empty() || output.empty()) return usage(argv[0]);

  try {
    Executor ex(threads);

    Timer parse_timer;
    EdgeList parsed = io::read_text_graph(ex, input, format);
    const double parse_s = parse_timer.seconds();

    eid loops = 0;
    EdgeList graph;
    {
      std::vector<eid> kept;
      graph = remove_self_loops(parsed, &kept);
      loops = parsed.m() - graph.m();
    }

    Timer write_timer;
    io::write_pbg(output, ex, graph);
    const double write_s = write_timer.seconds();

    std::cout << input << ": n=" << graph.n << " m=" << graph.m();
    if (loops > 0) std::cout << " (stripped " << loops << " self-loops)";
    std::cout << "\nparse   " << parse_s << " s (" << threads
              << " threads)\nconvert " << write_s << " s -> " << output
              << "\n";

    if (verify) {
      Timer verify_timer;
      io::MapOptions mopt;
      mopt.verify = true;
      const io::MappedGraph mapped = io::MappedGraph::map(output, mopt);
      if (mapped.graph().n != graph.n || mapped.graph().m() != graph.m()) {
        std::cerr << "verify: mapped shape does not match input\n";
        return 1;
      }
      std::cout << "verify  " << verify_timer.seconds() << " s ("
                << mapped.file_bytes() << " bytes)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "edgelist2pbg: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
