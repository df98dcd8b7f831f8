#pragma once

#include <variant>

#include "core/bcc.hpp"
#include "paper/solve.hpp"

/// \file engines.hpp
/// The five engines side by side, for the experiment drivers that
/// compare them: the library's BccAlgorithm values and the paper's TV
/// pipelines.  A bench that includes this header links parbcc_paper.

namespace parbcc {

using Engine = std::variant<BccAlgorithm, paper::Algorithm>;

inline const char* to_string(Engine engine) {
  return std::visit([](auto algorithm) { return to_string(algorithm); },
                    engine);
}

namespace bench {

/// Solve `g` with `engine` on `ctx`: biconnected_components for the
/// library's engines, paper::solve for the TV pipelines.  `base` holds
/// the options both entry points share.
inline BccResult solve(BccContext& ctx, const EdgeList& g, Engine engine,
                       const SolveOptions& base = {}) {
  if (const auto* algorithm = std::get_if<BccAlgorithm>(&engine)) {
    BccOptions opt;
    static_cast<SolveOptions&>(opt) = base;
    opt.algorithm = *algorithm;
    return biconnected_components(ctx, g, opt);
  }
  paper::PaperOptions opt;
  static_cast<SolveOptions&>(opt) = base;
  opt.algorithm = std::get<paper::Algorithm>(engine);
  return paper::solve(ctx, g, opt);
}

/// As above, cold: on a fresh context of base.threads workers.
inline BccResult solve(const EdgeList& g, Engine engine,
                       const SolveOptions& base) {
  BccContext ctx(base.threads);
  return solve(ctx, g, engine, base);
}

}  // namespace bench
}  // namespace parbcc
