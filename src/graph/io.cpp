#include "graph/io.hpp"

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace parbcc::io {

void write_edge_list(std::ostream& os, const EdgeList& g) {
  os << g.n << ' ' << g.m() << '\n';
  for (const Edge& e : g.edges) {
    os << e.u << ' ' << e.v << '\n';
  }
}

void write_edge_list_file(const std::string& path, const EdgeList& g) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_edge_list(os, g);
  if (!os) throw std::runtime_error("write failed: " + path);
}

void write_dimacs(std::ostream& os, const EdgeList& g) {
  os << "c generated by parbcc\n";
  os << "p edge " << g.n << ' ' << g.m() << '\n';
  for (const Edge& e : g.edges) {
    os << "e " << e.u + 1 << ' ' << e.v + 1 << '\n';
  }
}

void write_metis(std::ostream& os, const EdgeList& g) {
  std::vector<std::vector<vid>> adj(g.n);
  for (const Edge& e : g.edges) {
    if (e.u == e.v) {
      throw std::runtime_error("metis: self-loops are not representable");
    }
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  os << g.n << ' ' << g.m() << '\n';
  for (vid v = 0; v < g.n; ++v) {
    for (std::size_t k = 0; k < adj[v].size(); ++k) {
      os << (k ? " " : "") << adj[v][k] + 1;
    }
    os << '\n';
  }
}

}  // namespace parbcc::io
