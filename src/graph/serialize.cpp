#include "graph/serialize.h"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace bdg {

void write_graph(std::ostream& os, const Graph& g) {
  os << "bdg1 " << g.n() << "\n";
  for (NodeId v = 0; v < g.n(); ++v) {
    os << v << ":";
    for (Port p = 0; p < g.degree(v); ++p) {
      const HalfEdge he = g.hop(v, p);
      os << " " << he.to << " " << he.reverse;
    }
    os << "\n";
  }
}

std::string graph_to_string(const Graph& g) {
  std::ostringstream ss;
  write_graph(ss, g);
  return ss.str();
}

Graph read_graph(std::istream& is) {
  std::string magic;
  std::size_t n = 0;
  if (!(is >> magic >> n) || magic != "bdg1")
    throw std::invalid_argument("read_graph: missing bdg1 header");
  // The header is untrusted: grow one node per label read instead of
  // sizing from n, so a huge n fails as a truncated list, not an
  // allocation; the loop only ends with exactly n nodes read.
  std::vector<std::vector<HalfEdge>> adj;
  for (std::size_t i = 0; i < n; ++i) {
    std::string label;
    if (!(is >> label))
      throw std::invalid_argument("read_graph: truncated node list");
    if (label != std::to_string(i) + ":")
      throw std::invalid_argument("read_graph: bad node label " + label);
    adj.emplace_back();
    // Read pairs until the next label or EOF. Peek-based: consume tokens
    // while they parse as numbers in pairs on the remainder of the line.
    std::string line;
    std::getline(is, line);
    std::istringstream ls(line);
    std::uint64_t to = 0, rev = 0;
    while (ls >> to >> rev) {
      if (to >= n || to > std::numeric_limits<NodeId>::max())
        throw std::invalid_argument("read_graph: edge target out of range");
      if (rev > std::numeric_limits<Port>::max())
        throw std::invalid_argument("read_graph: reverse port out of range");
      adj[i].push_back(
          HalfEdge{static_cast<NodeId>(to), static_cast<Port>(rev)});
    }
    if (!ls.eof() && ls.fail() && !ls.bad()) {
      // Trailing garbage that is not a number pair.
      std::string rest;
      ls.clear();
      if (ls >> rest)
        throw std::invalid_argument("read_graph: trailing tokens: " + rest);
    }
  }
  // Validate the involution BEFORE constructing (from_adjacency asserts it
  // in debug builds; malformed input must throw, not abort).
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t p = 0; p < adj[v].size(); ++p) {
      const HalfEdge& he = adj[v][p];
      if (he.to >= n || he.reverse >= adj[he.to].size() ||
          adj[he.to][he.reverse].to != v ||
          adj[he.to][he.reverse].reverse != p)
        throw std::invalid_argument("read_graph: port involution violated");
    }
  }
  return Graph::from_adjacency(std::move(adj));
}

Graph graph_from_string(const std::string& text) {
  std::istringstream ss(text);
  return read_graph(ss);
}

}  // namespace bdg
