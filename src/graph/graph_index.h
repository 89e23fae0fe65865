#ifndef RELGO_GRAPH_GRAPH_INDEX_H_
#define RELGO_GRAPH_GRAPH_INDEX_H_

#include <cstdint>
#include <vector>

#include "graph/rg_mapping.h"
#include "storage/catalog.h"

namespace relgo {
namespace graph {

/// A borrowed view of one vertex's adjacency: parallel arrays of neighbor
/// vertex row ids and the edge row ids connecting to them, sorted by
/// neighbor row id (enabling linear-merge intersection in
/// EXPAND_INTERSECT).
struct AdjacencyList {
  const uint64_t* neighbors = nullptr;
  const uint64_t* edges = nullptr;
  size_t size = 0;
};

/// The GRainDB-style graph index of Sec 3.2.1, built per edge label.
///
/// * EV-index: for each edge tuple, the row ids of its source and target
///   vertex tuples (the "pid_rowid"/"mid_rowid" columns of Fig 5a).
/// * VE-index: CSR adjacency from each vertex tuple to its incident edge
///   tuples and neighbor vertex tuples (Fig 5b), for both directions.
///
/// The index materializes only row ids — never the graph itself — so it
/// adds no storage for properties and stays consistent with the relational
/// tables it is derived from.
class GraphIndex {
 public:
  /// Builds the index for all edge mappings. Fails if any FK value does not
  /// resolve to a vertex tuple (totality of lambda functions).
  Status Build(const storage::Catalog& catalog, const RgMapping& mapping);

  bool built() const { return built_; }

  /// EV-index lookups: endpoint vertex row ids of edge `edge_row`.
  uint64_t EdgeSource(int edge_label, uint64_t edge_row) const {
    return edges_[edge_label].src_rowids[edge_row];
  }
  uint64_t EdgeTarget(int edge_label, uint64_t edge_row) const {
    return edges_[edge_label].dst_rowids[edge_row];
  }

  /// VE-index lookup: adjacency of vertex `vertex_row` along `edge_label`
  /// in direction `dir` (kOut: vertex is source; kIn: vertex is target).
  /// Inline: the expansion operators call it once per input row.
  AdjacencyList Neighbors(int edge_label, Direction dir,
                          uint64_t vertex_row) const {
    const Csr& csr = dir == Direction::kOut ? edges_[edge_label].out
                                            : edges_[edge_label].in;
    AdjacencyList list;
    if (vertex_row + 1 >= csr.offsets.size()) return list;
    uint64_t begin = csr.offsets[vertex_row];
    list.neighbors = csr.neighbors.data() + begin;
    list.edges = csr.edges.data() + begin;
    list.size = csr.offsets[vertex_row + 1] - begin;
    return list;
  }

  /// Degree of `vertex_row` along `edge_label` in direction `dir`.
  uint64_t Degree(int edge_label, Direction dir, uint64_t vertex_row) const {
    const Csr& csr = dir == Direction::kOut ? edges_[edge_label].out
                                            : edges_[edge_label].in;
    if (vertex_row + 1 >= csr.offsets.size()) return 0;
    return csr.offsets[vertex_row + 1] - csr.offsets[vertex_row];
  }

  /// The largest degree of any vertex along `edge_label` in direction
  /// `dir`, recorded at Build. At most 1 means the hop is functional (a
  /// foreign key): every vertex has at most one neighbor.
  uint64_t MaxDegree(int edge_label, Direction dir) const {
    return dir == Direction::kOut ? edges_[edge_label].out.max_degree
                                  : edges_[edge_label].in.max_degree;
  }

  uint64_t NumEdges(int edge_label) const {
    return edges_[edge_label].src_rowids.size();
  }

  /// Average out-/in-degree of the endpoint vertex table for `edge_label`.
  double AverageDegree(int edge_label, Direction dir) const;

  /// Total bytes consumed by the index (reported by dataset statistics).
  size_t MemoryBytes() const;

 private:
  struct Csr {
    std::vector<uint64_t> offsets;  // size = |V| + 1
    std::vector<uint64_t> neighbors;
    std::vector<uint64_t> edges;
    uint64_t max_degree = 0;
  };
  struct EdgeIndexData {
    std::vector<uint64_t> src_rowids;  // EV-index
    std::vector<uint64_t> dst_rowids;
    Csr out;  // VE-index on the source vertex table
    Csr in;   // VE-index on the target vertex table
  };

  static void BuildCsr(const std::vector<uint64_t>& from,
                       const std::vector<uint64_t>& to, uint64_t num_vertices,
                       Csr* csr);

  std::vector<EdgeIndexData> edges_;
  bool built_ = false;
};

}  // namespace graph
}  // namespace relgo

#endif  // RELGO_GRAPH_GRAPH_INDEX_H_
