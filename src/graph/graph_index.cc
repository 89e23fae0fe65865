#include "graph/graph_index.h"

#include <algorithm>
#include <numeric>

namespace relgo {
namespace graph {

Status GraphIndex::Build(const storage::Catalog& catalog,
                         const RgMapping& mapping) {
  edges_.assign(mapping.num_edge_labels(), EdgeIndexData());
  for (size_t e = 0; e < mapping.num_edge_labels(); ++e) {
    const EdgeMapping& em = mapping.edge_mapping(static_cast<int>(e));
    RELGO_ASSIGN_OR_RETURN(auto edge_table, catalog.GetTable(em.table));

    const VertexMapping& src_vm =
        mapping.vertex_mapping(mapping.FindVertexLabel(em.src_label));
    const VertexMapping& dst_vm =
        mapping.vertex_mapping(mapping.FindVertexLabel(em.dst_label));
    RELGO_ASSIGN_OR_RETURN(auto src_table, catalog.GetTable(src_vm.table));
    RELGO_ASSIGN_OR_RETURN(auto dst_table, catalog.GetTable(dst_vm.table));

    RELGO_ASSIGN_OR_RETURN(const auto* src_key,
                           src_table->GetKeyIndex(src_vm.key_column));
    RELGO_ASSIGN_OR_RETURN(const auto* dst_key,
                           dst_table->GetKeyIndex(dst_vm.key_column));

    const storage::Column* src_fk = edge_table->FindColumn(em.src_key_column);
    const storage::Column* dst_fk = edge_table->FindColumn(em.dst_key_column);
    if (src_fk == nullptr || dst_fk == nullptr) {
      return Status::InvalidArgument("edge table " + em.table +
                                     " missing FK columns");
    }

    EdgeIndexData& data = edges_[e];
    uint64_t n = edge_table->num_rows();
    data.src_rowids.resize(n);
    data.dst_rowids.resize(n);
    for (uint64_t r = 0; r < n; ++r) {
      auto sit = src_key->find(src_fk->int_at(r));
      auto dit = dst_key->find(dst_fk->int_at(r));
      if (sit == src_key->end() || dit == dst_key->end()) {
        return Status::InvalidArgument(
            "dangling FK in edge table " + em.table +
            ": lambda functions must be total (row " + std::to_string(r) +
            ")");
      }
      data.src_rowids[r] = sit->second;
      data.dst_rowids[r] = dit->second;
    }
    BuildCsr(data.src_rowids, data.dst_rowids, src_table->num_rows(),
             &data.out);
    BuildCsr(data.dst_rowids, data.src_rowids, dst_table->num_rows(),
             &data.in);
  }
  built_ = true;
  return Status::OK();
}

void GraphIndex::BuildCsr(const std::vector<uint64_t>& from,
                          const std::vector<uint64_t>& to,
                          uint64_t num_vertices, Csr* csr) {
  uint64_t m = from.size();
  csr->offsets.assign(num_vertices + 1, 0);
  for (uint64_t i = 0; i < m; ++i) csr->offsets[from[i] + 1]++;
  for (uint64_t v = 0; v < num_vertices; ++v) {
    csr->offsets[v + 1] += csr->offsets[v];
  }
  csr->neighbors.resize(m);
  csr->edges.resize(m);
  std::vector<uint64_t> cursor(csr->offsets.begin(), csr->offsets.end() - 1);
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t pos = cursor[from[i]]++;
    csr->neighbors[pos] = to[i];
    csr->edges[pos] = i;
  }
  // Sort each adjacency list by (neighbor, edge) so EXPAND_INTERSECT can use
  // linear merges and results are deterministic.
  for (uint64_t v = 0; v < num_vertices; ++v) {
    uint64_t begin = csr->offsets[v];
    uint64_t end = csr->offsets[v + 1];
    std::vector<std::pair<uint64_t, uint64_t>> buf;
    buf.reserve(end - begin);
    for (uint64_t i = begin; i < end; ++i) {
      buf.emplace_back(csr->neighbors[i], csr->edges[i]);
    }
    std::sort(buf.begin(), buf.end());
    for (uint64_t i = begin; i < end; ++i) {
      csr->neighbors[i] = buf[i - begin].first;
      csr->edges[i] = buf[i - begin].second;
    }
  }
}

double GraphIndex::AverageDegree(int edge_label, Direction dir) const {
  const Csr& csr =
      dir == Direction::kOut ? edges_[edge_label].out : edges_[edge_label].in;
  if (csr.offsets.size() <= 1) return 0.0;
  return static_cast<double>(csr.neighbors.size()) /
         static_cast<double>(csr.offsets.size() - 1);
}

size_t GraphIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& data : edges_) {
    bytes += (data.src_rowids.size() + data.dst_rowids.size()) * 8;
    for (const Csr* csr : {&data.out, &data.in}) {
      bytes +=
          (csr->offsets.size() + csr->neighbors.size() + csr->edges.size()) *
          8;
    }
  }
  return bytes;
}

}  // namespace graph
}  // namespace relgo
