// The mutable delta generation: documents appended since the last Load or
// Checkpoint, held fully in memory and merged with the immutable base at
// query time. Each DeltaDoc is immutable once published (shared_ptr to
// const), so a PlanContext snapshot stays valid while later appends land.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace staccato {
namespace rdbms {

/// Term string -> packed postings (PackPosting) of one document, sorted
/// ascending per term exactly as BuildInvertedIndex stores them.
using PackedPostings = std::map<std::string, std::vector<uint64_t>>;

/// \brief One k-map row of a delta document: a candidate string and its
/// log probability, rank order matching KBestStrings.
struct DeltaKMapRow {
  std::string str;
  double log_prob = 0.0;
};

/// \brief Everything the query path needs about one appended document —
/// the in-memory mirror of the rows/blobs Load would have written.
struct DeltaDoc {
  std::string doc_name;
  int64_t year = 0;
  std::string truth;
  std::vector<DeltaKMapRow> kmap;  ///< rank-ascending, like the kmap table
  std::string full_blob;           ///< serialized full SFA (fullsfa blob)
  std::string graph_blob;          ///< serialized chunked SFA (graph blob)
  PackedPostings postings;
};

/// \brief Immutable snapshot of the delta taken when a plan context is
/// built: document ids [base_docs, base_docs + docs.size()) resolve here,
/// everything below base_docs resolves in the base tables.
struct DeltaView {
  size_t base_docs = 0;
  std::vector<std::shared_ptr<const DeltaDoc>> docs;

  bool Contains(uint64_t doc) const {
    return doc >= base_docs && doc - base_docs < docs.size();
  }
  const DeltaDoc& Doc(uint64_t doc) const { return *docs[doc - base_docs]; }
};

}  // namespace rdbms
}  // namespace staccato
