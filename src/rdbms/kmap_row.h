// kMAPData, the string approaches' relation (Table 5): one row per
// (document, rank) holding one of the document's k most likely
// transcriptions and its log probability; rank 0 is the MAP string.
//
// This module alone knows the row layout. Rows are written through the
// generic Schema encoding, which puts DataKey and LineNum at fixed offsets
// 0 and 8, then Data as a varint length plus bytes, then LogProb.
// DecodeKMapRow reads a stored record in place, without building a Tuple,
// so the strings scan can drop a row before it touches the string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "rdbms/value.h"
#include "util/result.h"

namespace staccato::rdbms {

/// The kMAPData schema: (DataKey, LineNum, Data, LogProb).
Schema KMapSchema();

/// One kMAPData row: the tuple (key, rank, string, log-prob).
Tuple KMapTuple(int64_t key, int64_t rank, std::string data,
                double log_prob);

/// \brief A kMAPData row viewed in place. `data` borrows the bytes of
/// the record (or of the in-memory string) it was read from.
struct KMapRow {
  int64_t key = 0;
  int64_t rank = 0;
  std::string_view data;
  double log_prob = 0.0;
};

/// Decodes one stored kMAPData record. Accepts exactly the records
/// Schema::DecodeTuple accepts under KMapSchema (trailing bytes are
/// ignored, as there): a truncated field, a varint longer than ten bytes,
/// or a string length past the record's end is Corruption. The length is
/// compared against the bytes left, so no length can overflow.
Result<KMapRow> DecodeKMapRow(std::string_view record);

}  // namespace staccato::rdbms
