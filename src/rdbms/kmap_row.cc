#include "rdbms/kmap_row.h"

#include <cstring>

#include "util/serde.h"

namespace staccato::rdbms {

Schema KMapSchema() {
  return Schema({{"DataKey", ValueType::kInt},
                 {"LineNum", ValueType::kInt},  // rank of the path
                 {"Data", ValueType::kString},
                 {"LogProb", ValueType::kDouble}});
}

Tuple KMapTuple(int64_t key, int64_t rank, std::string data,
                double log_prob) {
  return {Value::Int(key), Value::Int(rank), Value::String(std::move(data)),
          Value::Double(log_prob)};
}

Result<KMapRow> DecodeKMapRow(std::string_view record) {
  BinaryReader r(record.data(), record.size());
  const char* fixed = r.ReadBytes(2 * sizeof(int64_t));
  if (fixed == nullptr) return Status::Corruption("kMAPData row truncated");
  uint64_t len = 0;
  if (!r.ReadVarint(&len)) {
    return Status::Corruption("kMAPData row: truncated or overlong varint");
  }
  const char* data = r.ReadBytes(static_cast<size_t>(len));
  if (data == nullptr) {
    return Status::Corruption("kMAPData row: string length out of bounds");
  }
  const char* log_prob = r.ReadBytes(sizeof(double));
  if (log_prob == nullptr) return Status::Corruption("kMAPData row truncated");
  KMapRow row;
  std::memcpy(&row.key, fixed, sizeof(int64_t));
  std::memcpy(&row.rank, fixed + sizeof(int64_t), sizeof(int64_t));
  row.data = std::string_view(data, static_cast<size_t>(len));
  std::memcpy(&row.log_prob, log_prob, sizeof(double));
  return row;
}

}  // namespace staccato::rdbms
