// The Stochastic Finite Automaton (SFA) data model of Kumar & Ré,
// "Probabilistic Management of OCR Data using an RDBMS" (VLDB 2011).
//
// An SFA is a DAG with a unique start and final node. Each edge carries a
// set of labeled transitions; a label is a non-empty string over the ASCII
// alphabet and has a probability conditioned on the source node. A
// source-to-sink labeled path emits the concatenation of its labels with
// probability equal to the product of its transition probabilities.
//
// This is the *generalized* SFA of Section 3.1 (labels in Σ+ rather than Σ),
// which subsumes the raw per-character model produced by OCR and is closed
// under the Staccato Collapse operation.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/serde.h"
#include "util/status.h"

namespace staccato {

using NodeId = uint32_t;
using EdgeId = uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// \brief One labeled alternative on an edge: emit `label` with conditional
/// probability `prob` when leaving the edge's source node.
struct Transition {
  std::string label;
  double prob = 0.0;

  bool operator==(const Transition& o) const {
    return label == o.label && prob == o.prob;
  }
};

/// \brief A directed edge bundling all transitions between one node pair.
/// Transitions are kept sorted by descending probability (ties by label) so
/// the MAP alternative is always front().
struct Edge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  std::vector<Transition> transitions;
};

/// \brief Immutable SFA. Construct through SfaBuilder.
class Sfa {
 public:
  Sfa() = default;

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return edges_.size(); }
  NodeId start() const { return start_; }
  NodeId final() const { return final_; }

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }
  const std::vector<EdgeId>& OutEdges(NodeId n) const { return out_[n]; }
  const std::vector<EdgeId>& InEdges(NodeId n) const { return in_[n]; }

  /// Total number of labeled transitions across all edges.
  size_t NumTransitions() const;

  /// Nodes in a topological order (start first, final last): the Kahn
  /// FIFO order for a built Sfa, the stored order for a deserialized one
  /// (the same order, since Serialize stores it).
  const std::vector<NodeId>& TopologicalOrder() const { return topo_; }

  /// Position of each node in TopologicalOrder(); usable as a partial order.
  const std::vector<uint32_t>& TopoIndex() const { return topo_index_; }

  /// Total probability mass over all source-to-sink labeled paths, computed
  /// by the sum-product DP. Equals 1.0 for a stochastic SFA; may be < 1
  /// after approximation prunes strings.
  double TotalMass() const;

  /// Structural sanity checks: DAG with the stored topo order, unique
  /// start/final, every node on some start→final path, probabilities in
  /// (0, 1], non-empty labels. If `require_stochastic`, additionally checks
  /// each non-final node's outgoing mass sums to 1 (±1e-6).
  Status Validate(bool require_stochastic = false) const;

  /// Exhaustively enumerates emitted strings (up to `max_paths`) and checks
  /// the unique-path property: no string is emitted by two distinct labeled
  /// paths. Intended for tests; cost is linear in the number of paths.
  /// Returns InvalidArgument naming a duplicated string on violation, or
  /// OutOfRange if the SFA has more than `max_paths` paths.
  Status CheckUniquePaths(size_t max_paths = 1 << 20) const;

  /// Enumerates all emitted (string, probability) pairs; test/debug helper.
  /// Fails with OutOfRange if there are more than `max_paths` paths.
  Result<std::vector<std::pair<std::string, double>>> EnumerateStrings(
      size_t max_paths = 1 << 20) const;

  /// Approximate in-memory footprint in bytes (labels + per-transition
  /// metadata), mirroring the accounting of Table 1 in the paper.
  size_t SizeBytes() const;

  /// Binary blob encoding (the FullSFA and Staccato BLOBs stored in the
  /// RDBMS, and the WAL's full_sfa). Node ids, edge ids, transition order
  /// and TopologicalOrder() round-trip exactly through Deserialize.
  std::string Serialize() const;
  /// Decodes `blob` through SfaView and converts the view, so the format
  /// has one parser. Returns Corruption on anything SfaView::Decode
  /// rejects, on a blob no Sfa serializes to (two edges between one node
  /// pair, transitions out of descending-probability order) and on a
  /// graph that fails Validate().
  static Result<Sfa> Deserialize(const std::string& blob);

 private:
  friend class SfaBuilder;

  void IndexEdges();  ///< fills out_ and in_ from edges_, ids ascending
  Status ComputeTopologicalOrder();
  void IndexTopologicalOrder();

  size_t num_nodes_ = 0;
  NodeId start_ = kInvalidNode;
  NodeId final_ = kInvalidNode;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  std::vector<NodeId> topo_;
  std::vector<uint32_t> topo_index_;
};

/// \brief Mutable construction interface for SFAs.
///
/// Usage:
///   SfaBuilder b;
///   NodeId s = b.AddNode(); ... b.AddTransition(s, t, "F", 0.8);
///   b.SetStart(s); b.SetFinal(f);
///   STACCATO_ASSIGN_OR_RETURN(Sfa sfa, b.Build());
class SfaBuilder {
 public:
  NodeId AddNode();
  /// Adds `count` nodes, returning the id of the first.
  NodeId AddNodes(size_t count);

  /// Adds one labeled alternative between `from` and `to`; transitions for
  /// the same node pair accumulate on a single edge.
  Status AddTransition(NodeId from, NodeId to, std::string label, double prob);

  void SetStart(NodeId n) { start_ = n; }
  void SetFinal(NodeId n) { final_ = n; }

  size_t NumNodes() const { return num_nodes_; }

  /// Validates and freezes into an immutable Sfa. If `require_stochastic`,
  /// insists outgoing probabilities sum to 1 per node.
  Result<Sfa> Build(bool require_stochastic = false);

 private:
  struct PendingEdge {
    NodeId from, to;
    std::vector<Transition> transitions;
  };

  size_t num_nodes_ = 0;
  NodeId start_ = kInvalidNode;
  NodeId final_ = kInvalidNode;
  std::vector<PendingEdge> pending_;
  // (from << 32 | to) -> index into pending_.
  std::unordered_map<uint64_t, size_t> edge_index_;
};

/// Builds the simple chain SFA used by the Table-1 cost model: `length`
/// single-character positions, each with `alternatives` equally weighted
/// candidate labels. Useful for tests and the cost-model bench.
Result<Sfa> MakeChainSfa(size_t length, size_t alternatives);

/// \brief One labeled alternative as seen by SfaView: the label is a slice
/// of the decoded blob, not an owned string.
struct ViewTransition {
  std::string_view label;
  double prob = 0.0;
};

/// \brief One edge as seen by SfaView: a [first, first+count) range of
/// transition indices. Transitions are numbered in edge-id order, so edge
/// e's range starts where edge e-1's ends.
struct ViewEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint32_t first_transition = 0;
  uint32_t num_transitions = 0;
};

/// \brief Reusable backing storage for SfaView decoding. All buffers are
/// plain vectors that grow to the largest blob seen and are then reused, so
/// decoding candidate number N+1 performs no heap allocation once the arena
/// is warm — the point of the view path. One arena serves one worker; it is
/// not synchronized.
struct SfaViewArena {
  std::vector<ViewEdge> edges;          ///< edge-id order, as stored
  std::vector<uint32_t> label_offsets;  ///< T + 1 prefix sums of label lengths
  std::vector<uint32_t> out_offsets;    ///< CSR offsets, num_nodes + 1 entries
  std::vector<EdgeId> out_edges;        ///< CSR payload, edge ids ascending
  std::vector<NodeId> topo;             ///< the stored visit order
  std::vector<uint32_t> rank;           ///< decode scratch: position in topo
  std::vector<uint32_t> out_cursor;     ///< decode scratch: CSR fill cursor
  std::vector<double> out_mass;         ///< decode scratch: Σ out-probs
};

/// \brief Flat, allocation-free view of a serialized SFA blob.
///
/// The blob format (docs/ARCHITECTURE.md, "SFA blob format") is laid out so
/// the stored bytes are nearly the view: the visit order (omitted when it
/// is the identity), the edge skeleton in edge-id order, then the
/// transitions as three flat arrays — f64 probabilities, varint label
/// lengths, label bytes. Decode reads O(nodes + edges) varints and makes
/// one pass over the probabilities and label lengths; probabilities are
/// read in place and labels stay slices of the blob. The view borrows both
/// the blob and the arena; both must outlive it.
///
/// The view presents the Sfa it was serialized from: the same node and
/// edge ids, per-node out-edges ascending by edge id, transitions in
/// stored order, and TopologicalOrder() equal to the Sfa's. So
/// evaluating through a view is bit-identical to evaluating that Sfa, and
/// Sfa::Deserialize is a conversion from this view. Decode validates what
/// the evaluator relies on, on every call: ids in range, non-empty labels,
/// probabilities in (0,1], a final node without out-edges, and acyclicity
/// (the stored order is a permutation and every edge points forward in
/// it). Path reachability remains Sfa::Validate's job.
class SfaView {
 public:
  /// Decodes `blob` into `arena`'s buffers and points this view at them.
  /// Returns Corruption on malformed input, and on a blob of the retired
  /// SFA1 format; the arena contents are unspecified after a failure (the
  /// next Decode resets them).
  Status Decode(std::string_view blob, SfaViewArena* arena);

  size_t NumNodes() const { return num_nodes_; }
  size_t NumEdges() const { return arena_->edges.size(); }
  size_t NumTransitions() const { return num_transitions_; }
  NodeId start() const { return start_; }
  NodeId final() const { return final_; }

  const ViewEdge& edge(EdgeId e) const { return arena_->edges[e]; }
  /// Probability of transition `t`, read in place from the blob.
  double prob(uint32_t t) const {
    double p = 0.0;
    std::memcpy(&p, probs_ + static_cast<size_t>(t) * sizeof(double),
                sizeof(double));
    return p;
  }
  /// Label of transition `t`, a slice of the blob.
  std::string_view label(uint32_t t) const {
    const uint32_t* off = arena_->label_offsets.data();
    return std::string_view(labels_ + off[t], off[t + 1] - off[t]);
  }
  ViewTransition transition(uint32_t t) const { return {label(t), prob(t)}; }
  /// Out-edge ids of `n`, ascending — same order as Sfa::OutEdges.
  const EdgeId* out_begin(NodeId n) const {
    return arena_->out_edges.data() + arena_->out_offsets[n];
  }
  const EdgeId* out_end(NodeId n) const {
    return arena_->out_edges.data() + arena_->out_offsets[n + 1];
  }
  /// Nodes in topological order (identical to Sfa::TopologicalOrder()).
  const std::vector<NodeId>& TopologicalOrder() const { return arena_->topo; }

  /// Σ label lengths over all transitions; with the DFA state count this
  /// prices a full evaluation (the steps_total of EvalBound).
  uint64_t TotalLabelChars() const { return total_label_chars_; }

  /// True iff every node's outgoing transition probabilities sum to at most
  /// 1 (+ε). This is the precondition for the live-mass upper bound of the
  /// early-terminating evaluator: mass can then never amplify downstream,
  /// so accepted + pending mass bounds the final probability. Engine-built
  /// SFAs (stochastic, or approximations that only drop mass) satisfy it.
  bool MassBoundSafe() const { return mass_bound_safe_; }

 private:
  size_t num_nodes_ = 0;
  size_t num_transitions_ = 0;
  NodeId start_ = kInvalidNode;
  NodeId final_ = kInvalidNode;
  uint64_t total_label_chars_ = 0;
  bool mass_bound_safe_ = false;
  const char* probs_ = nullptr;   ///< T little-endian f64s, unaligned
  const char* labels_ = nullptr;  ///< concatenated label bytes
  const SfaViewArena* arena_ = nullptr;
};

}  // namespace staccato
