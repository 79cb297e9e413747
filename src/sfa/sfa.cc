#include "sfa/sfa.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

namespace staccato {

namespace {

// The canonical transition order of an edge: descending probability, ties
// by label.
bool TransitionBefore(const Transition& a, const Transition& b) {
  if (a.prob != b.prob) return a.prob > b.prob;
  return a.label < b.label;
}

void SortTransitions(std::vector<Transition>* ts) {
  std::sort(ts->begin(), ts->end(), TransitionBefore);
}

}  // namespace

size_t Sfa::NumTransitions() const {
  size_t n = 0;
  for (const Edge& e : edges_) n += e.transitions.size();
  return n;
}

double Sfa::TotalMass() const {
  if (num_nodes_ == 0) return 0.0;
  std::vector<double> mass(num_nodes_, 0.0);
  mass[start_] = 1.0;
  for (NodeId n : topo_) {
    if (mass[n] == 0.0) continue;
    for (EdgeId eid : out_[n]) {
      const Edge& e = edges_[eid];
      double p = 0.0;
      for (const Transition& t : e.transitions) p += t.prob;
      mass[e.to] += mass[n] * p;
    }
  }
  return mass[final_];
}

Status Sfa::ComputeTopologicalOrder() {
  topo_.clear();
  topo_.reserve(num_nodes_);
  std::vector<uint32_t> indegree(num_nodes_, 0);
  for (const Edge& e : edges_) ++indegree[e.to];
  std::deque<NodeId> frontier;
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (indegree[n] == 0) frontier.push_back(n);
  }
  while (!frontier.empty()) {
    NodeId n = frontier.front();
    frontier.pop_front();
    topo_.push_back(n);
    for (EdgeId eid : out_[n]) {
      if (--indegree[edges_[eid].to] == 0) frontier.push_back(edges_[eid].to);
    }
  }
  if (topo_.size() != num_nodes_) {
    return Status::InvalidArgument("SFA graph contains a cycle");
  }
  IndexTopologicalOrder();
  return Status::OK();
}

void Sfa::IndexEdges() {
  out_.assign(num_nodes_, {});
  in_.assign(num_nodes_, {});
  for (EdgeId i = 0; i < edges_.size(); ++i) {
    out_[edges_[i].from].push_back(i);
    in_[edges_[i].to].push_back(i);
  }
}

void Sfa::IndexTopologicalOrder() {
  topo_index_.assign(num_nodes_, 0);
  for (uint32_t i = 0; i < topo_.size(); ++i) topo_index_[topo_[i]] = i;
}

Status Sfa::Validate(bool require_stochastic) const {
  if (num_nodes_ == 0) return Status::InvalidArgument("SFA has no nodes");
  if (start_ >= num_nodes_) return Status::InvalidArgument("invalid start node");
  if (final_ >= num_nodes_) return Status::InvalidArgument("invalid final node");
  if (start_ == final_ && num_nodes_ > 1) {
    return Status::InvalidArgument("start equals final in multi-node SFA");
  }
  for (const Edge& e : edges_) {
    if (e.from >= num_nodes_ || e.to >= num_nodes_) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (e.transitions.empty()) {
      return Status::InvalidArgument("edge with no transitions");
    }
    for (const Transition& t : e.transitions) {
      if (t.label.empty()) return Status::InvalidArgument("empty transition label");
      if (!(t.prob > 0.0) || t.prob > 1.0 + 1e-9) {
        return Status::InvalidArgument(
            StringPrintf("transition probability %f out of (0,1]", t.prob));
      }
    }
  }
  // Reachability from start, and co-reachability to final.
  std::vector<bool> fwd(num_nodes_, false), bwd(num_nodes_, false);
  fwd[start_] = true;
  for (NodeId n : topo_) {
    if (!fwd[n]) continue;
    for (EdgeId eid : out_[n]) fwd[edges_[eid].to] = true;
  }
  bwd[final_] = true;
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    if (!bwd[*it]) continue;
    for (EdgeId eid : in_[*it]) bwd[edges_[eid].from] = true;
  }
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (!fwd[n] || !bwd[n]) {
      return Status::InvalidArgument(
          StringPrintf("node %u not on a start-to-final path", n));
    }
  }
  if (!out_[final_].empty()) {
    return Status::InvalidArgument("final node has outgoing edges");
  }
  if (!in_[start_].empty()) {
    return Status::InvalidArgument("start node has incoming edges");
  }
  if (require_stochastic) {
    for (NodeId n = 0; n < num_nodes_; ++n) {
      if (n == final_) continue;
      double sum = 0.0;
      for (EdgeId eid : out_[n]) {
        for (const Transition& t : edges_[eid].transitions) sum += t.prob;
      }
      if (std::fabs(sum - 1.0) > 1e-6) {
        return Status::InvalidArgument(StringPrintf(
            "node %u outgoing probability sums to %f, expected 1", n, sum));
      }
    }
  }
  return Status::OK();
}

Result<std::vector<std::pair<std::string, double>>> Sfa::EnumerateStrings(
    size_t max_paths) const {
  std::vector<std::pair<std::string, double>> out;
  // DFS over partial paths; path count is bounded by max_paths.
  struct Frame {
    NodeId node;
    std::string prefix;
    double prob;
  };
  std::vector<Frame> stack;
  stack.push_back({start_, "", 1.0});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    if (f.node == final_) {
      out.emplace_back(std::move(f.prefix), f.prob);
      if (out.size() > max_paths) {
        return Status::OutOfRange("SFA has more paths than max_paths");
      }
      continue;
    }
    for (EdgeId eid : out_[f.node]) {
      const Edge& e = edges_[eid];
      for (const Transition& t : e.transitions) {
        stack.push_back({e.to, f.prefix + t.label, f.prob * t.prob});
        if (stack.size() > 4 * max_paths) {
          return Status::OutOfRange("SFA path expansion exceeds max_paths");
        }
      }
    }
  }
  return out;
}

Status Sfa::CheckUniquePaths(size_t max_paths) const {
  auto strings = EnumerateStrings(max_paths);
  if (!strings.ok()) return strings.status();
  std::unordered_set<std::string> seen;
  for (const auto& [s, p] : *strings) {
    if (!seen.insert(s).second) {
      return Status::InvalidArgument("string emitted by two paths: '" + s + "'");
    }
  }
  return Status::OK();
}

size_t Sfa::SizeBytes() const {
  // Mirrors the Table-1 accounting: label bytes plus 16 bytes of metadata
  // (ids, location, probability) per stored transition.
  size_t bytes = 0;
  for (const Edge& e : edges_) {
    for (const Transition& t : e.transitions) {
      bytes += t.label.size() + 16;
    }
  }
  return bytes;
}

namespace {

// The blob format; docs/ARCHITECTURE.md ("SFA blob format") lays it out.
constexpr uint32_t kSfaMagic = 0x53464132;         // "SFA2"
constexpr uint32_t kRetiredSfaMagic = 0x53464131;  // "SFA1"

// Fewest bytes one transition occupies: an f64 probability, a one-byte
// label length and one label byte.
constexpr size_t kMinTransitionBytes = sizeof(double) + 2;
// Fewest bytes one edge occupies: three one-byte varints and a transition.
constexpr size_t kMinEdgeBytes = 3 + kMinTransitionBytes;

constexpr uint32_t kUnranked = std::numeric_limits<uint32_t>::max();

Status Truncated() { return Status::Corruption("truncated SFA blob"); }

}  // namespace

std::string Sfa::Serialize() const {
  BinaryWriter w;
  w.PutU32(kSfaMagic);
  w.PutVarint(num_nodes_);
  w.PutVarint(start_);
  w.PutVarint(final_);
  w.PutVarint(edges_.size());
  // The visit order, left out when it is the identity.
  bool identity = true;
  for (size_t i = 0; i < topo_.size() && identity; ++i) {
    identity = topo_[i] == i;
  }
  w.PutVarint(identity ? 0 : topo_.size());
  if (!identity) {
    for (NodeId n : topo_) w.PutVarint(n);
  }
  for (const Edge& e : edges_) {
    w.PutVarint(e.from);
    w.PutVarint(e.to);
    w.PutVarint(e.transitions.size());
  }
  // The transitions, in edge-id order, as three flat arrays.
  for (const Edge& e : edges_) {
    for (const Transition& t : e.transitions) w.PutDouble(t.prob);
  }
  for (const Edge& e : edges_) {
    for (const Transition& t : e.transitions) w.PutVarint(t.label.size());
  }
  for (const Edge& e : edges_) {
    for (const Transition& t : e.transitions) {
      w.PutRaw(t.label.data(), t.label.size());
    }
  }
  return w.Release();
}

Result<Sfa> Sfa::Deserialize(const std::string& blob) {
  SfaViewArena arena;
  SfaView view;
  STACCATO_RETURN_NOT_OK(view.Decode(blob, &arena));
  Sfa sfa;
  sfa.num_nodes_ = view.NumNodes();
  sfa.start_ = view.start();
  sfa.final_ = view.final();
  sfa.edges_.resize(view.NumEdges());
  for (EdgeId id = 0; id < view.NumEdges(); ++id) {
    const ViewEdge& ve = view.edge(id);
    Edge& e = sfa.edges_[id];
    e.from = ve.from;
    e.to = ve.to;
    e.transitions.reserve(ve.num_transitions);
    for (uint32_t k = 0; k < ve.num_transitions; ++k) {
      const ViewTransition t = view.transition(ve.first_transition + k);
      e.transitions.push_back({std::string(t.label), t.prob});
    }
    if (!std::is_sorted(e.transitions.begin(), e.transitions.end(),
                        TransitionBefore)) {
      return Status::Corruption("SFA blob: transitions out of order");
    }
  }
  sfa.IndexEdges();
  // SfaBuilder bundles all transitions between one node pair on one edge.
  std::vector<NodeId> seen_from(sfa.num_nodes_, kInvalidNode);
  for (NodeId n = 0; n < sfa.num_nodes_; ++n) {
    for (EdgeId id : sfa.out_[n]) {
      NodeId& from = seen_from[sfa.edges_[id].to];
      if (from == n) {
        return Status::Corruption("SFA blob: two edges between one node pair");
      }
      from = n;
    }
  }
  sfa.topo_ = view.TopologicalOrder();
  sfa.IndexTopologicalOrder();
  Status valid = sfa.Validate();
  if (!valid.ok()) return Status::Corruption("SFA blob: " + valid.message());
  return sfa;
}

Status SfaView::Decode(std::string_view blob, SfaViewArena* arena) {
  // The view holds node ids, transition indices and label offsets in 32
  // bits; every count below is bounded by the blob size.
  if (blob.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("SFA blob larger than 4 GiB");
  }
  BinaryReader r(blob.data(), blob.size());
  STACCATO_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic == kRetiredSfaMagic) {
    return Status::Corruption(
        "SFA blob in the retired SFA1 format; reload the database from its "
        "source documents");
  }
  if (magic != kSfaMagic) return Status::Corruption("bad SFA magic");

  uint64_t num_nodes = 0, start = 0, final = 0, num_edges = 0, order_size = 0;
  if (!r.ReadVarint(&num_nodes)) return Truncated();
  // Every node except the start must have at least one incident edge (each
  // at least a few bytes), so a node count far beyond the blob size is
  // corruption — reject before allocating.
  if (num_nodes > blob.size() + 2 || num_nodes > kInvalidNode) {
    return Status::Corruption("node count exceeds plausible blob capacity");
  }
  if (num_nodes == 0) return Status::Corruption("SFA has no nodes");
  if (!r.ReadVarint(&start) || !r.ReadVarint(&final)) return Truncated();
  if (start >= num_nodes || final >= num_nodes) {
    return Status::Corruption("start/final node out of range");
  }
  if (!r.ReadVarint(&num_edges)) return Truncated();
  if (num_edges > r.remaining() / kMinEdgeBytes) {
    return Status::Corruption("edge count exceeds plausible blob capacity");
  }

  // The visit order: omitted (size 0) when it is the identity.
  if (!r.ReadVarint(&order_size)) return Truncated();
  arena->topo.resize(num_nodes);
  arena->rank.resize(num_nodes);
  if (order_size == 0) {
    for (NodeId n = 0; n < num_nodes; ++n) arena->topo[n] = arena->rank[n] = n;
  } else if (order_size == num_nodes) {
    std::fill(arena->rank.begin(), arena->rank.end(), kUnranked);
    for (uint32_t i = 0; i < num_nodes; ++i) {
      uint64_t n = 0;
      if (!r.ReadVarint(&n)) return Truncated();
      if (n >= num_nodes) {
        return Status::Corruption("visit order names a node out of range");
      }
      if (arena->rank[n] != kUnranked) {
        return Status::Corruption("visit order repeats a node");
      }
      arena->rank[n] = i;
      arena->topo[i] = static_cast<NodeId>(n);
    }
  } else {
    return Status::Corruption("visit order size is neither 0 nor node count");
  }

  // The edge skeleton, in edge-id order. An edge that points forward in a
  // permutation of the nodes cannot close a cycle, so this pass is also the
  // acyclicity check. out_offsets[n + 1] counts n's out-edges.
  arena->edges.resize(num_edges);
  arena->out_offsets.assign(num_nodes + 1, 0);
  uint64_t num_transitions = 0;
  for (ViewEdge& e : arena->edges) {
    uint64_t from = 0, to = 0, nt = 0;
    if (!r.ReadVarint(&from) || !r.ReadVarint(&to) || !r.ReadVarint(&nt)) {
      return Truncated();
    }
    if (from >= num_nodes || to >= num_nodes) {
      return Status::Corruption("edge endpoint out of range");
    }
    if (arena->rank[from] >= arena->rank[to]) {
      return Status::Corruption(
          "edge does not point forward in the visit order (cycle or bad "
          "order)");
    }
    if (nt == 0) return Status::Corruption("edge with no transitions");
    if (nt > r.remaining()) {
      return Status::Corruption("transition count exceeds blob capacity");
    }
    e.from = static_cast<NodeId>(from);
    e.to = static_cast<NodeId>(to);
    e.first_transition = static_cast<uint32_t>(num_transitions);
    e.num_transitions = static_cast<uint32_t>(nt);
    num_transitions += nt;
    if (num_transitions > r.remaining() / kMinTransitionBytes) {
      return Status::Corruption("transition count exceeds blob capacity");
    }
    ++arena->out_offsets[from + 1];
  }
  // The evaluator skips the final node outright (it scores its mass at the
  // end), which is only sound if the final node has no out-edges — the
  // same invariant Sfa::Validate enforces on the deserialization path.
  if (arena->out_offsets[final + 1] != 0) {
    return Status::Corruption("final node has outgoing edges");
  }

  // CSR adjacency: prefix-sum the histogram, then fill slots in edge-id
  // order so each node's out-list ascends by edge id (matching Sfa::Build).
  for (size_t n = 0; n < num_nodes; ++n) {
    arena->out_offsets[n + 1] += arena->out_offsets[n];
  }
  arena->out_cursor.assign(arena->out_offsets.begin(),
                           arena->out_offsets.end() - 1);
  arena->out_edges.resize(num_edges);
  for (EdgeId e = 0; e < num_edges; ++e) {
    arena->out_edges[arena->out_cursor[arena->edges[e].from]++] = e;
  }

  // The transitions: one pass walks the f64 probabilities and reads the
  // label lengths beside them, prefix-summing the lengths into offsets.
  //
  // Each node's outgoing sum adds its out-edges in ascending id and each
  // edge's transitions in order — the order Sfa::OutEdges presents them —
  // for the mass-bound check: no node's outgoing probabilities may sum
  // above 1.
  const char* probs = r.ReadBytes(num_transitions * sizeof(double));
  if (probs == nullptr) return Truncated();
  arena->out_mass.assign(num_nodes, 0.0);
  arena->label_offsets.resize(num_transitions + 1);
  uint32_t* offsets = arena->label_offsets.data();
  offsets[0] = 0;
  uint64_t chars = 0;
  bool in_range = true;
  size_t t = 0;
  for (const ViewEdge& e : arena->edges) {
    double sum = arena->out_mass[e.from];
    for (const size_t end = t + e.num_transitions; t < end; ++t) {
      double prob = 0.0;
      std::memcpy(&prob, probs + t * sizeof(double), sizeof(prob));
      in_range &= prob > 0.0 && prob <= 1.0 + 1e-9;  // false for NaN
      sum += prob;
      uint64_t len = 0;
      if (!r.ReadVarint(&len)) return Truncated();
      if (len == 0) return Status::Corruption("empty transition label");
      // Each length is at most the bytes left, so `chars` cannot overflow
      // before ReadBytes checks the sum.
      if (len > r.remaining()) return Truncated();
      chars += len;
      offsets[t + 1] = static_cast<uint32_t>(chars);
    }
    arena->out_mass[e.from] = sum;
  }
  if (!in_range) {
    return Status::Corruption("transition probability out of (0,1]");
  }
  mass_bound_safe_ = true;
  for (double sum : arena->out_mass) {
    if (sum > 1.0 + 1e-6) {
      mass_bound_safe_ = false;
      break;
    }
  }
  // The label bytes end the blob exactly.
  const char* labels = r.ReadBytes(chars);
  if (labels == nullptr) return Truncated();
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after SFA blob");
  }

  num_nodes_ = num_nodes;
  num_transitions_ = num_transitions;
  start_ = static_cast<NodeId>(start);
  final_ = static_cast<NodeId>(final);
  total_label_chars_ = chars;
  probs_ = probs;
  labels_ = labels;
  arena_ = arena;
  return Status::OK();
}

NodeId SfaBuilder::AddNode() { return static_cast<NodeId>(num_nodes_++); }

NodeId SfaBuilder::AddNodes(size_t count) {
  NodeId first = static_cast<NodeId>(num_nodes_);
  num_nodes_ += count;
  return first;
}

Status SfaBuilder::AddTransition(NodeId from, NodeId to, std::string label,
                                 double prob) {
  if (from >= num_nodes_ || to >= num_nodes_) {
    return Status::InvalidArgument("AddTransition: node id out of range");
  }
  if (label.empty()) {
    return Status::InvalidArgument("AddTransition: empty label");
  }
  uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
  auto it = edge_index_.find(key);
  if (it != edge_index_.end()) {
    pending_[it->second].transitions.push_back({std::move(label), prob});
    return Status::OK();
  }
  pending_.push_back({from, to, {{std::move(label), prob}}});
  edge_index_.emplace(key, pending_.size() - 1);
  return Status::OK();
}

Result<Sfa> SfaBuilder::Build(bool require_stochastic) {
  if (start_ == kInvalidNode || final_ == kInvalidNode) {
    return Status::InvalidArgument("start/final node not set");
  }
  Sfa sfa;
  sfa.num_nodes_ = num_nodes_;
  sfa.start_ = start_;
  sfa.final_ = final_;
  sfa.edges_.reserve(pending_.size());
  for (auto& pe : pending_) {
    SortTransitions(&pe.transitions);
    sfa.edges_.push_back(Edge{pe.from, pe.to, std::move(pe.transitions)});
  }
  sfa.IndexEdges();
  STACCATO_RETURN_NOT_OK(sfa.ComputeTopologicalOrder());
  STACCATO_RETURN_NOT_OK(sfa.Validate(require_stochastic));
  return sfa;
}

Result<Sfa> MakeChainSfa(size_t length, size_t alternatives) {
  if (length == 0 || alternatives == 0 || alternatives > 52) {
    return Status::InvalidArgument("MakeChainSfa: bad parameters");
  }
  SfaBuilder b;
  NodeId first = b.AddNodes(length + 1);
  double p = 1.0 / static_cast<double>(alternatives);
  for (size_t i = 0; i < length; ++i) {
    for (size_t a = 0; a < alternatives; ++a) {
      char c = a < 26 ? static_cast<char>('a' + a) : static_cast<char>('A' + a - 26);
      STACCATO_RETURN_NOT_OK(b.AddTransition(
          static_cast<NodeId>(first + i), static_cast<NodeId>(first + i + 1),
          std::string(1, c), p));
    }
  }
  b.SetStart(first);
  b.SetFinal(static_cast<NodeId>(first + length));
  return b.Build(/*require_stochastic=*/true);
}

}  // namespace staccato
