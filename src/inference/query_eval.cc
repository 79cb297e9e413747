#include "inference/query_eval.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>

namespace staccato {

namespace {

// Steps a dense DFA-state mass vector through one label string.
// in/out have dfa.NumStates() entries; `scratch` and `next` are reused
// across calls (the per-transition `next` vector used to be constructed
// here on every call — the dominant allocation of the whole Eval stage).
void StepLabel(const Dfa& dfa, const std::string& label,
               const std::vector<double>& in, std::vector<double>* out,
               std::vector<double>* scratch, std::vector<double>* next_buf) {
  const int q = dfa.NumStates();
  std::vector<double>* cur = scratch;
  *cur = in;
  std::vector<double>& next = *next_buf;
  for (char c : label) {
    std::fill(next.begin(), next.end(), 0.0);
    for (int s = 0; s < q; ++s) {
      double m = (*cur)[s];
      if (m == 0.0) continue;
      DfaState t = dfa.Next(s, c);
      if (t == kDfaDead) continue;  // mass of strings the DFA rejects is dropped
      next[t] += m;
    }
    std::swap(*cur, next);
  }
  for (int s = 0; s < q; ++s) (*out)[s] += (*cur)[s];
}

// Slack on the pruning comparison: `live` is an exact bound only up to
// floating-point accumulation error, which is *absolute* (operands have
// magnitude up to 1.0, so error ~1e-12 even over the longest documents)
// — a purely relative slack would be tighter than the error whenever the
// threshold itself is tiny. The cutoff therefore backs off by both a
// relative and an absolute margin, each orders of magnitude above any
// reachable error, so a candidate whose true probability ties or beats
// the k-th best answer can never be pruned. The lost pruning power
// (candidates within ~1e-9 of the cutoff) is negligible, and a threshold
// below the absolute slack simply disables pruning (cutoff <= 0).
constexpr double kBoundSlackRel = 1e-9;
constexpr double kBoundSlackAbs = 1e-9;

// ---- DFA-state support bitsets of the bounded kernel ----------------------
// Bit s of a support is set once slot s of its mass vector has been
// written; a clear bit stands for exactly +0.0, whatever the slot holds.
//
// The kernel is instantiated per support width: kWords = 1 for DFAs of at
// most 64 states (every Table 6 query), where a support is one word, and
// kWords = 0 for ⌈q/64⌉ words chosen at run time.

constexpr size_t kSupportBits = 64;

// The word of a support holding state s. At one word the index is the
// constant 0, which lets a support held by value stay in a register.
template <size_t kWords>
inline size_t WordOf(size_t s) {
  return kWords == 1 ? 0 : s / kSupportBits;
}

inline size_t LowestBit(uint64_t bits) {
  return static_cast<size_t>(__builtin_ctzll(bits));
}

/// A support being written: kWords words held by value, which the one-word
/// instantiation keeps in a register, and copied from and back to a row of
/// EvalScratch::support around the writes.
template <size_t kWords>
struct Support {
  uint64_t bits[kWords] = {};
  uint64_t* words() { return bits; }
  void Load(const uint64_t* row) { std::copy(row, row + kWords, bits); }
  void Store(uint64_t* row) const { std::copy(bits, bits + kWords, row); }
};

/// The run-time width writes the row in place.
template <>
struct Support<0> {
  uint64_t* bits = nullptr;
  uint64_t* words() { return bits; }
  void Load(uint64_t* row) { bits = row; }
  void Store(uint64_t*) const {}
};

// Calls visit(s) for every set bit s, in ascending state order.
template <typename Visit>
inline void ForEachState(const uint64_t* sup, size_t words, Visit&& visit) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = sup[w]; bits != 0; bits &= bits - 1) {
      visit(w * kSupportBits + LowestBit(bits));
    }
  }
}

// ForEachState that also clears each word as it reads it, leaving the
// support empty — ready to be the next step's target with no separate
// per-character fill.
template <typename Visit>
inline void DrainSupport(uint64_t* sup, size_t words, Visit&& visit) {
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = sup[w];
    sup[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      visit(w * kSupportBits + LowestBit(bits));
    }
  }
}

// The one state of a support holding exactly one, or -1.
inline int64_t LoneState(const uint64_t* sup, size_t words) {
  int64_t lone = -1;
  for (size_t w = 0; w < words; ++w) {
    const uint64_t bits = sup[w];
    if (bits == 0) continue;
    if (lone >= 0 || (bits & (bits - 1)) != 0) return -1;
    lone = static_cast<int64_t>(w * kSupportBits + LowestBit(bits));
  }
  return lone;
}

// mass[s] += v on a support-tracked vector, branch-free: a first arrival
// adds v to +0.0 instead of to whatever the slot holds — the slot's bits
// are masked with the support bit. That stores exactly v, the dense
// kernel's 0.0 + v, because v is a product of non-negative masses and
// probabilities and so never -0.0.
template <size_t kWords>
inline void AddMass(double* mass, uint64_t* sup, size_t s, double v) {
  uint64_t& word = sup[WordOf<kWords>(s)];
  const size_t b = s % kSupportBits;
  uint64_t slot;
  std::memcpy(&slot, &mass[s], sizeof slot);
  slot &= uint64_t{0} - ((word >> b) & 1);  // +0.0 unless the bit is set
  double held;
  std::memcpy(&held, &slot, sizeof held);
  mass[s] = held + v;
  word |= uint64_t{1} << b;
}

/// The DP arrays of one evaluation: node n's mass over the q DFA states
/// and its support.
struct DpRows {
  double* mass;
  uint64_t* support;
  size_t q;
  size_t words;

  double* MassRow(NodeId n) const {
    return mass + static_cast<size_t>(n) * q;
  }
  uint64_t* SupportRow(NodeId n) const {
    return support + static_cast<size_t>(n) * words;
  }
};

/// One transition's two working vectors and their supports; they trade
/// places after every character.
template <size_t kWords>
struct WorkVectors {
  double* cur;
  double* next;
  Support<kWords> cur_sup;
  Support<kWords> next_sup;
};

// Calls visit(e, tr, out, out_sup) for every transition out of node n:
// edges ascending by id, each edge's transitions in stored order. `out`
// is the target's mass row and `out_sup` its support, which the one-word
// width keeps in a register while the edge's transitions run.
template <size_t kWords, typename Visit>
inline void ForEachOutTransition(const SfaView& view, const DpRows& rows,
                                 NodeId n, Visit&& visit) {
  for (const EdgeId* it = view.out_begin(n); it != view.out_end(n); ++it) {
    const ViewEdge& e = view.edge(*it);
    double* out = rows.MassRow(e.to);
    Support<kWords> out_sup;
    out_sup.Load(rows.SupportRow(e.to));
    const uint32_t tr_end = e.first_transition + e.num_transitions;
    for (uint32_t tr = e.first_transition; tr < tr_end; ++tr) {
      visit(e, tr, out, out_sup.words());
    }
    out_sup.Store(rows.SupportRow(e.to));
  }
}

// The two ways a node propagates. Each adds the label characters it
// steps to *chars and returns `live` plus the mass that stays alive: only
// accepting arrivals at the final node stay alive, since it has no
// out-edges and non-accepting mass there is already dead.

// Node n's mass m sits in the one DFA state s: each transition is a
// straight line, one table step per character and one multiply-add.
template <size_t kWords>
double StraightLineNode(const SfaView& view, const Dfa& dfa,
                        const DpRows& rows, NodeId n, DfaState s, double m,
                        double live, uint64_t* chars) {
  const NodeId fin = view.final();
  uint64_t stepped = 0;
  ForEachOutTransition<kWords>(
      view, rows, n,
      [&](const ViewEdge& e, uint32_t tr, double* out, uint64_t* out_sup) {
        const std::string_view label = view.label(tr);
        stepped += label.size();
        DfaState t = s;
        for (char c : label) {
          t = dfa.Next(t, c);
          if (t == kDfaDead) return;  // rejected mass is dropped
        }
        const double v = m * view.prob(tr);
        AddMass<kWords>(out, out_sup, static_cast<size_t>(t), v);
        if (e.to != fin || dfa.IsAccept(t)) live += v;
      });
  *chars += stepped;
  return live;
}

// Node n's mass sits in two or more DFA states: each transition steps a
// working vector character by character, merging states that meet in
// ascending state order, and then adds it into the target.
template <size_t kWords>
double MergeNode(const SfaView& view, const Dfa& dfa, const DpRows& rows,
                 NodeId n, WorkVectors<kWords> work, double live,
                 uint64_t* chars) {
  const NodeId fin = view.final();
  const size_t words = kWords != 0 ? kWords : rows.words;
  const double* in = rows.MassRow(n);
  const uint64_t* in_sup = rows.SupportRow(n);
  uint64_t stepped = 0;
  ForEachOutTransition<kWords>(
      view, rows, n,
      [&](const ViewEdge& e, uint32_t tr, double* out, uint64_t* out_sup) {
        const std::string_view label = view.label(tr);
        stepped += label.size();
        // The first character steps the node's own slots scaled by the
        // transition's probability; later ones step the working vector,
        // scaled by 1.0, which is exact.
        const double* src = in;
        double scale = view.prob(tr);
        std::copy(in_sup, in_sup + words, work.cur_sup.words());
        for (char c : label) {
          DrainSupport(work.cur_sup.words(), words, [&](size_t s) {
            const DfaState t = dfa.Next(static_cast<DfaState>(s), c);
            if (t == kDfaDead) return;  // rejected mass is dropped
            AddMass<kWords>(work.next, work.next_sup.words(),
                            static_cast<size_t>(t), src[s] * scale);
          });
          src = work.next;
          scale = 1.0;
          std::swap(work.cur, work.next);
          std::swap(work.cur_sup, work.next_sup);
        }
        double arrived = 0.0;
        DrainSupport(work.cur_sup.words(), words, [&](size_t s) {
          AddMass<kWords>(out, out_sup, s, work.cur[s]);
          if (e.to != fin || dfa.IsAccept(static_cast<DfaState>(s))) {
            arrived += work.cur[s];
          }
        });
        live += arrived;
      });
  *chars += stepped;
  return live;
}

/// The body of EvalSfaViewBounded for one support width (see there).
template <size_t kWords>
double PropagateBounded(const SfaView& view, const Dfa& dfa,
                        double threshold, EvalScratch* scratch,
                        EvalBound* bound) {
  const size_t q = static_cast<size_t>(dfa.NumStates());
  const size_t words =
      kWords != 0 ? kWords : (q + kSupportBits - 1) / kSupportBits;
  const size_t nodes = view.NumNodes();
  // Row n of each array is node n's; the two mass rows after the last node
  // are one transition's working vectors, and so are the two support rows
  // after it at the run-time width. A mass slot is read only after its
  // support bit is set, so the mass arena only grows; the support words
  // are what a new candidate clears.
  if (scratch->mass.size() < (nodes + 2) * q) {
    scratch->mass.resize((nodes + 2) * q);
  }
  scratch->support.assign((nodes + (kWords == 0 ? 2 : 0)) * words, 0);
  const DpRows rows{scratch->mass.data(), scratch->support.data(), q, words};
  WorkVectors<kWords> work{rows.mass + nodes * q, rows.mass + (nodes + 1) * q,
                           {}, {}};
  if constexpr (kWords == 0) {
    work.cur_sup.Load(rows.support + nodes * words);
    work.next_sup.Load(rows.support + (nodes + 1) * words);
  }

  const NodeId fin = view.final();
  AddMass<kWords>(rows.MassRow(view.start()),
                  rows.SupportRow(view.start()),
                  static_cast<size_t>(dfa.start()), 1.0);
  const bool can_prune = threshold > 0.0 && view.MassBoundSafe();
  const double cutoff = threshold * (1.0 - kBoundSlackRel) - kBoundSlackAbs;
  double live = 1.0;
  uint64_t chars = 0;  // label characters of the transitions processed
  bool pruned = false;

  for (NodeId n : view.TopologicalOrder()) {
    if (n == fin) continue;  // no out-edges; its mass is scored at the end
    const double* in = rows.MassRow(n);
    const uint64_t* in_sup = rows.SupportRow(n);
    double sum_in = 0.0;
    ForEachState(in_sup, words, [&](size_t s) { sum_in += in[s]; });
    if (sum_in == 0.0) continue;  // masses are non-negative: all-zero node
    live -= sum_in;
    const int64_t lone = LoneState(in_sup, words);
    live = lone >= 0 ? StraightLineNode<kWords>(view, dfa, rows, n,
                                                static_cast<DfaState>(lone),
                                                in[lone], live, &chars)
                     : MergeNode<kWords>(view, dfa, rows, n, work, live,
                                         &chars);
    // Check only at node boundaries: mid-node, the not-yet-propagated
    // share of sum_in is missing from `live`, which would over-prune.
    if (can_prune && live < cutoff) {
      pruned = true;
      break;
    }
  }

  if (bound != nullptr) {
    bound->steps = chars * q;
    bound->pruned = pruned;
  }
  if (pruned) return 0.0;
  double p = 0.0;
  const double* fin_mass = rows.MassRow(fin);
  ForEachState(rows.SupportRow(fin), words, [&](size_t s) {
    if (dfa.IsAccept(static_cast<DfaState>(s))) p += fin_mass[s];
  });
  // Guard against accumulated floating point drift above 1.
  return p > 1.0 ? 1.0 : p;
}

}  // namespace

/// The early-terminating DFA×SFA dynamic program over the flat blob view.
/// Bit-identical to EvalSfaQuery when it does not prune: same topological
/// order, same edge/transition order, same arithmetic (the live-mass
/// bookkeeping never touches the mass arrays).
///
/// Propagation is support-sparse: every node's mass vector carries a
/// bitset of the DFA states holding mass, and each step visits only those
/// states. A state outside the support holds exactly +0.0 in the dense
/// formulation, and adding +0.0 to a non-negative sum is exact, so
/// skipping it changes no value. A node whose mass sits in one state runs
/// each transition as a straight line from that state; a node with more
/// steps a working vector and merges states that meet in ascending order,
/// the dense kernel's summation order. `steps` still counts the nominal
/// dense work (label chars × q).
///
/// Invariant behind the bound: `live` = Σ mass pending at unprocessed
/// non-final nodes + accepting mass already at the final node. Mass only
/// ever leaves that sum — dropped at dead DFA states, dropped when it
/// reaches the final node in a non-accepting state (the final node has no
/// out-edges, so such mass can never be accepted), or shrunk by node
/// probability sums below 1 (approximation leak). Provided no node's
/// outgoing probabilities sum above 1 (SfaView::MassBoundSafe), pending
/// mass can at best funnel into accepting states unshrunk, so `live`
/// bounds the final probability from above and only tightens as the DP
/// advances.
double EvalSfaViewBounded(const SfaView& view, const Dfa& dfa,
                          double threshold, EvalScratch* scratch,
                          EvalBound* bound) {
  if (bound != nullptr) {
    bound->pruned = false;
    bound->steps = 0;
    bound->steps_total =
        view.TotalLabelChars() * static_cast<uint64_t>(dfa.NumStates());
  }
  if (view.NumNodes() == 0) return 0.0;
  return dfa.NumStates() <= static_cast<int>(kSupportBits)
             ? PropagateBounded<1>(view, dfa, threshold, scratch, bound)
             : PropagateBounded<0>(view, dfa, threshold, scratch, bound);
}

double EvalSfaQuery(const Sfa& sfa, const Dfa& dfa) {
  if (sfa.NumNodes() == 0) return 0.0;
  const int q = dfa.NumStates();
  // mass[n][s]: probability mass of prefixes reaching SFA node n with the
  // DFA in state s. A kContains DFA has absorbing accept states, so mass in
  // accepting states at the final node is exactly Pr[q].
  std::vector<std::vector<double>> mass(
      sfa.NumNodes(), std::vector<double>(static_cast<size_t>(q), 0.0));
  mass[sfa.start()][dfa.start()] = 1.0;
  std::vector<double> scratch(static_cast<size_t>(q), 0.0);
  std::vector<double> next(static_cast<size_t>(q), 0.0);
  std::vector<double> scaled(static_cast<size_t>(q), 0.0);
  for (NodeId n : sfa.TopologicalOrder()) {
    const auto& in = mass[n];
    bool live = false;
    for (double m : in) {
      if (m != 0.0) {
        live = true;
        break;
      }
    }
    if (!live) continue;
    for (EdgeId eid : sfa.OutEdges(n)) {
      const Edge& e = sfa.edge(eid);
      for (const Transition& t : e.transitions) {
        for (int s = 0; s < q; ++s) scaled[s] = in[s] * t.prob;
        StepLabel(dfa, t.label, scaled, &mass[e.to], &scratch, &next);
      }
    }
    if (n != sfa.final()) {
      mass[n].clear();
      mass[n].shrink_to_fit();
    }
  }
  double p = 0.0;
  for (int s = 0; s < q; ++s) {
    if (dfa.IsAccept(s)) p += mass[sfa.final()][s];
  }
  // Guard against accumulated floating point drift above 1.
  return p > 1.0 ? 1.0 : p;
}

Result<double> EvalSerializedSfaBounded(const std::string& blob,
                                        const Dfa& dfa, double threshold,
                                        EvalScratch* scratch,
                                        EvalBound* bound) {
  SfaView view;
  STACCATO_RETURN_NOT_OK(view.Decode(blob, &scratch->arena));
  return EvalSfaViewBounded(view, dfa, threshold, scratch, bound);
}

double EvalStringsQuery(const std::vector<ScoredString>& strings,
                        const Dfa& dfa) {
  double p = 0.0;
  for (const ScoredString& s : strings) {
    if (dfa.Matches(s.str)) p += s.prob;
  }
  return p > 1.0 ? 1.0 : p;
}

double EvalSfaQueryMatrix(const Sfa& sfa, const Dfa& dfa) {
  if (sfa.NumNodes() == 0) return 0.0;
  const size_t q = static_cast<size_t>(dfa.NumStates());
  // M[n][i*q + j]: mass arriving at SFA node n having moved the DFA from
  // state i (at the SFA start) to state j.
  std::vector<std::vector<double>> node_mat(sfa.NumNodes());
  node_mat[sfa.start()].assign(q * q, 0.0);
  for (size_t i = 0; i < q; ++i) node_mat[sfa.start()][i * q + i] = 1.0;

  std::vector<double> edge_mat(q * q), tmp(q * q);
  for (NodeId n : sfa.TopologicalOrder()) {
    if (node_mat[n].empty()) continue;
    for (EdgeId eid : sfa.OutEdges(n)) {
      const Edge& e = sfa.edge(eid);
      // Edge matrix: Σ over transitions of prob × Π over label chars of the
      // (deterministic) per-character DFA step matrix.
      std::fill(edge_mat.begin(), edge_mat.end(), 0.0);
      for (const Transition& t : e.transitions) {
        std::fill(tmp.begin(), tmp.end(), 0.0);
        for (size_t i = 0; i < q; ++i) tmp[i * q + i] = t.prob;
        for (char c : t.label) {
          // Right-multiply tmp by the char's step matrix: column j of the
          // product collects columns whose state steps to j.
          std::vector<double> next(q * q, 0.0);
          for (size_t j = 0; j < q; ++j) {
            DfaState d = dfa.Next(static_cast<DfaState>(j), c);
            if (d == kDfaDead) continue;
            for (size_t i = 0; i < q; ++i) {
              next[i * q + static_cast<size_t>(d)] += tmp[i * q + j];
            }
          }
          tmp.swap(next);
        }
        for (size_t i = 0; i < q * q; ++i) edge_mat[i] += tmp[i];
      }
      // node_mat[to] += node_mat[n] × edge_mat  — the q³ step of Table 1.
      auto& dst = node_mat[e.to];
      if (dst.empty()) dst.assign(q * q, 0.0);
      const auto& src = node_mat[n];
      for (size_t i = 0; i < q; ++i) {
        for (size_t l = 0; l < q; ++l) {
          double v = src[i * q + l];
          if (v == 0.0) continue;
          for (size_t j = 0; j < q; ++j) {
            dst[i * q + j] += v * edge_mat[l * q + j];
          }
        }
      }
    }
    if (n != sfa.final()) {
      node_mat[n].clear();
      node_mat[n].shrink_to_fit();
    }
  }
  const auto& fin = node_mat[sfa.final()];
  if (fin.empty()) return 0.0;
  double p = 0.0;
  size_t s0 = static_cast<size_t>(dfa.start());
  for (size_t j = 0; j < q; ++j) {
    if (dfa.IsAccept(static_cast<DfaState>(j))) p += fin[s0 * q + j];
  }
  return p > 1.0 ? 1.0 : p;
}

uint64_t CountEvalWork(const Sfa& sfa, const Dfa& dfa) {
  uint64_t chars = 0;
  for (const Edge& e : sfa.edges()) {
    for (const Transition& t : e.transitions) chars += t.label.size();
  }
  return chars * static_cast<uint64_t>(dfa.NumStates());
}

Result<double> EvalSerializedSfa(const std::string& blob, const Dfa& dfa) {
  STACCATO_ASSIGN_OR_RETURN(Sfa sfa, Sfa::Deserialize(blob));
  return EvalSfaQuery(sfa, dfa);
}

}  // namespace staccato
