#include "inference/query_eval.h"

#include <algorithm>
#include <cstdint>
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
// Bit s of a support vector is set once slot s of its mass vector has been
// written; a clear bit stands for exactly +0.0, whatever the slot holds.

constexpr size_t kSupportBits = 64;

inline size_t LowestBit(uint64_t bits) {
  return static_cast<size_t>(__builtin_ctzll(bits));
}

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
// vector empty — ready to be the next step's target with no separate
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

// mass[s] += v on a support-tracked vector. The first arrival stores v,
// which is exactly the dense kernel's 0.0 + v for a non-negative v.
inline void AddMass(double* mass, uint64_t* sup, size_t s, double v) {
  uint64_t& word = sup[s / kSupportBits];
  const uint64_t bit = uint64_t{1} << (s % kSupportBits);
  if ((word & bit) != 0) {
    mass[s] += v;
  } else {
    mass[s] = v;
    word |= bit;
  }
}

}  // namespace

/// The early-terminating DFA×SFA dynamic program over the flat blob view.
/// Bit-identical to EvalSfaQuery when it does not prune: same topological
/// order, same edge/transition order, same arithmetic (the live-mass
/// bookkeeping never touches the mass arrays).
///
/// Propagation is support-sparse: every node's mass vector and the two
/// working vectors carry a bitset of the DFA states holding mass, and each
/// step visits only those states, in ascending order. A state outside the
/// support holds exactly +0.0 in the dense formulation, and adding +0.0 to
/// a non-negative sum is exact, so skipping it changes no value; ascending
/// order keeps the summation order wherever several states merge into one.
/// `steps` still counts the nominal dense work (label chars × q).
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
  const size_t q = static_cast<size_t>(dfa.NumStates());
  if (bound != nullptr) {
    bound->pruned = false;
    bound->steps = 0;
    bound->steps_total = view.TotalLabelChars() * q;
  }
  if (view.NumNodes() == 0) return 0.0;

  // A mass slot is read only after its support bit is set, so the mass
  // arena only grows; the support words are what a new candidate clears.
  const size_t words = (q + kSupportBits - 1) / kSupportBits;
  if (scratch->mass.size() < view.NumNodes() * q) {
    scratch->mass.resize(view.NumNodes() * q);
  }
  scratch->support.assign(view.NumNodes() * words, 0);
  scratch->cur.resize(q);
  scratch->next.resize(q);
  scratch->cur_support.assign(words, 0);
  scratch->next_support.assign(words, 0);
  double* const mass = scratch->mass.data();
  uint64_t* const support = scratch->support.data();
  double* cur = scratch->cur.data();
  double* next = scratch->next.data();
  uint64_t* cur_sup = scratch->cur_support.data();
  uint64_t* next_sup = scratch->next_support.data();

  const NodeId fin = view.final();
  const size_t start = static_cast<size_t>(view.start());
  AddMass(mass + start * q, support + start * words,
          static_cast<size_t>(dfa.start()), 1.0);
  const bool can_prune = threshold > 0.0 && view.MassBoundSafe();
  const double cutoff = threshold * (1.0 - kBoundSlackRel) - kBoundSlackAbs;
  double live = 1.0;
  uint64_t steps = 0;
  bool pruned = false;

  for (NodeId n : view.TopologicalOrder()) {
    if (n == fin) continue;  // no out-edges; its mass is scored at the end
    const double* in = mass + static_cast<size_t>(n) * q;
    const uint64_t* in_sup = support + static_cast<size_t>(n) * words;
    double sum_in = 0.0;
    ForEachState(in_sup, words, [&](size_t s) { sum_in += in[s]; });
    if (sum_in == 0.0) continue;  // masses are non-negative: all-zero node
    live -= sum_in;
    for (const EdgeId* it = view.out_begin(n); it != view.out_end(n); ++it) {
      const ViewEdge& e = view.edge(*it);
      double* out = mass + static_cast<size_t>(e.to) * q;
      uint64_t* out_sup = support + static_cast<size_t>(e.to) * words;
      const uint32_t tr_end = e.first_transition + e.num_transitions;
      for (uint32_t tr = e.first_transition; tr < tr_end; ++tr) {
        const double prob = view.prob(tr);
        const std::string_view label = view.label(tr);
        // cur = in × prob; the support is copied word by word in the same
        // pass, which measured cheaper than a separate copy of the words.
        for (size_t w = 0; w < words; ++w) {
          uint64_t bits = in_sup[w];
          cur_sup[w] = bits;
          for (; bits != 0; bits &= bits - 1) {
            const size_t s = w * kSupportBits + LowestBit(bits);
            cur[s] = in[s] * prob;
          }
        }
        for (char c : label) {
          DrainSupport(cur_sup, words, [&](size_t s) {
            DfaState t = dfa.Next(static_cast<DfaState>(s), c);
            if (t == kDfaDead) return;  // rejected mass is dropped
            AddMass(next, next_sup, static_cast<size_t>(t), cur[s]);
          });
          std::swap(cur, next);
          std::swap(cur_sup, next_sup);
        }
        steps += static_cast<uint64_t>(label.size()) * q;
        double arrived = 0.0;
        if (e.to == fin) {
          // Only accepting arrivals stay alive: the final node has no
          // out-edges, so non-accepting mass here is already dead.
          DrainSupport(cur_sup, words, [&](size_t s) {
            AddMass(out, out_sup, s, cur[s]);
            if (dfa.IsAccept(static_cast<DfaState>(s))) arrived += cur[s];
          });
        } else {
          DrainSupport(cur_sup, words, [&](size_t s) {
            AddMass(out, out_sup, s, cur[s]);
            arrived += cur[s];
          });
        }
        live += arrived;
      }
    }
    // Check only at node boundaries: mid-node, the not-yet-propagated
    // share of sum_in is missing from `live`, which would over-prune.
    if (can_prune && live < cutoff) {
      pruned = true;
      break;
    }
  }

  if (bound != nullptr) {
    bound->steps = steps;
    bound->pruned = pruned;
  }
  if (pruned) return 0.0;
  double p = 0.0;
  const double* fin_mass = mass + static_cast<size_t>(fin) * q;
  ForEachState(support + static_cast<size_t>(fin) * words, words,
               [&](size_t s) {
                 if (dfa.IsAccept(static_cast<DfaState>(s))) p += fin_mass[s];
               });
  // Guard against accumulated floating point drift above 1.
  return p > 1.0 ? 1.0 : p;
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
