// Probabilistic query evaluation: Pr[q] = Σ_x q(x)·Pr(x), the probability
// that a string drawn from the SFA's distribution satisfies the query DFA.
//
// The evaluator is the matrix-multiplication-style dynamic program of
// Ré et al. [45] specialized to DAG SFAs: propagate, in topological order,
// a per-node distribution over DFA states. The reference kernel does
// (label chars × q) work for q DFA states; EvalSfaQueryMatrix, the literal
// matrix form Table 1 prices, does q³ per node. The bounded kernel visits
// only the DFA states that hold mass, which on OCR data is one or two of q.
//
// The same evaluator serves the FullSFA baseline and the Staccato chunked
// representation, because a chunk graph is itself a generalized SFA.
//
// Two flavours exist:
//
//  * EvalSfaQuery / EvalSerializedSfa — the reference kernel over the
//    deserialized Sfa object graph, kept as the test oracle and for the
//    offline tuning and example code.
//  * The *bounded* kernels (EvalSfaViewBounded, EvalSerializedSfaBounded)
//    — the executor's hot path. They additionally track an exact upper
//    bound on the final probability, `accepted_so_far + live_mass`: mass
//    only ever leaks to dead DFA states (and to non-accepting states at the
//    final node), so the bound is monotone non-increasing, and the DP can
//    abort the instant it falls below a caller-supplied threshold (the
//    running k-th best answer). A pruned candidate provably cannot enter
//    the top-k, which is what keeps ranked answers bit-identical for any
//    thread count and any candidate visit order. The serialized-blob
//    bounded kernel decodes through SfaView into a caller-owned EvalScratch
//    arena, so a warm worker evaluates candidates with zero heap
//    allocations.
#pragma once

#include <string>
#include <vector>

#include "automata/dfa.h"
#include "inference/kbest.h"
#include "sfa/sfa.h"
#include "util/result.h"

namespace staccato {

/// Probability that a string emitted by `sfa` is accepted by `dfa`.
/// With a kContains DFA this is Pr[document LIKE '%pat%'].
double EvalSfaQuery(const Sfa& sfa, const Dfa& dfa);

/// Query over an explicit string representation (the MAP / k-MAP storage):
/// sums the probability of stored strings accepted by the DFA (each stored
/// string is a disjoint probabilistic event).
double EvalStringsQuery(const std::vector<ScoredString>& strings, const Dfa& dfa);

/// Cheap structural statistic used by cost accounting in the benches:
/// number of (dfa-state × transition-character) steps EvalSfaQuery performs.
uint64_t CountEvalWork(const Sfa& sfa, const Dfa& dfa);

/// Reference evaluation of one stored SFA: deserializes the blob into an
/// Sfa graph and runs EvalSfaQuery. The executor does not call this; its
/// per-candidate unit is EvalSerializedSfaBounded, which returns the same
/// value bit for bit whenever it does not prune.
Result<double> EvalSerializedSfa(const std::string& blob, const Dfa& dfa);

/// \brief How one bounded evaluation ended, for the executor's pruning
/// stats. `steps` counts (label-char × dfa-state) units, the same currency
/// as CountEvalWork, so steps_total - steps is the work an abort skipped.
/// The unit is nominal: the sparse kernel touches only the states holding
/// mass, but a step is still priced at q per label char.
struct EvalBound {
  bool pruned = false;        ///< aborted: upper bound fell below threshold
  /// Nominal dense work (label chars × q) of the transitions processed;
  /// this is what ExecBudget::max_dp_steps caps.
  uint64_t steps = 0;
  uint64_t steps_total = 0;   ///< steps a full evaluation would count
};

/// \brief Reusable per-worker buffers for the bounded kernels: the SfaView
/// decode arena plus the flattened DP state. Every buffer grows to the
/// largest candidate seen and is then reused — a warm scratch makes
/// EvalSerializedSfaBounded allocation-free. One scratch serves one worker;
/// it is not synchronized.
struct EvalScratch {
  SfaViewArena arena;
  /// (num_nodes + 2) × q, node-major: row n is node n's mass over the DFA
  /// states, and the last two rows are one transition's working vectors.
  std::vector<double> mass;
  /// num_nodes × ⌈q/64⌉: bit s of row n is set once mass[n*q+s] is
  /// written. For q > 64 two more rows follow, the working vectors'
  /// supports; for q <= 64 those are locals of the kernel.
  std::vector<uint64_t> support;
};

/// The bounded kernel over an already-decoded view: EvalSfaQuery with early
/// termination. Aborts — returning 0 and setting `bound->pruned` — as soon
/// as the exact upper bound accepted + live_mass drops below `threshold`.
/// threshold <= 0 never prunes, and the result is then bit-identical to
/// EvalSfaQuery on the blob's deserialized Sfa, which is the Sfa the blob
/// was serialized from: the view visits nodes in the stored
/// TopologicalOrder() and edges and transitions in stored order, and the
/// bound bookkeeping never touches the mass arithmetic. Pruning engages
/// only when the SFA is mass-bound safe (no node's outgoing probabilities
/// sum above 1 — true of every engine-built SFA), because the bound is
/// only an upper bound under that invariant; otherwise the call silently
/// degrades to a full evaluation.
double EvalSfaViewBounded(const SfaView& view, const Dfa& dfa,
                          double threshold, EvalScratch* scratch,
                          EvalBound* bound = nullptr);

/// The executor's zero-allocation per-candidate unit: decodes `blob`
/// through SfaView into `scratch` and runs the bounded kernel. With a warm
/// scratch the whole call performs no heap allocation. Returns the same
/// value EvalSerializedSfa would (bit-identical) unless it prunes.
Result<double> EvalSerializedSfaBounded(const std::string& blob,
                                        const Dfa& dfa, double threshold,
                                        EvalScratch* scratch,
                                        EvalBound* bound = nullptr);

/// The literal matrix-multiplication algorithm of [45] as the paper costs
/// it in Table 1 (q³ work per node): each node accumulates a q×q matrix of
/// DFA-state-to-DFA-state mass transfer from the start node. Numerically
/// identical to EvalSfaQuery, which propagates a q-vector instead and is
/// the optimized variant this library uses by default; kept for paper
/// fidelity and exercised by the ablation micro-benchmarks.
double EvalSfaQueryMatrix(const Sfa& sfa, const Dfa& dfa);

}  // namespace staccato
