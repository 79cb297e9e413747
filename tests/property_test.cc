// Parameterized property tests: invariants that must hold for every
// (seed, m, k) combination, swept with TEST_P / INSTANTIATE_TEST_SUITE_P.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "inference/kbest.h"
#include "inference/query_eval.h"
#include "ocr/corpus.h"
#include "ocr/generator.h"
#include "staccato/analysis.h"
#include "staccato/chunking.h"
#include "util/random.h"

namespace staccato {
namespace {

struct ApproxCase {
  uint64_t seed;
  size_t m;
  size_t k;
};

void PrintTo(const ApproxCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " m=" << c.m << " k=" << c.k;
}

class ApproximationProperties : public ::testing::TestWithParam<ApproxCase> {
 protected:
  Result<Sfa> MakeSfa() const {
    Rng rng(GetParam().seed);
    OcrNoiseModel model;
    model.alternatives = 3;
    model.p_branch = 0.3;
    return OcrLineToSfa("Law 89 act", model, &rng);
  }
};

TEST_P(ApproximationProperties, EmitsSubsetWithOriginalProbabilities) {
  auto sfa = MakeSfa();
  ASSERT_TRUE(sfa.ok());
  ApproxStats stats;
  auto approx = ApproximateSfa(*sfa, {GetParam().m, GetParam().k, true}, &stats);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();

  auto orig = sfa->EnumerateStrings(1 << 22);
  auto kept = approx->EnumerateStrings(1 << 22);
  ASSERT_TRUE(orig.ok() && kept.ok());
  std::map<std::string, double> mu;
  for (auto& [s, p] : *orig) mu[s] += p;
  double mass = 0;
  for (auto& [s, p] : *kept) {
    auto it = mu.find(s);
    ASSERT_NE(it, mu.end()) << "invented string: " << s;
    EXPECT_NEAR(it->second, p, 1e-9);
    mass += p;
  }
  EXPECT_LE(mass, 1.0 + 1e-9);
  EXPECT_NEAR(mass, stats.retained_mass, 1e-9);
}

TEST_P(ApproximationProperties, RespectsEdgeAndPathBudgets) {
  auto sfa = MakeSfa();
  ASSERT_TRUE(sfa.ok());
  auto approx = ApproximateSfa(*sfa, {GetParam().m, GetParam().k, true});
  ASSERT_TRUE(approx.ok());
  EXPECT_LE(approx->NumEdges(), std::max<size_t>(GetParam().m, 1));
  for (const Edge& e : approx->edges()) {
    EXPECT_LE(e.transitions.size(), GetParam().k);
  }
  EXPECT_TRUE(approx->Validate().ok());
}

TEST_P(ApproximationProperties, PreservesUniquePaths) {
  auto sfa = MakeSfa();
  ASSERT_TRUE(sfa.ok());
  auto approx = ApproximateSfa(*sfa, {GetParam().m, GetParam().k, true});
  ASSERT_TRUE(approx.ok());
  EXPECT_TRUE(approx->CheckUniquePaths(1 << 22).ok());
}

TEST_P(ApproximationProperties, QueryProbabilityIsLowerBound) {
  auto sfa = MakeSfa();
  ASSERT_TRUE(sfa.ok());
  auto approx = ApproximateSfa(*sfa, {GetParam().m, GetParam().k, true});
  ASSERT_TRUE(approx.ok());
  for (const char* pat : {"Law", "8", "\\d\\d", "a(\\x)*t"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok());
    EXPECT_LE(EvalSfaQuery(*approx, *dfa), EvalSfaQuery(*sfa, *dfa) + 1e-9)
        << pat;
  }
}

TEST_P(ApproximationProperties, SerializationRoundTrips) {
  auto sfa = MakeSfa();
  ASSERT_TRUE(sfa.ok());
  auto approx = ApproximateSfa(*sfa, {GetParam().m, GetParam().k, true});
  ASSERT_TRUE(approx.ok());
  auto back = Sfa::Deserialize(approx->Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumEdges(), approx->NumEdges());
  EXPECT_NEAR(back->TotalMass(), approx->TotalMass(), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproximationProperties,
    ::testing::Values(ApproxCase{1, 1, 1}, ApproxCase{1, 1, 4},
                      ApproxCase{1, 3, 2}, ApproxCase{2, 5, 1},
                      ApproxCase{2, 8, 3}, ApproxCase{3, 2, 8},
                      ApproxCase{3, 100, 2}, ApproxCase{4, 4, 4},
                      ApproxCase{5, 6, 2}, ApproxCase{6, 3, 3}));

// ---------------------------------------------------------------------------
// Query evaluator agreement across implementations, swept over seeds.
// ---------------------------------------------------------------------------
class EvaluatorAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorAgreement, VectorMatrixAndBruteForceAgree) {
  Rng rng(GetParam());
  OcrNoiseModel model;
  model.alternatives = 3;
  model.p_branch = 0.25;
  auto sfa = OcrLineToSfa("U.S.C. 21", model, &rng);
  ASSERT_TRUE(sfa.ok());
  auto strings = sfa->EnumerateStrings(1 << 22);
  ASSERT_TRUE(strings.ok());
  for (const char* pat :
       {"U.S", "\\d", "C. 2\\d", "(U|V)", "S(\\x)*1", "absent"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok());
    double brute = 0;
    for (const auto& [s, p] : *strings) {
      if (dfa->Matches(s)) brute += p;
    }
    EXPECT_NEAR(EvalSfaQuery(*sfa, *dfa), brute, 1e-9) << pat;
    EXPECT_NEAR(EvalSfaQueryMatrix(*sfa, *dfa), brute, 1e-9) << pat;
  }
}

TEST_P(EvaluatorAgreement, BoundedKernelsBitIdenticalAndPruneSoundly) {
  Rng rng(GetParam() * 17 + 3);
  OcrNoiseModel model;
  model.alternatives = 3;
  model.p_branch = 0.25;
  auto sfa = OcrLineToSfa("Public Law 89", model, &rng);
  ASSERT_TRUE(sfa.ok());
  // Both the stochastic OCR transducer and a lossy approximation (mass
  // leaks at every chunk, which is what makes pruning bite in practice).
  auto approx = ApproximateSfa(*sfa, {4, 2, true});
  ASSERT_TRUE(approx.ok());
  EvalScratch scratch;  // deliberately shared across every case below
  for (const Sfa* s : {&*sfa, &*approx}) {
    const std::string blob = s->Serialize();
    auto back = Sfa::Deserialize(blob);
    ASSERT_TRUE(back.ok());
    for (const char* pat : {"Law", "8", "\\d\\d", "Pub", "absent"}) {
      auto dfa = Dfa::Compile(pat, MatchMode::kContains);
      ASSERT_TRUE(dfa.ok());
      const double reference = EvalSfaQuery(*s, *dfa);

      // The bounded view kernel over the stored blob at threshold 0 is
      // the reference, to the bit.
      EvalBound bound;
      auto viewed = EvalSerializedSfaBounded(blob, *dfa, 0.0, &scratch,
                                             &bound);
      ASSERT_TRUE(viewed.ok());
      EXPECT_EQ(*viewed, reference) << pat;
      EXPECT_FALSE(bound.pruned);

      // Pruning soundness: for any threshold, either the DP completes with
      // the exact reference value, or it aborts — and then the true
      // probability is provably below the threshold (so a pruned candidate
      // could never have entered a top-k whose cutoff is the threshold).
      for (double threshold : {0.05, 0.3, 0.7, 1.1}) {
        auto p = EvalSerializedSfaBounded(blob, *dfa, threshold, &scratch,
                                          &bound);
        ASSERT_TRUE(p.ok());
        if (bound.pruned) {
          EXPECT_LT(reference, threshold) << pat << " thr=" << threshold;
          EXPECT_LE(bound.steps, bound.steps_total);
        } else {
          EXPECT_EQ(*p, reference) << pat << " thr=" << threshold;
        }
      }
    }
  }
}

TEST_P(EvaluatorAgreement, TableSixQueriesBitIdenticalOnOcrCorpora) {
  // The benchmark's query shapes: every Table 6 pattern (q = 13-29 DFA
  // states, where support-sparse and dense propagation differ most)
  // against every FullSFA and Staccato blob of small CA and LT corpora.
  // A 37-character literal (75 states) adds a DFA past the one-word
  // support, so the kernel's run-time width runs over the corpora too.
  EvalScratch scratch;  // one worker's scratch across every blob and DFA
  for (DatasetKind kind :
       {DatasetKind::kCongressActs, DatasetKind::kLiterature}) {
    CorpusSpec spec;
    spec.kind = kind;
    spec.num_pages = 2;
    spec.seed = GetParam() + 1;
    auto data = GenerateOcrDataset(spec, OcrNoiseModel());
    ASSERT_TRUE(data.ok());
    std::vector<Sfa> sfas;
    for (const Sfa& sfa : data->sfas) {
      auto approx = ApproximateSfa(sfa, StaccatoParams());
      ASSERT_TRUE(approx.ok());
      sfas.push_back(sfa);
      sfas.push_back(std::move(*approx));
    }
    std::vector<std::string> blobs;
    for (const Sfa& sfa : sfas) blobs.push_back(sfa.Serialize());
    std::vector<std::string> patterns = DatasetQueries(kind);
    patterns.push_back("Attorney General of the United States");
    for (const std::string& pat : patterns) {
      auto dfa = Dfa::Compile(pat, MatchMode::kContains);
      ASSERT_TRUE(dfa.ok()) << pat;
      for (size_t i = 0; i < sfas.size(); ++i) {
        const double reference = EvalSfaQuery(sfas[i], *dfa);
        EvalBound bound;
        auto p = EvalSerializedSfaBounded(blobs[i], *dfa, 0.0, &scratch,
                                          &bound);
        ASSERT_TRUE(p.ok());
        EXPECT_EQ(*p, reference) << pat << " blob " << i;
        EXPECT_FALSE(bound.pruned);
        // Steps stay priced at the dense unit, label chars × q.
        EXPECT_EQ(bound.steps, bound.steps_total) << pat << " blob " << i;
        EXPECT_EQ(bound.steps_total, CountEvalWork(sfas[i], *dfa));
        for (double threshold : {0.01, 0.2, 0.6}) {
          p = EvalSerializedSfaBounded(blobs[i], *dfa, threshold, &scratch,
                                       &bound);
          ASSERT_TRUE(p.ok());
          if (bound.pruned) {
            EXPECT_LT(reference, threshold) << pat << " thr=" << threshold;
          } else {
            EXPECT_EQ(*p, reference) << pat << " thr=" << threshold;
          }
        }
      }
    }
  }
}

TEST_P(EvaluatorAgreement, ViewDecodeMatchesDeserializeOnStoredBlobs) {
  Rng rng(GetParam() * 101 + 13);
  OcrNoiseModel model;
  model.alternatives = 4;
  model.p_branch = 0.3;
  auto sfa = OcrLineToSfa("insurance claim", model, &rng);
  ASSERT_TRUE(sfa.ok());
  auto approx = ApproximateSfa(*sfa, {6, 3, true});
  ASSERT_TRUE(approx.ok());
  SfaViewArena arena;  // reused across blobs, like an executor worker
  for (const Sfa* s : {&*sfa, &*approx}) {
    const std::string blob = s->Serialize();
    auto back = Sfa::Deserialize(blob);
    ASSERT_TRUE(back.ok());
    SfaView view;
    ASSERT_TRUE(view.Decode(blob, &arena).ok());
    ASSERT_EQ(view.NumNodes(), back->NumNodes());
    ASSERT_EQ(view.NumEdges(), back->NumEdges());
    EXPECT_EQ(view.start(), back->start());
    EXPECT_EQ(view.final(), back->final());
    EXPECT_EQ(view.TopologicalOrder(), back->TopologicalOrder());
    uint64_t chars = 0;
    for (NodeId n = 0; n < view.NumNodes(); ++n) {
      const std::vector<EdgeId>& out = back->OutEdges(n);
      ASSERT_EQ(static_cast<size_t>(view.out_end(n) - view.out_begin(n)),
                out.size());
      for (size_t k = 0; k < out.size(); ++k) {
        const ViewEdge& ve = view.edge(view.out_begin(n)[k]);
        const Edge& se = back->edge(out[k]);
        ASSERT_EQ(ve.to, se.to);
        ASSERT_EQ(ve.num_transitions, se.transitions.size());
        for (uint32_t t = 0; t < ve.num_transitions; ++t) {
          const ViewTransition& vt = view.transition(ve.first_transition + t);
          EXPECT_EQ(std::string(vt.label), se.transitions[t].label);
          EXPECT_EQ(vt.prob, se.transitions[t].prob);
          chars += vt.label.size();
        }
      }
    }
    EXPECT_EQ(view.TotalLabelChars(), chars);
    EXPECT_TRUE(view.MassBoundSafe());
  }
}

TEST_P(EvaluatorAgreement, KBestAgreesWithEnumeration) {
  Rng rng(GetParam() * 31 + 7);
  OcrNoiseModel model;
  model.alternatives = 4;
  auto sfa = OcrLineToSfa("lineage", model, &rng);
  ASSERT_TRUE(sfa.ok());
  auto slow = KBestStringsByEnumeration(*sfa, 20, 1 << 22);
  ASSERT_TRUE(slow.ok());
  auto fast = KBestStrings(*sfa, 20);
  ASSERT_EQ(fast.size(), slow->size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i].prob, (*slow)[i].prob, 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorAgreement,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace staccato
