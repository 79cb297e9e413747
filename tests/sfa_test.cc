#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "automata/dfa.h"
#include "inference/query_eval.h"
#include "ocr/corpus.h"
#include "sfa/sfa.h"
#include "staccato/chunking.h"
#include "util/random.h"
#include "util/serde.h"

namespace staccato {
namespace {

// The Figure-1 SFA of the paper: OCR of the word "Ford".
Sfa MakeFigure1Sfa() {
  SfaBuilder b;
  NodeId n0 = b.AddNode(), n1 = b.AddNode(), n2 = b.AddNode(), n3 = b.AddNode(),
         n4 = b.AddNode(), n5 = b.AddNode();
  EXPECT_TRUE(b.AddTransition(n0, n1, "F", 0.8).ok());
  EXPECT_TRUE(b.AddTransition(n0, n1, "T", 0.2).ok());
  EXPECT_TRUE(b.AddTransition(n1, n2, "0", 0.6).ok());
  EXPECT_TRUE(b.AddTransition(n1, n2, "o", 0.4).ok());
  EXPECT_TRUE(b.AddTransition(n2, n3, " ", 0.6).ok());
  EXPECT_TRUE(b.AddTransition(n2, n4, "r", 0.4).ok());
  EXPECT_TRUE(b.AddTransition(n3, n4, "r", 0.8).ok());
  EXPECT_TRUE(b.AddTransition(n3, n4, "m", 0.2).ok());
  EXPECT_TRUE(b.AddTransition(n4, n5, "d", 0.9).ok());
  EXPECT_TRUE(b.AddTransition(n4, n5, "3", 0.1).ok());
  b.SetStart(n0);
  b.SetFinal(n5);
  auto sfa = b.Build(/*require_stochastic=*/true);
  EXPECT_TRUE(sfa.ok()) << sfa.status().ToString();
  return *sfa;
}

// A 200-node chain built so every varint of its blob is multi-byte
// somewhere: node ids reach 199, the first edge carries 130 transitions
// and one label is 200 bytes long. Ids run against the chain (199 → … →
// 0), so the visit order is stored rather than implied.
Sfa MakeWideSfa() {
  constexpr size_t kNodes = 200;
  SfaBuilder b;
  b.AddNodes(kNodes);
  for (NodeId n = kNodes - 1; n > 0; --n) {
    if (n == kNodes - 1) {
      for (int i = 0; i < 130; ++i) {
        EXPECT_TRUE(
            b.AddTransition(n, n - 1, "t" + std::to_string(i), 1.0 / 130).ok());
      }
    } else if (n == 100) {
      EXPECT_TRUE(b.AddTransition(n, n - 1, std::string(200, 'w'), 1.0).ok());
    } else {
      EXPECT_TRUE(b.AddTransition(n, n - 1, "a", 0.75).ok());
      EXPECT_TRUE(b.AddTransition(n, n - 1, "b", 0.25).ok());
    }
  }
  b.SetStart(kNodes - 1);
  b.SetFinal(0);
  auto sfa = b.Build(/*require_stochastic=*/true);
  EXPECT_TRUE(sfa.ok()) << sfa.status().ToString();
  return *sfa;
}

bool StoresOrder(const Sfa& sfa) {
  const std::vector<NodeId>& order = sfa.TopologicalOrder();
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) return true;
  }
  return false;
}

// Every FullSFA and Staccato SFA of 2-page CA and LT corpora.
std::vector<Sfa> OcrCorpusSfas() {
  std::vector<Sfa> sfas;
  for (DatasetKind kind :
       {DatasetKind::kCongressActs, DatasetKind::kLiterature}) {
    CorpusSpec spec;
    spec.kind = kind;
    spec.num_pages = 2;
    spec.seed = 1;
    auto data = GenerateOcrDataset(spec, OcrNoiseModel());
    EXPECT_TRUE(data.ok()) << data.status().ToString();
    if (!data.ok()) return sfas;
    for (const Sfa& sfa : data->sfas) {
      auto approx = ApproximateSfa(sfa, StaccatoParams());
      EXPECT_TRUE(approx.ok()) << approx.status().ToString();
      if (!approx.ok()) return sfas;
      sfas.push_back(sfa);
      sfas.push_back(std::move(*approx));
    }
  }
  return sfas;
}

// `copy` is `sfa` exactly: the same node and edge ids, the same visit
// order, and every edge's transitions with equal labels and probabilities
// in the same order. Index postings and the StaccatoData chunk-id column
// name edges by id, so nothing less will do.
void ExpectIdentical(const Sfa& sfa, const Sfa& copy) {
  ASSERT_EQ(copy.NumNodes(), sfa.NumNodes());
  EXPECT_EQ(copy.start(), sfa.start());
  EXPECT_EQ(copy.final(), sfa.final());
  EXPECT_EQ(copy.TopologicalOrder(), sfa.TopologicalOrder());
  EXPECT_EQ(copy.TopoIndex(), sfa.TopoIndex());
  ASSERT_EQ(copy.NumEdges(), sfa.NumEdges());
  for (EdgeId id = 0; id < sfa.NumEdges(); ++id) {
    EXPECT_EQ(copy.edge(id).from, sfa.edge(id).from) << "edge " << id;
    EXPECT_EQ(copy.edge(id).to, sfa.edge(id).to) << "edge " << id;
    const std::vector<Transition>& want = sfa.edge(id).transitions;
    const std::vector<Transition>& got = copy.edge(id).transitions;
    ASSERT_EQ(got.size(), want.size()) << "edge " << id;
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].label, want[k].label) << "edge " << id << " #" << k;
      EXPECT_EQ(got[k].prob, want[k].prob) << "edge " << id << " #" << k;
    }
  }
  for (NodeId n = 0; n < sfa.NumNodes(); ++n) {
    EXPECT_EQ(copy.OutEdges(n), sfa.OutEdges(n)) << "node " << n;
    EXPECT_EQ(copy.InEdges(n), sfa.InEdges(n)) << "node " << n;
  }
}

// One edge of a hand-built blob, ids unchecked.
struct BlobEdge {
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<Transition> transitions;
};

// Writes a blob in the stored format (docs/ARCHITECTURE.md, "SFA blob
// format") field by field, so a test can write what Serialize never would.
std::string EncodeBlob(uint64_t num_nodes, uint64_t start, uint64_t final,
                       const std::vector<uint64_t>& order,
                       const std::vector<BlobEdge>& edges) {
  BinaryWriter w;
  w.PutU32(0x53464132);  // "SFA2"
  w.PutVarint(num_nodes);
  w.PutVarint(start);
  w.PutVarint(final);
  w.PutVarint(edges.size());
  w.PutVarint(order.size());
  for (uint64_t n : order) w.PutVarint(n);
  for (const BlobEdge& e : edges) {
    w.PutVarint(e.from);
    w.PutVarint(e.to);
    w.PutVarint(e.transitions.size());
  }
  for (const BlobEdge& e : edges) {
    for (const Transition& t : e.transitions) w.PutDouble(t.prob);
  }
  for (const BlobEdge& e : edges) {
    for (const Transition& t : e.transitions) w.PutVarint(t.label.size());
  }
  for (const BlobEdge& e : edges) {
    for (const Transition& t : e.transitions) {
      w.PutRaw(t.label.data(), t.label.size());
    }
  }
  return w.Release();
}

// The fields of `sfa` through EncodeBlob: what Serialize must write.
std::string EncodeBlob(const Sfa& sfa) {
  std::vector<uint64_t> order;
  if (StoresOrder(sfa)) {
    order.assign(sfa.TopologicalOrder().begin(), sfa.TopologicalOrder().end());
  }
  std::vector<BlobEdge> edges;
  for (const Edge& e : sfa.edges()) {
    edges.push_back({e.from, e.to, e.transitions});
  }
  return EncodeBlob(sfa.NumNodes(), sfa.start(), sfa.final(), order, edges);
}

// A two-node, one-edge SFA with the given ids and visit order.
std::string TwoNodeBlob(uint64_t start, uint64_t final, uint64_t from,
                        uint64_t to, const std::vector<uint64_t>& order = {}) {
  return EncodeBlob(2, start, final, order, {{from, to, {{"a", 1.0}}}});
}

// The same two-node SFA in the retired SFA1 layout: per edge, its
// transitions as (length-prefixed label, f64) pairs.
std::string Sfa1Blob() {
  BinaryWriter w;
  w.PutU32(0x53464131);  // "SFA1"
  w.PutVarint(2);
  w.PutVarint(0);
  w.PutVarint(1);
  w.PutVarint(1);
  w.PutVarint(0);
  w.PutVarint(1);
  w.PutVarint(1);
  w.PutString("a");
  w.PutDouble(1.0);
  return w.Release();
}

TEST(SfaBuilderTest, BuildsFigure1) {
  Sfa sfa = MakeFigure1Sfa();
  EXPECT_EQ(sfa.NumNodes(), 6u);
  EXPECT_EQ(sfa.NumEdges(), 6u);
  EXPECT_EQ(sfa.NumTransitions(), 10u);
  EXPECT_EQ(sfa.start(), 0u);
  EXPECT_EQ(sfa.final(), 5u);
}

TEST(SfaBuilderTest, RejectsMissingEndpoints) {
  SfaBuilder b;
  b.AddNode();
  EXPECT_FALSE(b.Build().ok());
}

TEST(SfaBuilderTest, RejectsOutOfRangeNode) {
  SfaBuilder b;
  NodeId n = b.AddNode();
  EXPECT_TRUE(b.AddTransition(n, 99, "a", 1.0).IsInvalidArgument());
}

TEST(SfaBuilderTest, RejectsEmptyLabel) {
  SfaBuilder b;
  NodeId a = b.AddNode(), c = b.AddNode();
  EXPECT_TRUE(b.AddTransition(a, c, "", 1.0).IsInvalidArgument());
}

TEST(SfaBuilderTest, RejectsCycle) {
  SfaBuilder b;
  NodeId a = b.AddNode(), c = b.AddNode();
  ASSERT_TRUE(b.AddTransition(a, c, "x", 0.5).ok());
  ASSERT_TRUE(b.AddTransition(c, a, "y", 0.5).ok());
  b.SetStart(a);
  b.SetFinal(c);
  EXPECT_FALSE(b.Build().ok());
}

TEST(SfaBuilderTest, RejectsUnreachableNode) {
  SfaBuilder b;
  NodeId a = b.AddNode(), c = b.AddNode();
  b.AddNode();  // dangling
  ASSERT_TRUE(b.AddTransition(a, c, "x", 1.0).ok());
  b.SetStart(a);
  b.SetFinal(c);
  EXPECT_FALSE(b.Build().ok());
}

TEST(SfaBuilderTest, RejectsNonStochasticWhenRequired) {
  SfaBuilder b;
  NodeId a = b.AddNode(), c = b.AddNode();
  ASSERT_TRUE(b.AddTransition(a, c, "x", 0.5).ok());
  b.SetStart(a);
  b.SetFinal(c);
  EXPECT_FALSE(b.Build(/*require_stochastic=*/true).ok());
  SfaBuilder b2;
  NodeId a2 = b2.AddNode(), c2 = b2.AddNode();
  ASSERT_TRUE(b2.AddTransition(a2, c2, "x", 0.5).ok());
  b2.SetStart(a2);
  b2.SetFinal(c2);
  EXPECT_TRUE(b2.Build(/*require_stochastic=*/false).ok());
}

TEST(SfaTest, TotalMassIsOneForStochastic) {
  Sfa sfa = MakeFigure1Sfa();
  EXPECT_NEAR(sfa.TotalMass(), 1.0, 1e-9);
}

TEST(SfaTest, TopologicalOrderStartsAndEndsCorrectly) {
  Sfa sfa = MakeFigure1Sfa();
  EXPECT_EQ(sfa.TopologicalOrder().front(), sfa.start());
  EXPECT_EQ(sfa.TopologicalOrder().back(), sfa.final());
  for (const Edge& e : sfa.edges()) {
    EXPECT_LT(sfa.TopoIndex()[e.from], sfa.TopoIndex()[e.to]);
  }
}

TEST(SfaTest, EnumerateStringsMatchesPaper) {
  Sfa sfa = MakeFigure1Sfa();
  auto strings = sfa.EnumerateStrings();
  ASSERT_TRUE(strings.ok());
  // 2*2*(1*2 + 1)*2 = 24 labeled paths.
  EXPECT_EQ(strings->size(), 24u);
  double f0_rd = 0, ford = 0;
  for (const auto& [s, p] : *strings) {
    if (s == "F0 rd") f0_rd = p;
    if (s == "Ford") ford = p;
  }
  // Figure 1: 'F0 rd' ≈ 0.21 (the MAP), 'Ford' ≈ 0.12.
  EXPECT_NEAR(f0_rd, 0.8 * 0.6 * 0.6 * 0.8 * 0.9, 1e-12);
  EXPECT_NEAR(ford, 0.8 * 0.4 * 0.4 * 0.9, 1e-12);
}

TEST(SfaTest, UniquePathsHoldsForFigure1) {
  EXPECT_TRUE(MakeFigure1Sfa().CheckUniquePaths().ok());
}

TEST(SfaTest, UniquePathViolationDetected) {
  SfaBuilder b;
  NodeId a = b.AddNode(), m = b.AddNode(), c = b.AddNode();
  ASSERT_TRUE(b.AddTransition(a, c, "xy", 0.5).ok());
  ASSERT_TRUE(b.AddTransition(a, m, "x", 0.5).ok());
  ASSERT_TRUE(b.AddTransition(m, c, "y", 1.0).ok());
  b.SetStart(a);
  b.SetFinal(c);
  auto sfa = b.Build();
  ASSERT_TRUE(sfa.ok());
  EXPECT_TRUE(sfa->CheckUniquePaths().IsInvalidArgument());
}

TEST(SfaTest, SerializeRoundTrip) {
  Sfa sfa = MakeFigure1Sfa();
  std::string blob = sfa.Serialize();
  auto back = Sfa::Deserialize(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumNodes(), sfa.NumNodes());
  EXPECT_EQ(back->NumEdges(), sfa.NumEdges());
  EXPECT_EQ(back->NumTransitions(), sfa.NumTransitions());
  EXPECT_NEAR(back->TotalMass(), 1.0, 1e-9);
  auto a = sfa.EnumerateStrings();
  auto b = back->EnumerateStrings();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  ExpectIdentical(sfa, *back);

  // Exact identity on every shape the engine stores, and on one whose
  // blob has multi-byte varints in every field.
  auto chain = MakeChainSfa(6, 4);
  ASSERT_TRUE(chain.ok());
  std::vector<Sfa> shapes = OcrCorpusSfas();
  ASSERT_FALSE(shapes.empty());
  shapes.push_back(*chain);
  shapes.push_back(MakeWideSfa());
  size_t stored_orders = 0;
  for (size_t i = 0; i < shapes.size(); ++i) {
    SCOPED_TRACE("shape " + std::to_string(i));
    auto copy = Sfa::Deserialize(shapes[i].Serialize());
    ASSERT_TRUE(copy.ok()) << copy.status().ToString();
    ExpectIdentical(shapes[i], *copy);
    if (StoresOrder(shapes[i])) ++stored_orders;
  }
  // Both encodings of the visit order are exercised.
  EXPECT_GT(stored_orders, 0u);
  EXPECT_LT(stored_orders, shapes.size());
}

TEST(SfaTest, ViewDecodesMultiByteVarints) {
  // Every kind of varint SfaView::Decode reads takes more than one byte
  // somewhere here (a 200-byte label, an edge with 130 transitions, node
  // ids >= 128); the view must still present the Sfa exactly.
  const Sfa sfa = MakeWideSfa();
  const std::string blob = sfa.Serialize();
  SfaViewArena arena;
  SfaView view;
  ASSERT_TRUE(view.Decode(blob, &arena).ok());
  ASSERT_EQ(view.NumNodes(), sfa.NumNodes());
  ASSERT_EQ(view.NumEdges(), sfa.NumEdges());
  EXPECT_EQ(view.NumTransitions(), sfa.NumTransitions());
  EXPECT_EQ(view.start(), sfa.start());
  EXPECT_EQ(view.final(), sfa.final());
  EXPECT_EQ(view.TopologicalOrder(), sfa.TopologicalOrder());
  EXPECT_TRUE(view.MassBoundSafe());
  for (EdgeId id = 0; id < sfa.NumEdges(); ++id) {
    const ViewEdge& ve = view.edge(id);
    const Edge& se = sfa.edge(id);
    EXPECT_EQ(ve.from, se.from);
    EXPECT_EQ(ve.to, se.to);
    ASSERT_EQ(ve.num_transitions, se.transitions.size());
    for (uint32_t k = 0; k < ve.num_transitions; ++k) {
      const ViewTransition t = view.transition(ve.first_transition + k);
      EXPECT_EQ(std::string(t.label), se.transitions[k].label);
      EXPECT_EQ(t.prob, se.transitions[k].prob);
    }
  }
  EvalScratch scratch;
  for (const char* pat : {"a", "t12", "ww"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok()) << pat;
    EXPECT_EQ(EvalSfaViewBounded(view, *dfa, 0.0, &scratch),
              EvalSfaQuery(sfa, *dfa))
        << pat;
  }
}

TEST(SfaTest, ViewMassBoundSafeSumsEachNode) {
  // Each edge alone sums to at most 1, but node 0's two out-edges sum to
  // 1.2: mass could grow downstream, so the live-mass bound is off.
  SfaBuilder b;
  NodeId n0 = b.AddNode(), n1 = b.AddNode(), n2 = b.AddNode();
  ASSERT_TRUE(b.AddTransition(n0, n1, "x", 0.6).ok());
  ASSERT_TRUE(b.AddTransition(n0, n2, "y", 0.6).ok());
  ASSERT_TRUE(b.AddTransition(n1, n2, "z", 1.0).ok());
  b.SetStart(n0);
  b.SetFinal(n2);
  auto amplifying = b.Build(/*require_stochastic=*/false);
  ASSERT_TRUE(amplifying.ok());
  // A sum over 1 by less than the 1e-6 tolerance still counts as safe.
  SfaBuilder b2;
  NodeId m0 = b2.AddNode(), m1 = b2.AddNode();
  ASSERT_TRUE(b2.AddTransition(m0, m1, "x", 0.5).ok());
  ASSERT_TRUE(b2.AddTransition(m0, m1, "y", 0.5000005).ok());
  b2.SetStart(m0);
  b2.SetFinal(m1);
  auto within_tolerance = b2.Build(/*require_stochastic=*/false);
  ASSERT_TRUE(within_tolerance.ok());

  SfaViewArena arena;
  SfaView view;
  ASSERT_TRUE(view.Decode(amplifying->Serialize(), &arena).ok());
  EXPECT_FALSE(view.MassBoundSafe());
  ASSERT_TRUE(view.Decode(within_tolerance->Serialize(), &arena).ok());
  EXPECT_TRUE(view.MassBoundSafe());
}

TEST(SfaTest, SerializeWritesTheDocumentedLayout) {
  // Pins the format: a change to the layout must change the docs too.
  EXPECT_EQ(MakeFigure1Sfa().Serialize(), EncodeBlob(MakeFigure1Sfa()));
  const Sfa wide = MakeWideSfa();
  ASSERT_TRUE(StoresOrder(wide));
  EXPECT_EQ(wide.Serialize(), EncodeBlob(wide));
}

TEST(SfaTest, BothReadersRejectInvalidVisitOrders) {
  SfaViewArena arena;
  SfaView view;
  const std::vector<std::pair<const char*, std::string>> cases = {
      // Acyclic, and Validate-clean, but visiting 1 before 0 would
      // evaluate edge 0→1 after its target.
      {"edge against the order", TwoNodeBlob(0, 1, 0, 1, {1, 0})},
      {"repeated node", TwoNodeBlob(0, 1, 0, 1, {0, 0})},
      {"order of the wrong size", TwoNodeBlob(0, 1, 0, 1, {0})},
      {"self loop", EncodeBlob(2, 0, 1, {}, {{0, 1, {{"a", 0.5}}},
                                             {0, 0, {{"b", 0.5}}}})},
  };
  for (const auto& [what, blob] : cases) {
    EXPECT_TRUE(Sfa::Deserialize(blob).status().IsCorruption()) << what;
    EXPECT_TRUE(view.Decode(blob, &arena).IsCorruption()) << what;
  }
}

TEST(SfaTest, DeserializeRejectsBlobsNoSfaSerializesTo) {
  // SfaBuilder keeps one edge per node pair, with its transitions in
  // descending probability; a blob that breaks either is corrupt.
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"two edges between one node pair",
       EncodeBlob(2, 0, 1, {}, {{0, 1, {{"a", 0.5}}}, {0, 1, {{"b", 0.5}}}})},
      {"transitions out of order",
       EncodeBlob(2, 0, 1, {}, {{0, 1, {{"a", 0.25}, {"b", 0.75}}}})},
      {"node off every start-to-final path",
       EncodeBlob(3, 0, 1, {}, {{0, 1, {{"a", 1.0}}}})},
  };
  for (const auto& [what, blob] : cases) {
    EXPECT_TRUE(Sfa::Deserialize(blob).status().IsCorruption()) << what;
  }
}

TEST(SfaTest, BothReadersRejectNodeIdsPastTheNodeIdRange) {
  // Each field at 2^32 + k: a cast to the 32-bit NodeId would wrap it to
  // the valid id k, so a reader must compare before it narrows.
  constexpr uint64_t kWrap = uint64_t{1} << 32;
  SfaViewArena arena;
  SfaView view;
  ASSERT_TRUE(Sfa::Deserialize(TwoNodeBlob(0, 1, 0, 1)).ok());
  ASSERT_TRUE(view.Decode(TwoNodeBlob(0, 1, 0, 1, {0, 1}), &arena).ok());
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"start", TwoNodeBlob(kWrap + 0, 1, 0, 1)},
      {"final", TwoNodeBlob(0, kWrap + 1, 0, 1)},
      {"edge from", TwoNodeBlob(0, 1, kWrap + 0, 1)},
      {"edge to", TwoNodeBlob(0, 1, 0, kWrap + 1)},
      {"visit order", TwoNodeBlob(0, 1, 0, 1, {kWrap + 0, 1})},
  };
  for (const auto& [field, blob] : cases) {
    EXPECT_TRUE(Sfa::Deserialize(blob).status().IsCorruption()) << field;
    EXPECT_TRUE(view.Decode(blob, &arena).IsCorruption()) << field;
  }
}

TEST(SfaTest, BothReadersRejectBadLabelLengths) {
  // Two label lengths whose 64-bit sum wraps to 1, the one label byte that
  // follows: a reader that checked only the sum would accept the blob and
  // slice 2^64 - 1 bytes for the first label.
  BinaryWriter wrap;
  wrap.PutU32(0x53464132);  // "SFA2"
  // N, start, final, E, order size; then edge 0 -> 1 with 2 transitions.
  for (uint64_t v : {2, 0, 1, 1, 0, 0, 1, 2}) wrap.PutVarint(v);
  wrap.PutDouble(0.5);
  wrap.PutDouble(0.5);
  wrap.PutVarint(std::numeric_limits<uint64_t>::max());
  wrap.PutVarint(2);
  wrap.PutRaw("a", 1);
  const std::vector<std::pair<const char*, std::string>> cases = {
      // The second label pads the blob to the size of two transitions.
      {"empty label",
       EncodeBlob(2, 0, 1, {}, {{0, 1, {{"", 0.5}, {"ab", 0.5}}}})},
      {"lengths whose sum wraps", wrap.Release()},
  };
  SfaViewArena arena;
  SfaView view;
  for (const auto& [what, blob] : cases) {
    EXPECT_TRUE(view.Decode(blob, &arena).IsCorruption()) << what;
    EXPECT_TRUE(Sfa::Deserialize(blob).status().IsCorruption()) << what;
  }
}

TEST(SfaTest, RetiredFormatFailsBothReadersWithReloadHint) {
  const std::string blob = Sfa1Blob();
  SfaViewArena arena;
  SfaView view;
  const Status viewed = view.Decode(blob, &arena);
  const Status deserialized = Sfa::Deserialize(blob).status();
  for (const Status* s : {&viewed, &deserialized}) {
    EXPECT_TRUE(s->IsCorruption()) << s->ToString();
    EXPECT_NE(s->message().find("SFA1"), std::string::npos) << s->ToString();
    EXPECT_NE(s->message().find("reload"), std::string::npos)
        << s->ToString();
  }
}

TEST(SfaTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Sfa::Deserialize("not a blob").ok());
  EXPECT_FALSE(Sfa::Deserialize("").ok());
  std::string blob = MakeFigure1Sfa().Serialize();
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(Sfa::Deserialize(blob).ok());
}

TEST(SfaTest, DeserializeRejectsTrailingBytes) {
  std::string blob = MakeFigure1Sfa().Serialize();
  blob += "junk";
  EXPECT_TRUE(Sfa::Deserialize(blob).status().IsCorruption());
}

TEST(SfaTest, SizeBytesAccounting) {
  Sfa sfa = MakeFigure1Sfa();
  // 10 transitions, each 1 label byte + 16 metadata bytes.
  EXPECT_EQ(sfa.SizeBytes(), 10u * 17u);
}

TEST(ChainSfaTest, ShapeAndMass) {
  auto chain = MakeChainSfa(10, 4);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->NumNodes(), 11u);
  EXPECT_EQ(chain->NumEdges(), 10u);
  EXPECT_EQ(chain->NumTransitions(), 40u);
  EXPECT_NEAR(chain->TotalMass(), 1.0, 1e-9);
  EXPECT_TRUE(chain->CheckUniquePaths(1000).IsOutOfRange())
      << "4^10 paths exceed the enumeration cap";
}

TEST(ChainSfaTest, RejectsBadParams) {
  EXPECT_FALSE(MakeChainSfa(0, 4).ok());
  EXPECT_FALSE(MakeChainSfa(4, 0).ok());
  EXPECT_FALSE(MakeChainSfa(4, 99).ok());
}

TEST(SfaTest, DeserializeFuzzNeverCrashes) {
  // Single-byte corruptions of a valid blob must either round-trip to a
  // valid SFA or fail cleanly with an error Status — never crash or hang.
  // Deserialize converts an SfaView, so a corrupt blob it accepts decodes
  // as a view too, and the two evaluators agree on it to the bit.
  std::string blob = MakeFigure1Sfa().Serialize();
  std::vector<Dfa> dfas;
  for (const char* pat : {"F", "rd", "(F|T)o"}) {
    auto dfa = Dfa::Compile(pat, MatchMode::kContains);
    ASSERT_TRUE(dfa.ok()) << pat;
    dfas.push_back(std::move(*dfa));
  }
  SfaView view;
  EvalScratch scratch;
  Rng rng(2024);
  size_t accepted = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = blob;
    size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corrupt.size()) - 1));
    corrupt[pos] = static_cast<char>(rng.UniformInt(0, 255));
    auto result = Sfa::Deserialize(corrupt);
    if (!result.ok()) continue;
    ++accepted;
    EXPECT_TRUE(result->Validate().ok());
    ASSERT_TRUE(view.Decode(corrupt, &scratch.arena).ok()) << "pos " << pos;
    for (const Dfa& dfa : dfas) {
      EXPECT_EQ(EvalSfaViewBounded(view, dfa, 0.0, &scratch),
                EvalSfaQuery(*result, dfa))
          << "pos " << pos;
    }
  }
  EXPECT_GT(accepted, 0u);
  // Random garbage of various lengths.
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<size_t>(rng.UniformInt(0, 200)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.UniformInt(0, 255));
    (void)Sfa::Deserialize(garbage);
  }
}

// Feeds SfaView::Decode corruptions of `blob` and runs the bounded kernel
// on every one it accepts: a bad blob must fail to decode or evaluate
// within bounds (the sanitizer builds watch every read), never crash.
// Returns how many corruptions decoded.
size_t FuzzViewAndKernel(const std::string& blob, const Dfa& dfa, Rng* rng) {
  SfaView view;
  EvalScratch scratch;
  size_t accepted = 0;
  auto probe = [&](std::string_view bytes) {
    if (!view.Decode(bytes, &scratch.arena).ok()) return;
    ++accepted;
    EvalBound full;
    const double p = EvalSfaViewBounded(view, dfa, 0.0, &scratch, &full);
    EXPECT_FALSE(full.pruned);
    EXPECT_GE(p, 0.0);
    // Decode accepts a node whose outgoing probabilities sum above 1 (it
    // only clears MassBoundSafe), so p is bounded only on a safe view:
    // each node's sum is at most 1 + 1e-6, and no path visits more than
    // every node.
    if (view.MassBoundSafe()) {
      EXPECT_LE(p, std::pow(1.0 + 1e-6, static_cast<double>(view.NumNodes())));
    }
    EXPECT_LE(full.steps, full.steps_total);
    // The bound bookkeeping never touches the mass arithmetic, so a run
    // that does not prune returns the threshold-0 value to the bit.
    EvalBound bound;
    const double half = EvalSfaViewBounded(view, dfa, 0.5, &scratch, &bound);
    EXPECT_LE(bound.steps, bound.steps_total);
    EXPECT_EQ(half, bound.pruned ? 0.0 : p);
  };
  const int64_t last = static_cast<int64_t>(blob.size()) - 1;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string corrupt = blob;
    corrupt[static_cast<size_t>(rng->UniformInt(0, last))] =
        static_cast<char>(rng->UniformInt(0, 255));
    probe(corrupt);
  }
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(view.Decode(std::string_view(blob.data(), len),
                             &scratch.arena)
                     .ok())
        << "truncated at " << len;
  }
  // Garbage behind a valid magic, so it reaches the parser.
  for (int trial = 0; trial < 3000; ++trial) {
    std::string garbage = blob.substr(0, 4);
    garbage.resize(4 + static_cast<size_t>(rng->UniformInt(0, 64)));
    for (size_t i = 4; i < garbage.size(); ++i) {
      garbage[i] = static_cast<char>(rng->UniformInt(0, 255));
    }
    probe(garbage);
  }
  return accepted;
}

TEST(SfaViewFuzzTest, CorruptBlobsFailOrEvaluateSafely) {
  auto dfa = Dfa::Compile("(F|T)o", MatchMode::kContains);
  ASSERT_TRUE(dfa.ok());
  Rng rng(77);
  EXPECT_GT(FuzzViewAndKernel(MakeFigure1Sfa().Serialize(), *dfa, &rng), 0u);

  // An OCR Staccato chunk graph whose visit order is stored, so the fuzz
  // reaches the order array as well as the skeleton and transitions.
  std::vector<Sfa> sfas = OcrCorpusSfas();
  const Sfa* staccato = nullptr;
  for (size_t i = 1; i < sfas.size(); i += 2) {  // odd entries: Staccato
    if (StoresOrder(sfas[i])) {
      staccato = &sfas[i];
      break;
    }
  }
  ASSERT_NE(staccato, nullptr);
  auto ocr_dfa = Dfa::Compile("(a|e)n", MatchMode::kContains);
  ASSERT_TRUE(ocr_dfa.ok());
  EXPECT_GT(FuzzViewAndKernel(staccato->Serialize(), *ocr_dfa, &rng), 0u);
}

TEST(SfaTest, TransitionsSortedByProbability) {
  Sfa sfa = MakeFigure1Sfa();
  for (const Edge& e : sfa.edges()) {
    for (size_t i = 1; i < e.transitions.size(); ++i) {
      EXPECT_GE(e.transitions[i - 1].prob, e.transitions[i].prob);
    }
  }
}

}  // namespace
}  // namespace staccato
