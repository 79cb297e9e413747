// Table 1: space costs and query processing times for a simple chain SFA.
//
// The paper's cost model (l = string length, q = DFA states, k = paths,
// m = chunks):
//             k-MAP      FullSFA              Staccato
//   Query     l*q*k      l*q*|Σ| + q^3(l-1)   l*q*k + q^3(m-1)
//   Space     l*k+16k    l*|Σ| + 16*l*|Σ|     l*k + 16*m*k
//
// This bench builds chain SFAs, measures actual bytes and evaluation work,
// and prints measured-vs-model rows so the asymptotic shape can be checked.
#include <cstdio>

#include "automata/dfa.h"
#include "eval/workbench.h"
#include "inference/kbest.h"
#include "inference/query_eval.h"
#include "sfa/sfa.h"
#include "staccato/chunking.h"
#include "util/timer.h"

using namespace staccato;

int main() {
  eval::PrintHeader("Table 1: cost model on chain SFAs (measured vs model)");
  const size_t kSigma = 32;  // alternatives per position ("|Sigma|")
  const size_t k = 10;
  auto dfa = Dfa::Compile("abc", MatchMode::kContains);
  if (!dfa.ok()) return 1;
  const size_t q = static_cast<size_t>(dfa->NumStates());

  printf("%6s %6s | %12s %12s | %12s %12s | %12s %12s\n", "l", "m",
         "kmap_bytes", "model", "full_bytes", "model", "stac_bytes", "model");
  for (size_t l : {16u, 32u, 64u, 128u}) {
    auto chain = MakeChainSfa(l, kSigma);
    if (!chain.ok()) return 1;
    // k-MAP storage: k strings of length l plus 16 bytes metadata each.
    auto top = KBestStrings(*chain, k);
    size_t kmap_bytes = 0;
    for (const auto& s : top) kmap_bytes += s.str.size() + 16;
    size_t kmap_model = l * k + 16 * k;
    size_t full_bytes = chain->SizeBytes();
    size_t full_model = l * kSigma + 16 * l * kSigma;
    size_t m = l / 4;
    auto approx = ApproximateSfa(*chain, {m, k, true});
    if (!approx.ok()) return 1;
    size_t stac_bytes = approx->SizeBytes();
    size_t stac_model = l * k + 16 * m * k;
    printf("%6zu %6zu | %12zu %12zu | %12zu %12zu | %12zu %12zu\n", l, m,
           kmap_bytes, kmap_model, full_bytes, full_model, stac_bytes,
           stac_model);
  }

  eval::PrintHeader("Table 1: query work (DFA-state x char steps) vs model");
  printf("%6s %6s | %12s %12s | %12s %12s\n", "l", "m", "full_work",
         "l*q*|S|", "stac_work", "l*q*k");
  for (size_t l : {16u, 32u, 64u, 128u}) {
    auto chain = MakeChainSfa(l, kSigma);
    size_t m = l / 4;
    auto approx = ApproximateSfa(*chain, {m, k, true});
    if (!chain.ok() || !approx.ok()) return 1;
    printf("%6zu %6zu | %12llu %12zu | %12llu %12zu\n", l, m,
           static_cast<unsigned long long>(CountEvalWork(*chain, *dfa)),
           l * q * kSigma,
           static_cast<unsigned long long>(CountEvalWork(*approx, *dfa)),
           l * q * k);
  }

  eval::PrintHeader("Table 1: wall-clock per query, interpolating m");
  printf("%8s %14s\n", "m", "time(us)");
  auto chain = MakeChainSfa(96, kSigma);
  if (!chain.ok()) return 1;
  for (size_t m : {1u, 4u, 16u, 48u, 96u}) {
    auto approx = ApproximateSfa(*chain, {m, k, true});
    if (!approx.ok()) continue;
    Timer t;
    const int reps = 200;
    double acc = 0;
    for (int i = 0; i < reps; ++i) acc += EvalSfaQuery(*approx, *dfa);
    printf("%8zu %14.2f\n", m, t.ElapsedSeconds() / reps * 1e6);
    (void)acc;
  }
  printf("\nQuery time interpolates roughly linearly in m between the k-MAP\n"
         "(m=1) and FullSFA (m=l) extremes, as Table 1 predicts.\n");

  // Calibration: the measured per-unit costs the planner's cost constants
  // were derived from (see the derivation comment in src/rdbms/plan.cc). ns/DP-step prices Eval work; ns/blob-byte prices
  // deserialization, the CPU side of the Fetch stage.
  eval::PrintHeader("Calibration: measured per-unit costs for the cost model");
  {
    auto big = MakeChainSfa(128, kSigma);
    if (!big.ok()) return 1;
    const uint64_t steps = CountEvalWork(*big, *dfa);
    const std::string blob = big->Serialize();
    const int reps = 500;
    Timer te;
    double acc = 0;
    for (int i = 0; i < reps; ++i) acc += EvalSfaQuery(*big, *dfa);
    const double ns_per_step = te.ElapsedSeconds() / reps / steps * 1e9;
    Timer td;
    for (int i = 0; i < reps; ++i) {
      auto back = Sfa::Deserialize(blob);
      if (!back.ok()) return 1;
      acc += static_cast<double>(back->NumEdges());
    }
    const double ns_per_byte = td.ElapsedSeconds() / reps / blob.size() * 1e9;
    (void)acc;
    printf("ns per DP step (char x dfa-state): %8.2f\n", ns_per_step);
    printf("ns per serialized blob byte:       %8.2f\n", ns_per_byte);
    printf("DP steps per blob byte (q=%zu):     %8.2f\n", q,
           static_cast<double>(steps) / static_cast<double>(blob.size()));
    printf("=> eval cost units per blob byte = ns/byte of eval divided by\n"
           "   ns/byte of a sequential 8 KiB page read; see plan.cc for the\n"
           "   cost-constant derivation that consumes these numbers.\n");
  }
  return 0;
}
