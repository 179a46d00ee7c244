// Financial fraud monitoring: a third application domain (the paper's
// introduction cites financial fraud [30] as a classic CEP application),
// showing overlapping contexts and SEQ patterns with negation in the query
// language.
//
// Per account, two contexts can hold concurrently:
//   - `watch`   — the account made a high-value transaction recently;
//   - `travel`  — the account transacted far from its home region.
// A rapid-fire pattern (three transactions within a minute, no logout in
// between) is only evaluated while the account is on the watch list, and a
// "card-present abroad" check only during travel.
//
//   ./build/examples/fraud_detection

#include <cstdio>

#include "common/rng.h"
#include "event/event.h"
#include "event/schema.h"
#include "optimizer/optimizer.h"
#include "query/parser.h"
#include "runtime/engine.h"

namespace {

constexpr char kModel[] = R"(
CONTEXTS quiet, watch, travel DEFAULT quiet;
PARTITION BY account;

-- Large transactions arm the watch list (overlaps travel).
QUERY arm_watch
INITIATE CONTEXT watch
PATTERN Transaction t
WHERE t.amount > 5000
CONTEXT quiet, travel;

QUERY disarm_watch
TERMINATE CONTEXT watch
PATTERN Quiet q
CONTEXT watch;

-- Transactions far from the home region start the travel context.
QUERY start_travel
INITIATE CONTEXT travel
PATTERN Transaction t
WHERE t.distance > 500
CONTEXT quiet, watch;

QUERY end_travel
TERMINATE CONTEXT travel
PATTERN Transaction t
WHERE t.distance < 50
CONTEXT travel;

-- Only while on the watch list: three transactions within a minute with no
-- logout in between.
QUERY rapid_fire
DERIVE RapidFire(t1.account AS account, t1.sec AS first_sec, t3.sec AS last_sec)
PATTERN SEQ(Transaction t1, NOT Logout l, Transaction t2, Transaction t3) WITHIN 60
WHERE l.account = t1.account AND t3.amount > 100
CONTEXT watch;

-- Only while traveling: a duplicate-location pair suggesting a cloned card.
QUERY cloned_card
DERIVE ClonedCard(a.account AS account, a.sec AS sec)
PATTERN SEQ(Transaction a, Transaction b) WITHIN 30
WHERE a.distance > 500 AND b.distance < 100 AND b.sec - a.sec < 10
CONTEXT travel;
)";

}  // namespace

int main() {
  using namespace caesar;

  TypeRegistry registry;
  TypeId transaction =
      registry.RegisterOrGet("Transaction", {{"account", ValueType::kInt},
                                             {"amount", ValueType::kInt},
                                             {"distance", ValueType::kInt},
                                             {"sec", ValueType::kInt}});
  TypeId logout = registry.RegisterOrGet(
      "Logout", {{"account", ValueType::kInt}, {"sec", ValueType::kInt}});
  registry.RegisterOrGet("Quiet", {{"account", ValueType::kInt},
                                   {"sec", ValueType::kInt}});

  Result<CaesarModel> model = ParseModel(kModel, &registry);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  Result<ExecutablePlan> plan =
      OptimizeModel(model.value(), OptimizerOptions());
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  Engine engine(std::move(plan).value(), EngineOptions());

  // Synthesize account activity: account 1 goes on a spending spree (watch
  // list + rapid fire); account 2 travels and shows a cloned-card pattern.
  Rng rng(99);
  EventBatch stream;
  auto txn = [&](int64_t account, int64_t amount, int64_t distance,
                 Timestamp sec) {
    stream.push_back(MakeEvent(
        transaction, sec,
        {Value(account), Value(amount), Value(distance), Value(sec)}));
  };
  // Background noise.
  for (Timestamp t = 0; t < 300; t += 7) {
    txn(3, rng.Uniform(10, 200), rng.Uniform(0, 40), t);
  }
  // Account 1: large purchase arms the watch list, then rapid fire.
  txn(1, 8000, 10, 40);
  txn(1, 150, 12, 55);
  txn(1, 300, 11, 63);
  // Account 1 again, but a logout breaks the pattern.
  txn(1, 200, 10, 100);
  stream.push_back(
      MakeEvent(logout, 105, {Value(int64_t{1}), Value(int64_t{105})}));
  txn(1, 400, 12, 110);
  txn(1, 500, 12, 115);
  // Account 2: travel + cloned card (far and near transactions 8 s apart).
  txn(2, 900, 800, 150);
  txn(2, 120, 20, 158);
  std::sort(stream.begin(), stream.end(),
            [](const EventPtr& a, const EventPtr& b) {
              return a->time() < b->time();
            });

  EventBatch findings;
  RunStats stats = engine.Run(stream, &findings).value();

  std::printf("fraud findings:\n");
  for (const EventPtr& finding : findings) {
    std::printf("  %s\n", finding->ToString(registry).c_str());
  }
  std::printf("\nrun summary:\n%s\n", stats.ToString().c_str());
  return 0;
}
