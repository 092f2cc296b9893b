#include "core/repository.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace decos::core {
namespace {

using namespace decos::literals;

Instant at(std::int64_t ms) { return Instant::origin() + Duration::milliseconds(ms); }

ElementInstance instance(int v) {
  ElementInstance e;
  e.set_field("value", ta::Value{v});
  return e;
}

ElementDecl state_decl(const std::string& name, Duration d_acc = 50_ms) {
  return ElementDecl{name, spec::InfoSemantics::kState, d_acc, 16};
}

ElementDecl event_decl(const std::string& name, std::size_t capacity = 4) {
  return ElementDecl{name, spec::InfoSemantics::kEvent, 50_ms, capacity};
}

TEST(RepositoryTest, DeclareAndQuery) {
  Repository repo;
  repo.declare(state_decl("speed"));
  EXPECT_TRUE(repo.is_declared("speed"));
  EXPECT_FALSE(repo.is_declared("ghost"));
  EXPECT_EQ(repo.decl_of("speed").semantics, spec::InfoSemantics::kState);
  EXPECT_EQ(repo.element_count(), 1u);
  EXPECT_THROW(repo.decl_of("ghost"), SpecError);
}

TEST(RepositoryTest, RedeclarationConsistentOkConflictingThrows) {
  Repository repo;
  repo.declare(state_decl("speed"));
  EXPECT_NO_THROW(repo.declare(state_decl("speed")));
  EXPECT_THROW(repo.declare(event_decl("speed")), SpecError);
}

TEST(RepositoryTest, StateUpdateInPlace) {
  Repository repo;
  repo.declare(state_decl("speed"));
  repo.store("speed", instance(1), at(0));
  repo.store("speed", instance(2), at(1));
  const ElementInstance* current = repo.peek("speed");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->field("value")->as_int(), 2);
  EXPECT_EQ(current->observed_at, at(1));
  EXPECT_EQ(repo.stores(), 2u);
}

TEST(RepositoryTest, TemporalAccuracyEq1) {
  Repository repo;
  repo.declare(state_decl("speed", 50_ms));
  EXPECT_FALSE(repo.temporally_accurate("speed", at(0)));  // nothing stored
  repo.store("speed", instance(1), at(0));
  EXPECT_TRUE(repo.temporally_accurate("speed", at(0)));
  EXPECT_TRUE(repo.temporally_accurate("speed", at(49)));
  // Eq. (1) boundary: t_now == t_update + d_acc is no longer accurate.
  EXPECT_FALSE(repo.temporally_accurate("speed", at(50)));
  EXPECT_FALSE(repo.temporally_accurate("speed", at(51)));
}

TEST(RepositoryTest, AvailabilityStateVsEvent) {
  Repository repo;
  repo.declare(state_decl("s", 10_ms));
  repo.declare(event_decl("e"));
  EXPECT_FALSE(repo.available("s", at(0)));
  EXPECT_FALSE(repo.available("e", at(0)));
  repo.store("s", instance(1), at(0));
  repo.store("e", instance(1), at(0));
  EXPECT_TRUE(repo.available("s", at(5)));
  EXPECT_FALSE(repo.available("s", at(20)));  // stale
  EXPECT_TRUE(repo.available("e", at(20)));   // events never go stale
}

TEST(RepositoryTest, StateFetchNonConsumingRespectsAccuracy) {
  Repository repo;
  repo.declare(state_decl("s", 10_ms));
  repo.store("s", instance(7), at(0));
  EXPECT_TRUE(repo.fetch("s", at(5)).has_value());
  EXPECT_TRUE(repo.fetch("s", at(5)).has_value());  // non-consuming
  EXPECT_FALSE(repo.fetch("s", at(15)).has_value());  // stale
  EXPECT_EQ(repo.stale_fetches_refused(), 1u);
  // The ablation path forwards regardless of staleness.
  EXPECT_TRUE(repo.fetch("s", at(15), /*ignore_accuracy=*/true).has_value());
}

TEST(RepositoryTest, EventFetchExactlyOnce) {
  Repository repo;
  repo.declare(event_decl("e"));
  repo.store("e", instance(1), at(0));
  repo.store("e", instance(2), at(1));
  EXPECT_EQ(repo.queue_depth("e"), 2u);
  EXPECT_EQ(repo.fetch("e", at(2))->field("value")->as_int(), 1);  // FIFO
  EXPECT_EQ(repo.fetch("e", at(2))->field("value")->as_int(), 2);
  EXPECT_FALSE(repo.fetch("e", at(2)).has_value());
  EXPECT_EQ(repo.queue_depth("e"), 0u);
}

TEST(RepositoryTest, EventQueueOverflowDropsNewest) {
  Repository repo;
  repo.declare(event_decl("e", 2));
  EXPECT_TRUE(repo.store("e", instance(1), at(0)));
  EXPECT_TRUE(repo.store("e", instance(2), at(0)));
  EXPECT_FALSE(repo.store("e", instance(3), at(0)));
  EXPECT_EQ(repo.overflows(), 1u);
  EXPECT_EQ(repo.fetch("e", at(1))->field("value")->as_int(), 1);
}

TEST(RepositoryTest, HorizonEq2) {
  Repository repo;
  repo.declare(state_decl("a", 50_ms));
  repo.declare(state_decl("b", 20_ms));
  repo.declare(event_decl("e"));
  repo.store("a", instance(1), at(0));
  repo.store("b", instance(1), at(5));

  const std::string all[] = {"a", "b", "e"};
  // horizon = min(0+50-10, 5+20-10) = min(40, 15) = 15ms.
  EXPECT_EQ(repo.horizon(all, at(10)), 15_ms);
  // Event elements do not constrain the horizon.
  const std::string only_event[] = {"e"};
  EXPECT_EQ(repo.horizon(only_event, at(10)), Duration::max());
  // Past expiry the horizon goes negative.
  EXPECT_LT(repo.horizon(all, at(100)), 0_ns);
}

TEST(RepositoryTest, HorizonOfUnstoredStateIsVeryNegative) {
  Repository repo;
  repo.declare(state_decl("a", 50_ms));
  const std::string all[] = {"a"};
  EXPECT_LT(repo.horizon(all, at(0)), -1_s);
}

TEST(RepositoryTest, RequestVariables) {
  Repository repo;
  repo.declare(event_decl("e"));
  EXPECT_FALSE(repo.requested("e"));
  repo.set_request("e");
  EXPECT_TRUE(repo.requested("e"));
  // Storing satisfies (and clears) the request.
  repo.store("e", instance(1), at(0));
  EXPECT_FALSE(repo.requested("e"));
}

TEST(RepositoryTest, UnknownElementThrows) {
  Repository repo;
  EXPECT_THROW(repo.store("ghost", instance(1), at(0)), SpecError);
  EXPECT_THROW(repo.available("ghost", at(0)), SpecError);
  EXPECT_THROW(repo.fetch("ghost", at(0)), SpecError);
  EXPECT_THROW(repo.set_request("ghost"), SpecError);
}

TEST(RepositoryTest, ElementNamesListsAll) {
  Repository repo;
  repo.declare(state_decl("a"));
  repo.declare(event_decl("b"));
  auto names = repo.element_names();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

std::vector<ElementId> touched(const Repository& repo) {
  return {repo.touched().begin(), repo.touched().end()};
}

TEST(RepositoryTest, TouchedListCoversEveryRaisingOrConsumingCallOnce) {
  Repository repo;
  const ElementId s = repo.declare(state_decl("s"));
  const ElementId e = repo.declare(event_decl("e", 2));
  const ElementId f = repo.declare(event_decl("f"));
  EXPECT_TRUE(repo.touched().empty());

  // store and store_copy; repeated touches are listed once, in
  // first-touch order.
  repo.store(s, instance(1), at(0));
  repo.store(s, instance(2), at(1));
  repo.store_copy(e, instance(3), at(1));
  repo.store_copy(e, instance(4), at(1));
  EXPECT_EQ(touched(repo), (std::vector<ElementId>{s, e}));
  // An overflowing event store still counts (its version moves).
  repo.clear_touched();
  EXPECT_TRUE(repo.touched().empty());
  EXPECT_FALSE(repo.store_copy(e, instance(5), at(2)));
  EXPECT_EQ(touched(repo), (std::vector<ElementId>{e}));

  // consume_into and an event fetch lower availability: both touch.
  repo.clear_touched();
  ElementInstance out;
  ASSERT_TRUE(repo.consume_into(e, out));
  EXPECT_EQ(touched(repo), (std::vector<ElementId>{e}));
  repo.clear_touched();
  ASSERT_TRUE(repo.fetch(e, at(2)).has_value());
  EXPECT_EQ(touched(repo), (std::vector<ElementId>{e}));

  // Reads touch nothing: state fetch/fetch_state/peek/available, and
  // consuming from an empty queue.
  repo.clear_touched();
  EXPECT_TRUE(repo.fetch(s, at(2)).has_value());
  EXPECT_NE(repo.fetch_state(s, at(2)), nullptr);
  EXPECT_NE(repo.peek(s), nullptr);
  EXPECT_TRUE(repo.available(s, at(2)));
  EXPECT_FALSE(repo.consume_into(f, out));
  EXPECT_FALSE(repo.fetch(f, at(2)).has_value());
  EXPECT_TRUE(repo.touched().empty());

  // Clearing a request touches.
  repo.set_request(f, true);
  repo.set_request(f, false);
  EXPECT_EQ(touched(repo), (std::vector<ElementId>{f}));
}

TEST(RepositoryTest, SettingARequestDoesNotTouch) {
  // A held output sets the request bits of its missing elements; if that
  // touched them, the plan would wake itself and never stay parked.
  Repository repo;
  const ElementId s = repo.declare(state_decl("s"));
  const ElementId e = repo.declare(event_decl("e"));
  repo.set_request(s);
  repo.set_request(e, true);
  EXPECT_TRUE(repo.requested(s));
  EXPECT_TRUE(repo.requested(e));
  EXPECT_TRUE(repo.touched().empty());
  // The store that satisfies the request clears it and touches.
  repo.store(e, instance(1), at(0));
  EXPECT_FALSE(repo.requested(e));
  EXPECT_EQ(touched(repo), (std::vector<ElementId>{e}));
}

TEST(ElementInstanceTest, FieldAccessAndUpdate) {
  ElementInstance e;
  e.set_field("x", ta::Value{1});
  e.set_field("x", ta::Value{2});  // overwrite, no duplicate
  e.set_field("y", ta::Value{3});
  EXPECT_EQ(e.fields.size(), 2u);
  EXPECT_EQ(e.field("x")->as_int(), 2);
  EXPECT_EQ(e.field("none"), nullptr);
}

}  // namespace
}  // namespace decos::core
