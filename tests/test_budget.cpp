#include "sched/budget.h"

#include <gtest/gtest.h>

#include <string>

#include "core/error.h"

namespace hpcarbon::sched {
namespace {

TEST(Budget, AllocationAndCharge) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation("alice", Mass::kilograms(100));
  EXPECT_DOUBLE_EQ(ledger.allocation("alice").to_kilograms(), 100.0);
  EXPECT_DOUBLE_EQ(ledger.spent("alice").to_grams(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction("alice"), 1.0);

  ledger.charge("alice", Mass::kilograms(25));
  EXPECT_DOUBLE_EQ(ledger.spent("alice").to_kilograms(), 25.0);
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction("alice"), 0.75);
  EXPECT_FALSE(ledger.is_overdrawn("alice"));
}

TEST(Budget, OverdraftDetected) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation("bob", Mass::kilograms(10));
  ledger.charge("bob", Mass::kilograms(15));
  EXPECT_LT(ledger.remaining_fraction("bob"), 0.0);
  EXPECT_TRUE(ledger.is_overdrawn("bob"));
}

TEST(Budget, UnknownUserTreatedAsSpent) {
  CarbonBudgetLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction("nobody"), 0.0);
  EXPECT_DOUBLE_EQ(ledger.allocation("nobody").to_grams(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.spent("nobody").to_grams(), 0.0);
}

TEST(Budget, ChargesAccumulate) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation("carol", Mass::kilograms(100));
  for (int i = 0; i < 10; ++i) ledger.charge("carol", Mass::kilograms(5));
  EXPECT_DOUBLE_EQ(ledger.spent("carol").to_kilograms(), 50.0);
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction("carol"), 0.5);
}

TEST(Budget, PriorityRanksEconomicalUsersFirst) {
  // The paper's incentive: economical users "could be prioritized to reduce
  // their queue wait time".
  CarbonBudgetLedger ledger;
  ledger.set_allocation("thrifty", Mass::kilograms(100));
  ledger.set_allocation("spender", Mass::kilograms(100));
  ledger.charge("thrifty", Mass::kilograms(10));
  ledger.charge("spender", Mass::kilograms(90));
  EXPECT_GT(ledger.priority("thrifty"), ledger.priority("spender"));
}

TEST(Budget, Validation) {
  CarbonBudgetLedger ledger;
  EXPECT_THROW(ledger.set_allocation("x", Mass::grams(-1)), Error);
  EXPECT_THROW(ledger.charge("x", Mass::grams(-1)), Error);
}

TEST(Budget, ZeroAllocationIsFullySpent) {
  CarbonBudgetLedger ledger;
  ledger.set_allocation("zero", Mass::grams(0));
  EXPECT_DOUBLE_EQ(ledger.remaining_fraction("zero"), 0.0);
}

TEST(Budget, AccountIndexChargesMatchChargesByName) {
  CarbonBudgetLedger by_name;
  CarbonBudgetLedger by_index;
  for (auto* ledger : {&by_name, &by_index}) {
    ledger->set_allocation("alice", Mass::kilograms(10));
    ledger->set_allocation("bob", Mass::kilograms(4));
  }
  const auto alice = by_index.account("alice");
  const auto bob = by_index.account("bob");
  const auto carol = by_index.account("carol");  // no allocation
  EXPECT_EQ(by_index.account("alice"), alice);   // resolving is idempotent
  EXPECT_NE(alice, bob);
  // An opened account with no allocation reads like an unknown user.
  EXPECT_DOUBLE_EQ(by_index.remaining_fraction("carol"), 0.0);
  EXPECT_DOUBLE_EQ(by_index.spent("carol").to_grams(), 0.0);

  const double grams[] = {1250.5, 3000.0, 0.25, 7000.0, 512.125, 0.0};
  const std::string users[] = {"alice", "bob", "carol"};
  const CarbonBudgetLedger::Account accounts[] = {alice, bob, carol};
  for (int i = 0; i < 12; ++i) {
    const Mass amount = Mass::grams(grams[i % 6]);
    by_name.charge(users[i % 3], amount);
    by_index.charge(accounts[i % 3], amount);
  }
  for (const auto& u : users) {
    EXPECT_EQ(by_index.spent(u).to_grams(), by_name.spent(u).to_grams()) << u;
    EXPECT_EQ(by_index.allocation(u).to_grams(),
              by_name.allocation(u).to_grams())
        << u;
    EXPECT_EQ(by_index.remaining_fraction(u), by_name.remaining_fraction(u))
        << u;
  }
  EXPECT_TRUE(by_index.is_overdrawn("bob"));
  EXPECT_THROW(by_index.charge(alice, Mass::grams(-1)), Error);
  EXPECT_THROW(by_index.charge(CarbonBudgetLedger::Account{99}, Mass::grams(1)),
               Error);
}

}  // namespace
}  // namespace hpcarbon::sched
