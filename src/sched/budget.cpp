#include "sched/budget.h"

#include "core/error.h"

namespace hpcarbon::sched {

void CarbonBudgetLedger::set_allocation(const std::string& user, Mass budget) {
  HPC_REQUIRE(budget.to_grams() >= 0, "budget must be non-negative");
  balances_[account(user)].allocation_g = budget.to_grams();
}

CarbonBudgetLedger::Account CarbonBudgetLedger::account(
    const std::string& user) {
  const auto [it, opened] = index_.try_emplace(user, balances_.size());
  if (opened) balances_.emplace_back();
  return it->second;
}

void CarbonBudgetLedger::charge(const std::string& user, Mass amount) {
  charge(account(user), amount);
}

void CarbonBudgetLedger::charge(Account account, Mass amount) {
  HPC_REQUIRE(account < balances_.size(), "unknown budget account");
  HPC_REQUIRE(amount.to_grams() >= 0, "charge must be non-negative");
  balances_[account].spent_g += amount.to_grams();
}

const CarbonBudgetLedger::Balance* CarbonBudgetLedger::find(
    const std::string& user) const {
  const auto it = index_.find(user);
  return it == index_.end() ? nullptr : &balances_[it->second];
}

Mass CarbonBudgetLedger::allocation(const std::string& user) const {
  const Balance* b = find(user);
  return Mass::grams(b == nullptr ? 0.0 : b->allocation_g);
}

Mass CarbonBudgetLedger::spent(const std::string& user) const {
  const Balance* b = find(user);
  return Mass::grams(b == nullptr ? 0.0 : b->spent_g);
}

double CarbonBudgetLedger::remaining_fraction(const std::string& user) const {
  const Balance* b = find(user);
  if (b == nullptr || b->allocation_g <= 0) return 0.0;
  return 1.0 - b->spent_g / b->allocation_g;
}

}  // namespace hpcarbon::sched
