// Per-user carbon budget ledger.
//
// Implements the paper's incentive-structure implication: "similar to
// core-hour accounting and budgeting, HPC users should also be provided a
// carbon budget as part of their allocation, and they could be prioritized
// to reduce their queue wait time if the carbon footprint of their jobs has
// been economical."
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/units.h"

namespace hpcarbon::sched {

/// Accounts live in a vector, found by name through an index map. The
/// engine resolves each user's account once per run and charges by index,
/// so the per-job charge is a vector store, not a string lookup; the
/// name-keyed API reads the same accounts.
class CarbonBudgetLedger {
 public:
  /// Index of one user's account (stable for the ledger's lifetime).
  using Account = std::size_t;

  CarbonBudgetLedger() = default;

  /// Grant a user an allocation-period budget.
  void set_allocation(const std::string& user, Mass budget);

  /// The account of `user`, opened with no allocation and nothing spent
  /// when new. An opened account reads exactly like an unknown user.
  Account account(const std::string& user);

  /// Charge emitted carbon against a user's budget.
  void charge(const std::string& user, Mass amount);
  void charge(Account account, Mass amount);

  Mass allocation(const std::string& user) const;
  Mass spent(const std::string& user) const;

  /// Fraction of budget remaining, in (-inf, 1]; negative when overdrawn.
  /// Users without an allocation are treated as fully spent (0.0).
  double remaining_fraction(const std::string& user) const;

  bool is_overdrawn(const std::string& user) const {
    return remaining_fraction(user) < 0.0;
  }

  /// Priority key: higher = served sooner. Economical users (large
  /// remaining fraction) jump the queue.
  double priority(const std::string& user) const {
    return remaining_fraction(user);
  }

 private:
  struct Balance {
    double allocation_g = 0;
    double spent_g = 0;
  };
  /// The user's balance, or nullptr when the user has no account.
  const Balance* find(const std::string& user) const;

  std::vector<Balance> balances_;
  std::map<std::string, Account> index_;
};

}  // namespace hpcarbon::sched
