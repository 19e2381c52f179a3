// Shared vocabulary types of Protocol P (Algorithm 1 of the paper).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/agent.hpp"

namespace rfc::core {

/// A color from the finite color space Σ.  Colors are small non-negative
/// integers; in the fair-leader-election special case each agent's initial
/// color is his own label.
using Color = std::int64_t;

/// The "protocol failed / no consensus" outcome ⊥.
inline constexpr Color kNoColor = -1;

/// One entry (h_{u,i}, z_{u,i}) of a vote-intention list H_u: in round i of
/// the Voting phase, push the value `value` (u.a.r. in [m]) to agent
/// `target` (u.a.r. in [n]).
struct VoteEntry {
  std::uint64_t value = 0;
  sim::AgentId target = sim::kNoAgent;

  friend bool operator==(const VoteEntry&, const VoteEntry&) = default;
};

/// H_u: exactly q entries, one per Voting-phase round.
using VoteIntention = std::vector<VoteEntry>;

/// A vote as received in the Voting phase: agent `voter` pushed `value`
/// during voting round `round_index`.  The triple identifies the vote
/// uniquely (each agent pushes exactly one vote per round), which is what
/// lets the Verification phase cross-check W_min against collected
/// intentions.
struct ReceivedVote {
  sim::AgentId voter = sim::kNoAgent;
  std::uint32_t round_index = 0;
  std::uint64_t value = 0;

  friend bool operator==(const ReceivedVote&, const ReceivedVote&) = default;
};

/// W_u: all votes received by u during the Voting phase.
using ReceivedVotes = std::vector<ReceivedVote>;

/// An immutable, shared H_v.  Protocol P's commitment data never changes
/// once declared, so the simulator boxes each intention once and every
/// holder (the declarer, the payloads serving it, the auditors' L_u
/// records) keeps a reference instead of a copy.
using SharedIntention = std::shared_ptr<const VoteIntention>;

/// One record of L_u: the vote intention an agent declared to us in the
/// Commitment phase, or the "marked faulty" state if it did not reply or
/// replied in an unexpected way (footnote 4 of the paper: a silent peer's
/// votes all count as zero).
///
/// Sharing and lifetime.  `intention` is the heap box the reply carried
/// (sim::Payload::shared_as), so an honest auditor's record for peer p is
/// pointer-identical to the box p serves and costs one reference, not q
/// entries.  A reply that came arena-boxed (a deviant's per-auditor lie,
/// sim/payload.hpp) dies at the round barrier, so the record holds a
/// private copy of it instead; either way the record owns what it points
/// to for as long as it lives.  The paper-model memory accounting
/// (ProtocolAgent::local_memory_bits) still charges every record its full
/// q entries, since a real agent has no one to share them with.
struct CommitmentRecord {
  SharedIntention intention;  ///< Null iff the peer is marked faulty.

  bool marked_faulty() const noexcept { return intention == nullptr; }
};

/// L_u: first-declaration-wins map from peer label to its declared
/// intention.  "First declaration" implements the h* values of Theorem 7's
/// proof: an equivocating peer is pinned to whatever it told us first.
///
/// Stored as a flat vector of (label, record) sorted by label: L_u holds at
/// most q = O(log n) records, so a binary search beats hashing and the
/// whole map is one allocation.  Iteration runs in label order; none of
/// its consumers (verification, the memory accounting) depends on order.
class CollectedIntentions {
 public:
  using value_type = std::pair<sim::AgentId, CommitmentRecord>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const noexcept { return entries_.begin(); }
  const_iterator end() const noexcept { return entries_.end(); }
  std::size_t size() const noexcept { return entries_.size(); }
  void reserve(std::size_t records) { entries_.reserve(records); }

  /// The record for `peer`, or end().
  const_iterator find(sim::AgentId peer) const noexcept {
    const auto it = lower_bound(peer);
    return it != entries_.end() && it->first == peer ? it : entries_.end();
  }
  bool contains(sim::AgentId peer) const noexcept {
    return find(peer) != entries_.end();
  }

  /// Inserts `record` for `peer` unless one is already held — the first
  /// declaration wins.  Returns whether it inserted.
  bool emplace(sim::AgentId peer, CommitmentRecord record) {
    const auto it = lower_bound(peer);
    if (it != entries_.end() && it->first == peer) return false;
    entries_.emplace(it, peer, std::move(record));
    return true;
  }

 private:
  const_iterator lower_bound(sim::AgentId peer) const noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), peer,
        [](const value_type& e, sim::AgentId p) { return e.first < p; });
  }

  std::vector<value_type> entries_;  ///< Sorted by label, labels unique.
};

}  // namespace rfc::core
