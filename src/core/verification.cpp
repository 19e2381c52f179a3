#include "core/verification.hpp"

#include <unordered_set>
#include <utility>

namespace rfc::core {

std::string to_string(VerificationFailure f) {
  switch (f) {
    case VerificationFailure::kNone: return "none";
    case VerificationFailure::kMalformedVote: return "malformed-vote";
    case VerificationFailure::kDuplicateVote: return "duplicate-vote";
    case VerificationFailure::kBadKeySum: return "bad-key-sum";
    case VerificationFailure::kVoteFromFaulty: return "vote-from-faulty";
    case VerificationFailure::kIntentionMismatch: return "intention-mismatch";
    case VerificationFailure::kMissingVote: return "missing-vote";
  }
  return "unknown";
}

CommitmentRecord commitment_record(const ProtocolParams& params,
                                   SharedIntention declared) {
  // "Replies in an unexpected way" (footnote 4): no reply, wrong length or
  // out-of-domain entries all mark the peer faulty.
  if (declared == nullptr || declared->size() != params.q) return {};
  for (const VoteEntry& e : *declared) {
    if (e.value >= params.m || e.target >= params.n) return {};
  }
  return {std::move(declared)};
}

VerificationResult verify_certificate(const ProtocolParams& params,
                                      const Certificate& certificate,
                                      const CollectedIntentions& collected) {
  // (a) Well-formedness and uniqueness of (voter, round) pairs.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(certificate.votes.size());
  for (const ReceivedVote& v : certificate.votes) {
    if (v.value >= params.m || v.round_index >= params.q ||
        v.voter >= params.n) {
      return {VerificationFailure::kMalformedVote};
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(v.voter) << 32) | v.round_index;
    if (!seen.insert(key).second) {
      return {VerificationFailure::kDuplicateVote};
    }
  }

  // (b) The claimed key must equal the vote sum.
  if (certificate.k != certificate.vote_sum(params)) {
    return {VerificationFailure::kBadKeySum};
  }

  // (c) Consistency against first-declared intentions.
  for (const ReceivedVote& v : certificate.votes) {
    const auto it = collected.find(v.voter);
    if (it == collected.end()) continue;  // We never audited this voter.
    const CommitmentRecord& record = it->second;
    if (record.marked_faulty()) {
      return {VerificationFailure::kVoteFromFaulty};
    }
    const VoteEntry& declared = record.intention->at(v.round_index);
    if (declared.target != certificate.owner ||
        declared.value != v.value) {
      return {VerificationFailure::kIntentionMismatch};
    }
  }

  // (d) Completeness: every audited peer's declared vote for the winner
  // must be present.  This closes the vote-dropping loophole.
  if (params.strict_verification) {
    for (const auto& [voter, record] : collected) {
      if (record.marked_faulty()) continue;
      const VoteIntention& declared = *record.intention;
      for (std::uint32_t j = 0; j < declared.size(); ++j) {
        if (declared[j].target != certificate.owner) continue;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(voter) << 32) | j;
        if (!seen.contains(key)) {
          return {VerificationFailure::kMissingVote};
        }
      }
    }
  }

  return {VerificationFailure::kNone};
}

}  // namespace rfc::core
