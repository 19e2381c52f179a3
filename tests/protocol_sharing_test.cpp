// Protocol P shares its immutable objects instead of copying them: vote
// intentions and certificates are boxed once, and every L_u record, CE_min
// and payload holding one keeps a reference (core/types.hpp).  These tests
// pin that the sharing is real, that replies which cannot be shared
// (arena-boxed, sim/payload.hpp) are copied into storage that outlives the
// round arena, and that outcomes, per-agent audit verdicts, every Metrics
// field and the paper-model memory accounting are exactly what the
// copy-everything implementation produced at the same seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/payloads.hpp"
#include "core/runner.hpp"
#include "rational/strategies.hpp"
#include "sim/payload.hpp"
#include "support/arena.hpp"

namespace rfc {
namespace {

constexpr sim::PayloadTag kTestTag = 0xF4;
constexpr sim::PayloadTag kOtherTestTag = 0xF5;

using Words = std::vector<std::uint64_t>;

// --- sim::Payload::shared_as ----------------------------------------------

TEST(PayloadSharedAs, BoxedPayloadYieldsAliasingPointer) {
  const auto object = std::make_shared<const Words>(Words{1, 2, 3});
  const sim::Payload p = sim::Payload::boxed<Words>(kTestTag, 192, object);
  const long before = object.use_count();
  const std::shared_ptr<const Words> shared = p.shared_as<Words>(kTestTag);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared.get(), object.get());
  EXPECT_EQ(shared.get(), p.boxed_as<Words>(kTestTag));
  EXPECT_EQ(object.use_count(), before + 1);
  EXPECT_EQ(*shared, (Words{1, 2, 3}));
}

TEST(PayloadSharedAs, SharedHandleOutlivesThePayload) {
  std::shared_ptr<const Words> shared;
  {
    const sim::Payload p =
        sim::Payload::make_boxed<Words>(kTestTag, 128, Words{7, 8});
    shared = p.shared_as<Words>(kTestTag);
  }
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(*shared, (Words{7, 8}));
}

TEST(PayloadSharedAs, NullForArenaInlineEmptyAndWrongTag) {
  support::Arena arena;
  const sim::Payload arena_boxed =
      sim::Payload::make_boxed_in<Words>(&arena, kTestTag, 64, Words{4});
  ASSERT_TRUE(arena_boxed.is_arena_boxed());
  ASSERT_NE(arena_boxed.boxed_as<Words>(kTestTag), nullptr);
  EXPECT_EQ(arena_boxed.shared_as<Words>(kTestTag), nullptr);

  const sim::Payload inline_words =
      sim::Payload::inline_words(kTestTag, 64, 9, 9, 9);
  EXPECT_EQ(inline_words.shared_as<Words>(kTestTag), nullptr);

  EXPECT_EQ(sim::Payload{}.shared_as<Words>(kTestTag), nullptr);

  const sim::Payload boxed =
      sim::Payload::make_boxed<Words>(kTestTag, 64, Words{5});
  EXPECT_EQ(boxed.shared_as<Words>(kOtherTestTag), nullptr);
}

// --- The arena fallback of the core accessors -----------------------------

TEST(SharedAccessors, HeapBoxesAreSharedArenaBoxesCopied) {
  const auto params = core::ProtocolParams::make(64, 2.0);
  core::VoteIntention h(params.q, {3, 5});
  core::Certificate cert = core::make_certificate(params, 9, 1, {{2, 0, 4}});

  const sim::Payload heap_h = core::make_intention_payload(h, params);
  const sim::Payload heap_c = core::make_certificate_payload(cert, params);
  EXPECT_EQ(core::shared_intention_in(heap_h).get(),
            core::intention_in(heap_h));
  EXPECT_EQ(core::shared_certificate_in(heap_c).get(),
            core::certificate_in(heap_c));

  support::Arena arena;
  core::SharedIntention kept_h;
  core::SharedCertificate kept_c;
  {
    const sim::Payload arena_h =
        core::make_intention_payload_in(&arena, h, params);
    const sim::Payload arena_c =
        core::make_certificate_payload_in(&arena, cert, params);
    kept_h = core::shared_intention_in(arena_h);
    kept_c = core::shared_certificate_in(arena_c);
    ASSERT_NE(kept_h, nullptr);
    ASSERT_NE(kept_c, nullptr);
    EXPECT_NE(kept_h.get(), core::intention_in(arena_h));
    EXPECT_NE(kept_c.get(), core::certificate_in(arena_c));
  }
  arena.reset();  // The round barrier: the arena objects are gone.
  EXPECT_EQ(kept_h.use_count(), 1);
  EXPECT_EQ(kept_c.use_count(), 1);
  EXPECT_EQ(*kept_h, h);
  EXPECT_EQ(*kept_c, cert);

  EXPECT_EQ(core::shared_intention_in(sim::Payload{}), nullptr);
  EXPECT_EQ(core::shared_certificate_in(heap_h), nullptr);  // Wrong tag.
}

// --- Sharing in an honest run ----------------------------------------------

struct Execution {
  core::RunConfig cfg;
  std::unique_ptr<sim::Engine> engine;
  core::RunResult result;

  const core::ProtocolAgent& agent(sim::AgentId u) const {
    return static_cast<const core::ProtocolAgent&>(engine->agent(u));
  }
};

Execution run(core::RunConfig cfg) {
  Execution r;
  r.cfg = std::move(cfg);
  r.engine = core::build_protocol_engine(r.cfg);
  r.result = core::run_protocol_on(*r.engine, r.cfg);
  return r;
}

core::RunConfig honest_config() {
  core::RunConfig cfg;
  cfg.n = 48;
  cfg.gamma = 4.0;
  cfg.seed = 7;
  cfg.num_faulty = 5;
  cfg.placement = sim::FaultPlacement::kRandom;
  cfg.colors = core::split_colors(48, {0.5, 0.3, 0.2});
  return cfg;
}

TEST(ProtocolSharing, AuditRecordsAreThePeersOwnIntentionBoxes) {
  const Execution r = run(honest_config());
  ASSERT_FALSE(r.result.failed());
  std::uint64_t shared = 0;
  std::uint64_t faulty = 0;
  for (sim::AgentId u = 0; u < r.cfg.n; ++u) {
    if (r.engine->is_faulty(u)) continue;
    for (const auto& [peer, record] : r.agent(u).collected_intentions()) {
      if (r.engine->is_faulty(peer)) {
        EXPECT_TRUE(record.marked_faulty());
        ++faulty;
        continue;
      }
      ASSERT_FALSE(record.marked_faulty());
      // Pointer-identical to the box the peer served: no copy per auditor.
      EXPECT_EQ(record.intention.get(), &r.agent(peer).intention());
      ++shared;
    }
  }
  EXPECT_GT(shared, 0u);
  EXPECT_GT(faulty, 0u);
}

TEST(ProtocolSharing, AgreeingAgentsHoldOneCertificateBox) {
  const Execution r = run(honest_config());
  ASSERT_FALSE(r.result.failed());
  const core::Certificate* box = nullptr;
  for (sim::AgentId u = 0; u < r.cfg.n; ++u) {
    if (r.engine->is_faulty(u)) continue;
    ASSERT_TRUE(r.agent(u).has_min_certificate());
    if (box == nullptr) box = &r.agent(u).min_certificate();
    EXPECT_EQ(&r.agent(u).min_certificate(), box) << u;
  }
  // The winner's CE_min is its own CE_u box, adopted by everyone.
  EXPECT_EQ(box, &r.agent(r.result.winner_agent).own_certificate());
}

TEST(ProtocolSharing, LocalMemoryBitsChargeEveryRecordInFull) {
  // Captured from the implementation that deep-copied every intention into
  // every auditor's L_u: sharing must not change the paper-model figure.
  const std::vector<std::uint64_t> expected = {
      7026, 6219, 0,    7401, 7776, 6391, 6236, 0,    6121, 6344, 0,    5760,
      7246, 6168, 5645, 5746, 6023, 0,    6503, 5537, 6067, 5584, 5486, 7188,
      6817, 6705, 6719, 4895, 7033, 5706, 6185, 5969, 6178, 6925, 5803, 5699,
      6756, 6222, 6236, 6395, 7195, 6925, 6550, 7350, 0,    5216, 5763, 7036};
  const Execution r = run(honest_config());
  EXPECT_EQ(r.result.max_local_memory_bits, 7776u);
  for (sim::AgentId u = 0; u < r.cfg.n; ++u) {
    const std::uint64_t bits =
        r.engine->is_faulty(u) ? 0 : r.agent(u).local_memory_bits();
    EXPECT_EQ(bits, expected[u]) << u;
  }
}

// --- Deviant runs: pinned outcomes and the arena copy path -----------------

struct DeviantPin {
  rational::DeviationStrategy strategy;
  std::uint64_t seed;
  core::Color winner;
  sim::AgentId winner_agent;
  std::uint32_t honest_failures;
  std::uint64_t max_local_memory_bits;
  sim::Metrics metrics;
  /// Per-agent VerificationFailure, one digit per label.
  std::string failures;
};

Execution run_deviant(rational::DeviationStrategy s, std::uint64_t seed) {
  constexpr std::uint32_t kN = 64;
  constexpr std::uint32_t kT = 4;
  core::RunConfig cfg;
  cfg.n = kN;
  cfg.gamma = 4.0;
  cfg.seed = seed;
  cfg.colors.assign(kN, 0);
  const rational::CoalitionPtr coalition = rational::make_prefix_coalition(kT);
  for (std::uint32_t j = 0; j < kT; ++j) cfg.colors[j] = 1;
  cfg.coalition = coalition->members();
  cfg.factory = rational::make_deviating_factory(s, coalition);
  return run(std::move(cfg));
}

sim::Metrics metrics(std::uint64_t pushes, std::uint64_t total_bits,
                     std::uint64_t max_message_bits) {
  sim::Metrics m;
  m.rounds = 69;
  m.virtual_time = 69.0;
  m.pushes = pushes;
  m.pull_requests = 2176;
  m.pull_replies = 2176;
  m.total_bits = total_bits;
  m.max_message_bits = max_message_bits;
  m.active_links = 4352;
  return m;
}

// Captured at n = 64, γ = 4, coalition {0..3} (color 1, everyone else
// color 0) from the copy-everything implementation.
const std::vector<DeviantPin>& deviant_pins() {
  using S = rational::DeviationStrategy;
  static const std::vector<DeviantPin> kPins = {
      {S::kEquivocate, 1, core::kNoColor, sim::kNoAgent, 28, 9118,
       metrics(2176, 1637357, 697),
       "0650050005000500505555056500506600005556565555500050500000005000"},
      {S::kEquivocate, 2, core::kNoColor, sim::kNoAgent, 5, 9283,
       metrics(2176, 1503058, 900),
       "0600000000000000000000600600000000060060060000000000000000000000"},
      {S::kEquivocate, 3, core::kNoColor, sim::kNoAgent, 19, 9292,
       metrics(2176, 1620247, 871),
       "0000000500050500066500000050655600605000600006506600000000000050"},
      {S::kFindMinSuppress, 1, 0, 17, 0, 9118, metrics(2176, 1637183, 697),
       "0000000000000000000000000000000000000000000000000000000000000000"},
      {S::kFindMinSuppress, 2, 1, 1, 0, 9283, metrics(2176, 1502333, 900),
       "0000000000000000000000000000000000000000000000000000000000000000"},
      {S::kFindMinSuppress, 3, 0, 17, 0, 9292, metrics(2176, 1615114, 871),
       "0000000000000000000000000000000000000000000000000000000000000000"},
  };
  return kPins;
}

void expect_metrics_eq(const sim::Metrics& a, const sim::Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.virtual_time, b.virtual_time);
  EXPECT_EQ(a.pushes, b.pushes);
  EXPECT_EQ(a.pull_requests, b.pull_requests);
  EXPECT_EQ(a.pull_replies, b.pull_replies);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.max_message_bits, b.max_message_bits);
  EXPECT_EQ(a.active_links, b.active_links);
  EXPECT_EQ(a.denials, b.denials);
  EXPECT_EQ(a.net_drops, b.net_drops);
  EXPECT_EQ(a.net_dups, b.net_dups);
  EXPECT_EQ(a.net_corruptions, b.net_corruptions);
  EXPECT_EQ(a.net_delays, b.net_delays);
  EXPECT_EQ(a.churn_crashes, b.churn_crashes);
}

TEST(ProtocolSharing, DeviantOutcomesMatchPins) {
  for (const DeviantPin& pin : deviant_pins()) {
    SCOPED_TRACE(rational::to_string(pin.strategy) + " seed " +
                 std::to_string(pin.seed));
    const Execution r = run_deviant(pin.strategy, pin.seed);
    EXPECT_EQ(r.result.winner, pin.winner);
    EXPECT_EQ(r.result.winner_agent, pin.winner_agent);
    EXPECT_EQ(r.result.rounds, 69u);
    EXPECT_EQ(r.result.num_active, 64u);
    EXPECT_EQ(r.result.honest_failures, pin.honest_failures);
    EXPECT_EQ(r.result.max_local_memory_bits, pin.max_local_memory_bits);
    expect_metrics_eq(r.result.metrics, pin.metrics);
    std::string failures;
    for (sim::AgentId u = 0; u < r.cfg.n; ++u) {
      failures += static_cast<char>(
          '0' + static_cast<int>(r.agent(u).verification_failure()));
    }
    EXPECT_EQ(failures, pin.failures);
  }
}

TEST(ProtocolSharing, ArenaBoxedLiesAreKeptAsPrivateCopies) {
  // An equivocator serves a fresh arena-boxed lie to every auditor.  Long
  // after those arenas were reset, each honest auditor's record must still
  // hold a well-formed intention that only it references.
  const Execution r = run_deviant(rational::DeviationStrategy::kEquivocate, 1);
  std::uint64_t copies = 0;
  for (sim::AgentId u = 4; u < r.cfg.n; ++u) {
    for (const auto& [peer, record] : r.agent(u).collected_intentions()) {
      ASSERT_FALSE(record.marked_faulty());
      if (peer >= 4) {
        EXPECT_EQ(record.intention.get(), &r.agent(peer).intention());
        continue;
      }
      EXPECT_NE(record.intention.get(), &r.agent(peer).intention());
      EXPECT_EQ(record.intention.use_count(), 1);
      ASSERT_EQ(record.intention->size(), r.agent(peer).intention().size());
      for (const core::VoteEntry& e : *record.intention) {
        EXPECT_LT(e.target, r.cfg.n);
      }
      ++copies;
    }
  }
  EXPECT_GT(copies, 0u);
}

}  // namespace
}  // namespace rfc
