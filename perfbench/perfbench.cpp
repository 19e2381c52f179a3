// perfbench — the measuring program behind the repository benchmark
// (perfbench/run.py builds it and is the command to run).
//
//   perfbench --workload=NAME --seed=S --seconds=T --trace=0|1
//             [--tiny] [--spans=FILE]
//
// One process runs one workload.  Its first execution is the memory
// execution: peak RSS is a process-wide high-water mark, so it is read on
// the first execution, before anything else in the process has allocated.
// Timed executions of the same seed follow for --seconds.  Every execution
// is checked (a ⊥ outcome, an honest agent's failure, an incomplete spread,
// a cross-check mismatch, or an exception counts as failed), and all
// executions of one seed must reproduce one FNV-1a digest of the outcome
// and its Metrics.
//
// --trace=0 prints the end-to-end metrics.  --trace=1 alternates untraced
// and traced executions and prints the per-layer metrics: spans recorded
// around calls into the library's public entry points (build/run, every
// engine round via the round observer, every CommClient call through a
// decorator, the core:: probe calls).  Self time is a span's duration minus
// its children's; the tracing overhead is traced minus untraced run time.
// --spans=FILE writes the last traced execution's spans as TSV.  --tiny
// shrinks every workload for the self-test (perfbench/selftest.py).
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/async_protocol.hpp"
#include "core/runner.hpp"
#include "core/verification.hpp"
#include "gossip/rumor.hpp"
#include "net/harness.hpp"
#include "net/socket_client.hpp"
#include "net/state_digest.hpp"
#include "net/wire_frame.hpp"
#include "sim/engine.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace rfc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double rss_mib() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// --- spans ----------------------------------------------------------------

enum Name : std::uint8_t {
  kSetup,
  kRun,
  kCommitment,  // Protocol P rounds, by phase (round observer).
  kVoting,
  kFindMin,
  kCoherence,
  kVerify,
  kRound,  // Rumor rounds; kCommitment..kRound are all engine rounds.
  kExtract,
  kVerifyProbe,
  kCertEqProbe,
  kSchedProbe,
  kCluster,
  kNode,  // One node's transport lifetime: start() to the end of stop().
  kStart,
  kSend,
  kPoll,
  kOnMessage,
  kStop,
  kNumNames,
};

constexpr std::array<const char*, kNumNames> kNames = {
    "setup",         "run",          "round.commitment", "round.voting",
    "round.findmin", "round.coherence", "round.verify",  "round.rumor",
    "extract",       "probe.verify", "probe.cert_eq",    "probe.sched",
    "cluster",       "node",         "client.start",     "client.send",
    "client.poll",   "client.on_message", "client.stop",
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // Index in the same track; -1 = a root.
  Name name = kSetup;
};

// The spans of one thread.  A node track's roots belong to the cluster span
// on the main track (see Trace::cluster_span).
class Track {
 public:
  std::int32_t open(Name name) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, current(), name});
    stack_.push_back(index);
    return index;
  }
  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }
  // A span measured by the caller, as a child of the innermost open span.
  void add(Name name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({start_ns, end_ns, current(), name});
  }
  const std::vector<Span>& spans() const { return spans_; }

  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

 private:
  std::int32_t current() const { return stack_.empty() ? -1 : stack_.back(); }
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// Opens a span for its lifetime; a null track records nothing.
class Scope {
 public:
  Scope(Track* track, Name name) : track_(track) {
    if (track_ != nullptr) track_->open(name);
  }
  ~Scope() {
    if (track_ != nullptr) track_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Track* track_;
};

struct Trace {
  Track main;
  std::vector<Track> nodes;
  std::int32_t cluster_span = -1;

  std::array<double, kNumNames> self_seconds() const {
    std::array<double, kNumNames> out{};
    auto fold = [&out](const Track& t) {
      const std::vector<std::int64_t> self = t.self_ns();
      for (std::size_t i = 0; i < self.size(); ++i) {
        out[t.spans()[i].name] += static_cast<double>(self[i]) * 1e-9;
      }
    };
    fold(main);
    for (const Track& t : nodes) fold(t);
    return out;
  }

  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "track\tindex\tparent_track\tparent\tname\tstart_ns\tend_ns"
                 "\tself_ns\n");
    auto dump = [&](const Track& t, int track) {
      const std::vector<std::int64_t> self = t.self_ns();
      for (std::size_t i = 0; i < t.spans().size(); ++i) {
        const Span& s = t.spans()[i];
        const bool node_root = track > 0 && s.parent < 0;
        std::fprintf(f, "%d\t%zu\t%d\t%d\t%s\t%lld\t%lld\t%lld\n", track, i,
                     node_root ? 0 : track,
                     node_root ? cluster_span : s.parent, kNames[s.name],
                     static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns),
                     static_cast<long long>(self[i]));
      }
    };
    dump(main, 0);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      dump(nodes[k], static_cast<int>(k + 1));
    }
    return std::fclose(f) == 0;
  }
};

// --- executions -------------------------------------------------------------

struct Sample {
  bool traced = false;
  bool ok = true;
  // The transport could not come up (port bind or mesh start failed): a
  // failed execution, but not a wrong output.
  bool env_failure = false;
  std::string error;
  std::vector<double> setup_s;
  double run_s = 0.0;
  double setup_rss_mib = 0.0;
  double peak_rss_mib = 0.0;
  std::uint64_t digest = 0;
  // Exact counts: every execution of one seed (and tracing mode) must
  // reproduce them.
  std::map<std::string, std::uint64_t> counts;
  // Per-layer metric values; only traced executions' are reported.
  std::map<std::string, double> layer;

  void count(const std::string& key, std::uint64_t value,
             const char* layer_metric = nullptr) {
    counts[key] = value;
    if (layer_metric != nullptr) {
      layer[layer_metric] = static_cast<double>(value);
    }
  }
  std::optional<Trace> trace;

  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

void mix_metrics(net::Fnv1a& fnv, const sim::Metrics& m) {
  std::uint64_t vt = 0;
  std::memcpy(&vt, &m.virtual_time, sizeof(vt));
  for (const std::uint64_t v :
       {m.rounds, vt, m.pushes, m.pull_requests, m.pull_replies,
        m.total_bits, m.max_message_bits, m.active_links, m.denials,
        m.net_drops, m.net_dups, m.net_corruptions, m.net_delays,
        m.churn_crashes}) {
    fnv.mix_u64(v);
  }
}

void mix_colors(net::Fnv1a& fnv,
                const std::map<core::Color, std::uint32_t>& c) {
  for (const auto& [color, count] : c) {
    fnv.mix_u64(static_cast<std::uint64_t>(color));
    fnv.mix_u64(count);
  }
}

// The message counts every workload with a Metrics block reports.
void message_counts(Sample& s, const sim::Metrics& m) {
  s.count("messages", m.messages(), "sim.messages");
  s.count("total_bits", m.total_bits, "sim.total_bits");
  s.count("pull_requests", m.pull_requests);
  s.count("pull_replies", m.pull_replies);
  if (m.pull_requests > 0) {
    s.layer["sim.useful_pull_frac"] = static_cast<double>(m.pull_replies) /
                                      static_cast<double>(m.pull_requests);
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  // One execution of the workload's fixed input; `trace` is null for an
  // untraced execution, which then installs no observer or decorator.
  virtual Sample execute(Trace* trace) = 0;
  // Once, after the memory execution: reference runs a check needs.
  virtual void prepare() {}
  // Per-layer values measured once per process, given the median untraced
  // run time.
  virtual void fixed_layer(std::map<std::string, double>& /*layer*/,
                           double /*run_s*/) const {}
};

core::RunConfig protocol_config(std::uint32_t n, std::uint64_t seed) {
  core::RunConfig cfg;
  cfg.n = n;
  cfg.gamma = 4.0;
  cfg.seed = seed;
  cfg.colors = core::split_colors(n, {0.5, 0.3, 0.2});
  cfg.num_faulty = n / 10;
  cfg.placement = sim::FaultPlacement::kRandom;
  return cfg;
}

// The checks on a synchronous Protocol P outcome, its digest and counts.
void judge_protocol(Sample& s, const core::RunResult& r) {
  if (r.failed()) s.fail("bottom outcome");
  if (r.honest_failures > 0) {
    s.fail(std::to_string(r.honest_failures) + " honest agents failed");
  }
  net::Fnv1a fnv;
  fnv.mix_u64(static_cast<std::uint64_t>(r.winner));
  fnv.mix_u64(r.winner_agent);
  fnv.mix_u64(r.rounds);
  fnv.mix_u64(r.num_active);
  fnv.mix_u64(r.honest_failures);
  fnv.mix_u64(r.max_local_memory_bits);
  fnv.mix_u64(r.events.min_votes);
  fnv.mix_u64(r.events.max_votes);
  fnv.mix_bool(r.events.k_values_distinct);
  fnv.mix_bool(r.events.find_min_agreement);
  fnv.mix_bool(r.events.every_agent_audited);
  fnv.mix_bool(r.events.every_agent_cleanly_voted);
  mix_colors(fnv, r.active_colors);
  mix_metrics(fnv, r.metrics);
  s.digest = fnv.value();
  s.count("rounds", r.rounds);
  s.count("max_local_memory_bits", r.max_local_memory_bits,
          "core.max_local_memory_bits");
  s.count("honest_failures", r.honest_failures, "core.honest_failures");
  message_counts(s, r.metrics);
}

// p-sync-16k: synchronous Protocol P, in memory.
class ProtocolSync final : public Workload {
 public:
  ProtocolSync(std::uint32_t n, std::uint64_t seed)
      : cfg_(protocol_config(n, seed)),
        params_(core::ProtocolParams::make(n, cfg_.gamma,
                                           cfg_.strict_verification)) {}

  Sample execute(Trace* trace) override {
    Sample s;
    Track* t = trace != nullptr ? &trace->main : nullptr;
    const auto t0 = Clock::now();
    std::unique_ptr<sim::Engine> engine;
    {
      Scope span(t, kSetup);
      engine = core::build_protocol_engine(cfg_);
    }
    const auto t1 = Clock::now();
    s.setup_s.push_back(seconds_between(t0, t1));
    s.setup_rss_mib = rss_mib();

    std::int64_t round_start = 0;
    if (t != nullptr) {
      engine->set_round_observer([&](const sim::Engine& e) {
        const std::int64_t now = now_ns();
        t->add(phase_span(params_.phase_of_round(e.round() - 1)),
               round_start, now);
        round_start = now;
      });
    }
    const auto t2 = Clock::now();
    core::RunResult result;
    {
      Scope span(t, kRun);
      round_start = now_ns();
      result = core::run_protocol_on(*engine, cfg_);
      if (t != nullptr) t->add(kExtract, round_start, now_ns());
    }
    s.run_s = seconds_between(t2, Clock::now());
    s.peak_rss_mib = rss_mib();
    judge_protocol(s, result);
    if (t != nullptr) probe(*engine, *t, s);
    return s;
  }

 private:
  static Name phase_span(core::Phase phase) {
    switch (phase) {
      case core::Phase::kCommitment: return kCommitment;
      case core::Phase::kVoting: return kVoting;
      case core::Phase::kFindMin: return kFindMin;
      case core::Phase::kCoherence: return kCoherence;
      case core::Phase::kFinished: return kVerify;
    }
    return kVerify;
  }

  // Times the two core:: calls the Verification and Coherence phases repeat
  // per agent, on the honest agents' end state: verify_certificate of CE_min
  // against L_u, and the deep Certificate comparison between two CE_min.
  void probe(const sim::Engine& engine, Track& t, Sample& s) const {
    constexpr std::size_t kAgents = 256;
    constexpr int kPasses = 16;
    std::vector<const core::ProtocolAgent*> honest;
    for (std::uint32_t i = 0; i < engine.n() && honest.size() < kAgents;
         ++i) {
      if (engine.is_faulty(i)) continue;
      const auto& a = static_cast<const core::ProtocolAgent&>(engine.agent(i));
      if (a.has_min_certificate()) honest.push_back(&a);
    }
    if (honest.size() < 2) {
      s.fail("probe: fewer than two honest agents hold CE_min");
      return;
    }

    std::uint64_t calls = 0;
    std::uint64_t accepted = 0;
    auto t0 = Clock::now();
    {
      Scope span(&t, kVerifyProbe);
      for (int p = 0; p < kPasses; ++p) {
        for (const core::ProtocolAgent* a : honest) {
          accepted += core::verify_certificate(params_, a->min_certificate(),
                                               a->collected_intentions())
                          .accepted();
          ++calls;
        }
      }
    }
    s.layer["core.verify_call_ns"] =
        seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(calls);
    if (accepted != calls) s.fail("probe: an honest CE_min failed to verify");

    std::uint64_t compares = 0;
    std::uint64_t equal = 0;
    t0 = Clock::now();
    {
      Scope span(&t, kCertEqProbe);
      for (int p = 0; p < kPasses; ++p) {
        for (std::size_t i = 1; i < honest.size(); ++i) {
          equal += honest[i - 1]->min_certificate() ==
                   honest[i]->min_certificate();
          ++compares;
        }
      }
    }
    s.layer["core.cert_eq_ns"] =
        seconds_between(t0, Clock::now()) * 1e9 /
        static_cast<double>(compares);
    if (equal != compares) s.fail("probe: honest agents disagree on CE_min");
  }

  core::RunConfig cfg_;
  core::ProtocolParams params_;
};

// p-async-4k: asynchronous Protocol P under poisson:queue=heap.
class ProtocolAsync final : public Workload {
 public:
  ProtocolAsync(std::uint32_t n, std::uint64_t seed) {
    cfg_.n = n;
    cfg_.gamma = 4.0;
    cfg_.slack = 80;
    cfg_.seed = seed;
    cfg_.colors = core::split_colors(n, {0.5, 0.3, 0.2});
    cfg_.scheduler = sim::SchedulerSpec::poisson_heap();
  }

  Sample execute(Trace* trace) override {
    Sample s;
    Track* t = trace != nullptr ? &trace->main : nullptr;
    // run_async_protocol builds its engine inside, so set-up is measured
    // from outside as the same call cut to a one-event budget: engine and
    // agents built, one activation, the outcome scan.
    constexpr int kSetupReps = 3;
    for (int k = 0; k < kSetupReps; ++k) {
      core::AsyncRunConfig one = cfg_;
      one.budget.events = 1;
      const auto t0 = Clock::now();
      Scope span(t, kSetup);
      (void)core::run_async_protocol(one);
      s.setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    s.setup_rss_mib = rss_mib();

    const auto t0 = Clock::now();
    core::AsyncRunResult r;
    {
      Scope span(t, kRun);
      r = core::run_async_protocol(cfg_);
    }
    s.run_s = seconds_between(t0, Clock::now());
    s.peak_rss_mib = rss_mib();

    if (r.failed()) s.fail("bottom outcome");
    net::Fnv1a fnv;
    fnv.mix_u64(static_cast<std::uint64_t>(r.winner));
    fnv.mix_u64(r.steps);
    mix_colors(fnv, r.active_colors);
    mix_metrics(fnv, r.metrics);
    s.digest = fnv.value();
    s.count("events", r.steps, "sim.events");
    message_counts(s, r.metrics);

    if (t != nullptr) {
      s.layer["sim.ns_per_event"] =
          s.run_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(
                              r.steps, 1));
      sched_probe(*t, s);
    }
    return s;
  }

 private:
  // The same scheduler spec driving trivial RumorAgents: the scheduler and
  // event-queue cost per event with Protocol P's agent work taken out.
  void sched_probe(Track& t, Sample& s) const {
    gossip::SpreadConfig sc;
    sc.n = cfg_.n;
    sc.mechanism = gossip::Mechanism::kPushPull;
    sc.seed = cfg_.seed;
    sc.scheduler = cfg_.scheduler;
    sc.max_rounds = 256ull * cfg_.n;
    const auto t0 = Clock::now();
    gossip::SpreadResult r;
    {
      Scope span(&t, kSchedProbe);
      auto engine = gossip::build_spread_engine(sc);
      r = gossip::run_rumor_spreading_on(*engine, sc);
    }
    const double wall = seconds_between(t0, Clock::now());
    if (!r.complete) s.fail("scheduler probe: spread incomplete");
    s.count("sched_probe_events", r.rounds);
    s.layer["sim.sched_probe_ns_per_event"] =
        wall * 1e9 / static_cast<double>(std::max<std::uint64_t>(r.rounds, 1));
  }

  core::AsyncRunConfig cfg_;
};

// rumor-1m: push-pull rumor spreading at a million agents.
class RumorSpread final : public Workload {
 public:
  RumorSpread(std::uint32_t n, std::uint64_t seed) {
    cfg_.n = n;
    cfg_.mechanism = gossip::Mechanism::kPushPull;
    cfg_.seed = seed;
  }

  Sample execute(Trace* trace) override {
    Sample s;
    Track* t = trace != nullptr ? &trace->main : nullptr;
    const auto t0 = Clock::now();
    std::unique_ptr<sim::Engine> engine;
    {
      Scope span(t, kSetup);
      engine = gossip::build_spread_engine(cfg_);
    }
    const auto t1 = Clock::now();
    s.setup_s.push_back(seconds_between(t0, t1));
    s.setup_rss_mib = rss_mib();

    std::int64_t round_start = 0;
    if (t != nullptr) {
      engine->set_round_observer([&](const sim::Engine&) {
        const std::int64_t now = now_ns();
        t->add(kRound, round_start, now);
        round_start = now;
      });
    }
    const auto t2 = Clock::now();
    gossip::SpreadResult r;
    {
      Scope span(t, kRun);
      round_start = now_ns();
      r = gossip::run_rumor_spreading_on(*engine, cfg_);
    }
    s.run_s = seconds_between(t2, Clock::now());
    s.peak_rss_mib = rss_mib();

    if (!r.complete) s.fail("spread incomplete");
    net::Fnv1a fnv;
    fnv.mix_bool(r.complete);
    fnv.mix_u64(r.rounds);
    mix_metrics(fnv, r.metrics);
    for (sim::AgentId u = 0; u < cfg_.n; ++u) {
      fnv.mix_bool(
          static_cast<const gossip::RumorAgent&>(engine->agent(u)).informed());
    }
    s.digest = fnv.value();
    s.count("rounds", r.rounds);
    message_counts(s, r.metrics);
    return s;
  }

 private:
  gossip::SpreadConfig cfg_;
};

// --- the TCP cluster ------------------------------------------------------

struct NodeStats {
  bool started = false;
  Clock::time_point started_at;
  double started_rss_mib = 0.0;
  std::uint64_t data_frames = 0;
  std::uint64_t sync_frames = 0;
  std::uint64_t resend_requests = 0;
  std::uint64_t bytes_out = 0;
};

// Wraps one node's transport to time it from outside.  It always records
// when start() returns (the end of the cluster's set-up); with a track it
// also records a span around every call and counts outgoing frames by kind.
class ObservedClient final : public net::CommClient,
                             private net::CommClientCallback {
 public:
  ObservedClient(net::CommClientPtr inner,
                 std::vector<net::PeerEndpoint> endpoints, NodeStats& stats,
                 Track* track)
      : inner_(std::move(inner)),
        endpoints_(std::move(endpoints)),
        stats_(stats),
        track_(track) {}

  const char* name() const noexcept override { return inner_->name(); }

  // run_local_cluster's factory path hands every node a default peer
  // table; the endpoints picked for this execution replace it.
  void start(net::NodeId self, const std::vector<net::PeerEndpoint>&,
             net::CommClientCallback& callback) override {
    callback_ = &callback;
    if (track_ != nullptr) track_->open(kNode);
    {
      Scope span(track_, kStart);
      inner_->start(self, endpoints_,
                    track_ != nullptr
                        ? static_cast<net::CommClientCallback&>(*this)
                        : callback);
    }
    stats_.started_at = Clock::now();
    stats_.started_rss_mib = rss_mib();
    stats_.started = true;
  }

  void stop() override {
    {
      Scope span(track_, kStop);
      inner_->stop();
    }
    if (track_ != nullptr && stats_.started && !stopped_) track_->close();
    stopped_ = true;
  }

  void send(net::NodeId to, const std::uint8_t* data,
            std::size_t size) override {
    if (track_ != nullptr && size > 1) {
      switch (static_cast<net::FrameKind>(data[1])) {
        case net::FrameKind::kPullRequest:
        case net::FrameKind::kPullReply:
        case net::FrameKind::kPush:
          ++stats_.data_frames;
          break;
        case net::FrameKind::kResendRequest:
          ++stats_.resend_requests;
          break;
        default:
          ++stats_.sync_frames;
          break;
      }
      stats_.bytes_out += size;
    }
    Scope span(track_, kSend);
    inner_->send(to, data, size);
  }

  std::size_t poll(int timeout_ms) override {
    Scope span(track_, kPoll);
    return inner_->poll(timeout_ms);
  }

 private:
  void on_message(net::NodeId from, const std::uint8_t* data,
                  std::size_t size) override {
    Scope span(track_, kOnMessage);
    callback_->on_message(from, data, size);
  }
  void on_peer_state(net::NodeId peer, bool connected) override {
    callback_->on_peer_state(peer, connected);
  }

  net::CommClientPtr inner_;
  std::vector<net::PeerEndpoint> endpoints_;
  NodeStats& stats_;
  Track* track_;
  net::CommClientCallback* callback_ = nullptr;
  bool stopped_ = false;
};

bool port_bindable(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  const bool ok =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

// Listening ports for one execution.  [61000, 65535) lies above Linux's
// default ephemeral range (32768-60999), so no outgoing connection holds
// them, and above the fixed ports of the CTest socket runs (18000-37000).
// The block is drawn from (pid, seed, execution) and probed, so a
// concurrent run picks another one.
std::uint16_t pick_port_base(std::uint64_t salt, std::uint32_t count) {
  constexpr std::uint32_t kLow = 61000;
  constexpr std::uint32_t kHigh = 65535;
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t draw = support::derive_seed(
        salt ^ (static_cast<std::uint64_t>(::getpid()) << 32), attempt);
    const auto base =
        static_cast<std::uint32_t>(kLow + draw % (kHigh - kLow - count));
    bool free = true;
    for (std::uint32_t i = 0; i < count && free; ++i) {
      free = port_bindable(static_cast<std::uint16_t>(base + i));
    }
    if (free) return static_cast<std::uint16_t>(base);
  }
  throw std::runtime_error("no free block of listening ports");
}

// p-cluster-tcp-4k: Protocol P as in-process nodes over the TCP mesh,
// cross-checked against the in-memory engine.
class ProtocolCluster final : public Workload {
 public:
  ProtocolCluster(std::uint32_t n, std::uint64_t seed) : seed_(seed) {
    spec_.kind = net::ClusterSpec::Kind::kProtocol;
    spec_.protocol = protocol_config(n, seed);
    spec_.num_nodes = 3;
    spec_.sync_timeout_ms = 15000;
    workload_ = net::make_cluster_workload(spec_);
  }

  // The references are computed after the memory execution so that their
  // allocations do not count in its peak RSS.  That first execution is
  // covered by the digest check instead: its digest folds in everything the
  // cross-check compares, and it must equal the digest of executions that
  // were cross-checked.
  void prepare() override {
    const auto t0 = Clock::now();
    const core::RunResult outcome = core::run_protocol(spec_.protocol);
    reference_run_s_ = seconds_between(t0, Clock::now());
    Sample probe;
    judge_protocol(probe, outcome);
    outcome_error_ = probe.error;
    max_local_memory_bits_ = outcome.max_local_memory_bits;
    honest_failures_ = outcome.honest_failures;
    reference_ = net::reference_result(spec_);
  }

  void fixed_layer(std::map<std::string, double>& layer,
                   double run_s) const override {
    layer["net.reference_run_s"] = reference_run_s_;
    layer["net.overhead_x"] = run_s / reference_run_s_;
    layer["core.max_local_memory_bits"] =
        static_cast<double>(max_local_memory_bits_);
    layer["core.honest_failures"] = static_cast<double>(honest_failures_);
  }

  Sample execute(Trace* trace) override {
    Sample s;
    const std::uint32_t k = spec_.num_nodes;
    std::vector<net::PeerEndpoint> endpoints(k);
    std::vector<NodeStats> stats(k);
    try {
      const std::uint16_t base = pick_port_base(seed_ + executions_++, k);
      for (std::uint32_t i = 0; i < k; ++i) {
        endpoints[i].port = static_cast<std::uint16_t>(base + i);
      }
    } catch (const std::exception& e) {
      s.env_failure = true;
      s.fail(e.what());
      return s;
    }
    Track* main = nullptr;
    if (trace != nullptr) {
      trace->nodes.resize(k);
      main = &trace->main;
    }
    const net::ClientFactory factory = [&](net::NodeId id) {
      return std::make_unique<ObservedClient>(
          net::make_tcp_mesh_client(), endpoints, stats[id],
          trace != nullptr ? &trace->nodes[id] : nullptr);
    };

    std::vector<net::NodeReport> reports;
    const auto t0 = Clock::now();
    try {
      if (main != nullptr) trace->cluster_span = main->open(kCluster);
      reports = net::run_local_cluster(spec_, factory);
      if (main != nullptr) main->close();
    } catch (const std::exception& e) {
      if (main != nullptr) main->close();
      s.env_failure = std::any_of(stats.begin(), stats.end(),
                                  [](const NodeStats& n) {
                                    return !n.started;
                                  });
      s.fail(std::string("cluster: ") + e.what());
      return s;
    }
    s.run_s = seconds_between(t0, Clock::now());
    s.peak_rss_mib = rss_mib();
    // Set-up ends when the slowest node's mesh is up: it covers the node
    // threads, each NodeDriver's agents, and every CommClient::start.
    Clock::time_point setup_end = t0;
    for (const NodeStats& n : stats) {
      setup_end = std::max(setup_end, n.started_at);
      s.setup_rss_mib = std::max(s.setup_rss_mib, n.started_rss_mib);
    }
    s.setup_s.push_back(seconds_between(t0, setup_end));

    const net::ClusterResult cluster = net::merge_reports(workload_, reports);
    if (!cluster.complete) s.fail("cluster run incomplete");
    if (!outcome_error_.empty()) s.fail("reference outcome: " + outcome_error_);
    if (reference_) {
      const std::string mismatch = net::cross_check(cluster, *reference_);
      if (!mismatch.empty()) s.fail("cross-check: " + mismatch);
    }
    net::Fnv1a fnv;
    fnv.mix_bool(cluster.complete);
    fnv.mix_u64(cluster.rounds);
    fnv.mix_u64(cluster.digest);
    mix_metrics(fnv, cluster.metrics);
    s.digest = fnv.value();
    s.count("rounds", cluster.rounds);
    message_counts(s, cluster.metrics);

    if (trace != nullptr) {
      std::uint64_t data = 0, sync = 0, resend = 0, bytes = 0;
      for (const NodeStats& n : stats) {
        data += n.data_frames;
        sync += n.sync_frames;
        resend += n.resend_requests;
        bytes += n.bytes_out;
      }
      s.count("data_frames", data, "net.data_frames");
      s.count("sync_frames", sync, "net.sync_frames");
      s.count("bytes_out", bytes, "net.bytes_out");
      s.layer["net.bytes_per_frame"] =
          static_cast<double>(bytes) / static_cast<double>(data + sync);
      // Resend requests answer real stalls, so they are not an exact count.
      s.layer["net.resend_requests"] = static_cast<double>(resend);
    }
    return s;
  }

 private:
  std::uint64_t seed_;
  net::ClusterSpec spec_;
  net::Workload workload_;
  std::uint64_t executions_ = 0;
  std::optional<net::ClusterResult> reference_;
  std::string outcome_error_;
  double reference_run_s_ = 0.0;
  std::uint64_t max_local_memory_bits_ = 0;
  std::uint64_t honest_failures_ = 0;
};

// --- metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/selftest.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.commitment_s", "s"},
    {"core.voting_s", "s"},
    {"core.findmin_s", "s"},
    {"core.coherence_s", "s"},
    {"core.verify_s", "s"},
    {"core.extract_s", "s"},
    {"core.verify_call_ns", "ns"},
    {"core.cert_eq_ns", "ns"},
    {"core.max_local_memory_bits", "bits"},
    {"core.honest_failures", "count"},
    {"mem.setup_rss_mib", "MiB"},
    {"mem.run_rss_growth_mib", "MiB"},
    {"sim.round_ns_per_agent", "ns"},
    {"sim.useful_pull_frac", "ratio"},
    {"sim.messages", "count"},
    {"sim.total_bits", "bits"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.sched_probe_ns_per_event", "ns"},
    {"net.send_s", "s"},
    {"net.recv_s", "s"},
    {"net.wait_s", "s"},
    {"net.compute_s", "s"},
    {"net.data_frames", "count"},
    {"net.sync_frames", "count"},
    {"net.resend_requests", "count"},
    {"net.bytes_out", "bytes"},
    {"net.bytes_per_frame", "bytes"},
    {"net.reference_run_s", "s"},
    {"net.overhead_x", "x"},
    {"trace.traced_run_s", "s"},
    {"trace.overhead_s", "s"},
};

// Per-layer values of one traced execution, from its spans and counts.
void layer_from_trace(Sample& s, std::uint32_t n) {
  const Trace& t = *s.trace;
  const std::array<double, kNumNames> self = t.self_seconds();
  auto& l = s.layer;
  l["core.commitment_s"] = self[kCommitment];
  l["core.voting_s"] = self[kVoting];
  l["core.findmin_s"] = self[kFindMin];
  l["core.coherence_s"] = self[kCoherence];
  l["core.verify_s"] = self[kVerify];
  l["core.extract_s"] = self[kExtract];
  l["net.send_s"] = self[kSend];
  l["net.recv_s"] = self[kOnMessage];
  l["net.wait_s"] = self[kPoll];
  l["net.compute_s"] = self[kNode];
  std::vector<double> round_ns;  // Protocol P and rumor rounds alike.
  for (const Span& sp : t.main.spans()) {
    if (sp.name >= kCommitment && sp.name <= kRound) {
      round_ns.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / n);
    }
  }
  l["sim.round_ns_per_agent"] = median(std::move(round_ns));
}

void print_json_metric(bool& first, const char* name, double value,
                       const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, value, unit);
  first = false;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny,
                                        std::uint32_t* n) {
  if (name == "p-sync-16k") {
    *n = tiny ? 512 : 16384;
    return std::make_unique<ProtocolSync>(*n, seed);
  }
  if (name == "p-async-4k") {
    *n = tiny ? 256 : 4096;
    return std::make_unique<ProtocolAsync>(*n, seed);
  }
  if (name == "p-cluster-tcp-4k") {
    *n = tiny ? 192 : 4096;
    return std::make_unique<ProtocolCluster>(*n, seed);
  }
  if (name == "rumor-1m") {
    *n = tiny ? 4096 : (1u << 20);
    return std::make_unique<RumorSpread>(*n, seed);
  }
  return nullptr;
}

Sample execute_guarded(Workload& w, bool traced) {
  std::optional<Trace> trace;
  if (traced) trace.emplace();
  Sample s;
  try {
    s = w.execute(trace ? &*trace : nullptr);
  } catch (const std::exception& e) {
    s.fail(e.what());
  }
  s.traced = traced;
  if (traced && s.ok) s.trace = std::move(trace);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const support::CliArgs args(argc, argv);
  const std::string name = args.get("workload", "");
  const std::uint64_t seed = args.get_uint("seed", 1);
  const double seconds = args.get_double("seconds", 10.0);
  const bool trace = args.get_uint("trace", 0) != 0;
  const bool tiny = args.get_bool("tiny");
  const std::string spans_path = args.get("spans", "");

  std::uint32_t n = 0;
  const std::unique_ptr<Workload> w = make_workload(name, seed, tiny, &n);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }

  // The memory execution, then the timed ones.
  std::vector<Sample> samples;
  samples.push_back(execute_guarded(*w, false));
  w->prepare();
  constexpr std::size_t kMinUntraced = 3;
  constexpr std::size_t kMinTraced = 2;
  std::size_t untraced = 0;
  std::size_t traced = 0;
  const auto begin = Clock::now();
  while (seconds_between(begin, Clock::now()) < seconds ||
         untraced < kMinUntraced || (trace && traced < kMinTraced)) {
    const bool traced_now = trace && traced < untraced;
    samples.push_back(execute_guarded(*w, traced_now));
    ++(traced_now ? traced : untraced);
    std::fprintf(stderr, "perfbench: %s %s execution: run %.4f s\n",
                 name.c_str(), traced_now ? "traced" : "untraced",
                 samples.back().run_s);
  }

  // Correctness: every execution ok (a transport that could not come up is
  // a failed execution, not a wrong output), one digest for the seed, and
  // the exact counts repeated within each tracing mode.
  bool correct = true;
  std::uint64_t failed = 0;
  const Sample* ref[2] = {nullptr, nullptr};
  for (const Sample& s : samples) {
    if (!s.ok) {
      ++failed;
      if (!s.env_failure) correct = false;
      std::fprintf(stderr, "perfbench: %s execution failed: %s\n",
                   name.c_str(), s.error.c_str());
      continue;
    }
    const Sample*& r = ref[s.traced ? 1 : 0];
    if (r == nullptr) r = &s;
    const Sample* any = ref[0] != nullptr ? ref[0] : ref[1];
    if (s.digest != any->digest || s.counts != r->counts) {
      correct = false;
      std::fprintf(stderr,
                   "perfbench: %s executions of seed %llu disagree "
                   "(digest %016llx vs %016llx)\n",
                   name.c_str(), static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(s.digest),
                   static_cast<unsigned long long>(any->digest));
    }
  }
  const Sample* first_ok = ref[0] != nullptr ? ref[0] : ref[1];
  if (first_ok == nullptr) correct = false;

  std::vector<double> setup_s, run_s, traced_run_s;
  std::map<std::string, std::vector<double>> layer;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    Sample& s = samples[i];
    if (!s.ok) continue;
    if (!s.traced) {
      setup_s.insert(setup_s.end(), s.setup_s.begin(), s.setup_s.end());
      run_s.push_back(s.run_s);
      continue;
    }
    traced_run_s.push_back(s.run_s);
    layer_from_trace(s, n);
    for (const auto& [k, v] : s.layer) layer[k].push_back(v);
  }

  if (first_ok != nullptr) {
    std::printf("digest %s seed=%llu %016llx\n", name.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(first_ok->digest));
    for (const Sample* r : ref) {
      if (r == nullptr) continue;
      std::printf("counts %s %s", name.c_str(),
                  r->traced ? "traced" : "untraced");
      for (const auto& [k, v] : r->counts) {
        std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
      }
      std::printf("\n");
    }
  }
  std::printf("executions %s memory=1 untraced=%zu traced=%zu\n",
              name.c_str(), untraced, traced);

  if (trace && !spans_path.empty()) {
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
      if (!it->trace) continue;
      if (!it->trace->write_tsv(spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spans_path.c_str());
      }
      break;
    }
  }

  std::map<std::string, double> values;
  const Sample& mem = samples.front();
  if (!trace) {
    values["setup_s"] = median(setup_s);
    values["run_s"] = median(run_s);
    values["peak_rss_mib"] = mem.peak_rss_mib;
  } else {
    // Metrics of layers this workload does not run stay 0.
    const double untraced_run = median(run_s);
    for (const auto& [k, v] : layer) values[k] = median(v);
    w->fixed_layer(values, untraced_run);
    values["mem.setup_rss_mib"] = mem.setup_rss_mib;
    values["mem.run_rss_growth_mib"] = mem.peak_rss_mib - mem.setup_rss_mib;
    values["trace.traced_run_s"] = median(traced_run_s);
    values["trace.overhead_s"] = median(traced_run_s) - untraced_run;
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", samples.size(),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (!trace) {
    for (const MetricDef& m : kEndToEnd) {
      print_json_metric(first, m.name, values[m.name], m.unit);
    }
  } else {
    for (const MetricDef& m : kPerLayer) {
      print_json_metric(first, m.name, values[m.name], m.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}
