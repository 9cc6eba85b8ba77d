// Key-value workloads: a CATS cluster driven through CatsClient, observed
// only at its port boundaries (PutGet, Network, Timer, Status).
//
//   tcp-rf5-mixed  6 nodes + bootstrap server, each on its own TcpNetwork
//                  (127.0.0.1, compression on), replication degree 5; an
//                  open loop at 2000 ops/s from one generator thread,
//                  50% get / 50% put.
//   loop24-read95  24 nodes over LoopbackNetwork without the codec,
//                  replication degree 3; a closed loop of 64 outstanding
//                  ops re-issued from completion callbacks, 95% get.
//
// Every put writes a 1 KiB value that embeds its op id, so each get names
// the put it observed; the per-key history is checked for linearizability
// after the run. The traced run wires benchmark-owned Network and Timer
// pass-through components between each CatsNode and its transport/timer.

#include "kv.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <typeindex>
#include <unordered_map>

#include "cats/bootstrap.hpp"
#include "cats/cats_client.hpp"
#include "cats/cats_node.hpp"
#include "cats/linearizability.hpp"
#include "cats/messages.hpp"
#include "kompics/kompics.hpp"
#include "kompics/work_stealing_scheduler.hpp"
#include "net/compression.hpp"
#include "net/loopback.hpp"
#include "net/serialization.hpp"
#include "net/tcp_network.hpp"
#include "timing/thread_timer.hpp"

namespace perfbench {
namespace {

using namespace kompics;
using namespace kompics::cats;
using net::Address;

/// Write end of the pipe to the parent while running as a set-up child
/// process (-1 otherwise). progress() reports each phase as it starts, so a
/// child killed for overrunning its budget still says where it was.
int g_progress_fd = -1;

void progress(const char* phase) {
  if (g_progress_fd < 0) return;
  const std::string line = std::string("phase\t") + phase + "\n";
  [[maybe_unused]] const ssize_t n = ::write(g_progress_fd, line.data(), line.size());
}

// ---------------------------------------------------------------------------
// Workload parameters
// ---------------------------------------------------------------------------

struct KvSpec {
  bool tcp = false;         ///< TcpNetwork + compression, else LoopbackNetwork fast path
  std::size_t nodes = 0;
  bool open_loop = false;
  double rate = 0;          ///< open loop: ops/s from one generator thread
  std::size_t window = 0;   ///< closed loop: outstanding ops
  double get_share = 0;
  std::size_t keys = 1024;
  std::size_t setups = 3;   ///< set-ups per run; setup_s is their median
  std::uint64_t hop_sample = 1;  ///< traced run: log net hops of every n-th ABD op
  CatsParams params;
};

KvSpec spec_for(const std::string& name, bool smoke) {
  KvSpec s;
  if (name == "tcp-rf5-mixed") {
    s.tcp = true;
    s.nodes = 6;
    s.open_loop = true;
    s.rate = 2000;
    s.get_share = 0.5;
    // The E1 deployment's knobs (bench/bench_e1_latency.cpp): the paper's
    // replication degree 5 with 200 ms maintenance periods.
    s.params.replication_degree = 5;
    s.params.stabilization_period_ms = 200;
    s.params.shuffle_period_ms = 200;
    s.params.fd_ping_period_ms = 200;
    s.params.fd_initial_timeout_ms = 1000;
    s.params.op_timeout_ms = 2000;
    s.params.keepalive_period_ms = 500;
    s.params.bootstrap_eviction_ms = 5000;
  } else {
    s.nodes = 24;
    s.window = 64;
    // Throughput differs by up to 20% between set-ups on a quiet host, for
    // the whole of each window, so a run averages five.
    s.setups = 5;
    s.get_share = 0.95;
    s.hop_sample = 8;
    // The E2 deployment's knobs (bench/bench_e2_scaling.cpp).
    s.params.replication_degree = 3;
    s.params.stabilization_period_ms = 500;
    s.params.shuffle_period_ms = 500;
    s.params.fd_ping_period_ms = 500;
    s.params.fd_initial_timeout_ms = 2000;
    s.params.op_timeout_ms = 4000;
    s.params.keepalive_period_ms = 1000;
    s.params.bootstrap_eviction_ms = 10000;
  }
  if (smoke) s.setups = 1;
  return s;
}

std::size_t quorum_of(const KvSpec& s) {
  return std::min(s.params.replication_degree, s.nodes) / 2 + 1;
}

// ---------------------------------------------------------------------------
// Seeded values that name the op that wrote them
// ---------------------------------------------------------------------------

constexpr std::size_t kValueBytes = 1024;
constexpr std::size_t kChunk = 16;
constexpr std::uint32_t kMagic = 0x31564250;  // "PBV1"

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 16-byte header (op id, magic, seed tag) and 63 chunks drawn from eight
/// per-op random chunks: compressible like real payloads, unique per op.
void fill_value(std::uint64_t seed, std::uint32_t op, std::uint8_t* out) {
  const std::uint64_t tag = splitmix(seed);
  std::memcpy(out, &op, 4);
  std::memcpy(out + 4, &kMagic, 4);
  std::memcpy(out + 8, &tag, 8);
  std::uint64_t state = splitmix(seed ^ (static_cast<std::uint64_t>(op) * 0xd6e8feb86659fd93ULL));
  std::array<std::array<std::uint8_t, kChunk>, 8> pool{};
  for (auto& c : pool) {
    const std::uint64_t a = splitmix(state++);
    const std::uint64_t b = splitmix(state++);
    std::memcpy(c.data(), &a, 8);
    std::memcpy(c.data() + 8, &b, 8);
  }
  std::uint64_t pick = splitmix(state++);
  for (std::size_t i = 1; i < kValueBytes / kChunk; ++i) {
    if (i % 21 == 0) pick = splitmix(state++);
    std::memcpy(out + i * kChunk, pool[pick & 7].data(), kChunk);
    pick >>= 3;
  }
}

Value make_value(std::uint64_t seed, std::uint32_t op) {
  Value v(kValueBytes);
  fill_value(seed, op, v.data());
  return v;
}

/// True when `v` is byte for byte the value fill_value wrote for the op id
/// it carries; sets *op to that id.
bool check_value(std::uint64_t seed, const Value& v, std::uint32_t* op) {
  if (v.size() != kValueBytes) return false;
  std::uint32_t id = 0;
  std::memcpy(&id, v.data(), 4);
  std::array<std::uint8_t, kValueBytes> expect{};
  fill_value(seed, id, expect.data());
  if (std::memcmp(expect.data(), v.data(), kValueBytes) != 0) return false;
  *op = id;
  return true;
}

// ---------------------------------------------------------------------------
// Client-side history
// ---------------------------------------------------------------------------

struct OpSlot {
  std::uint64_t due_ns = 0;
  std::uint64_t invoke_ns = 0;
  std::uint64_t respond_ns = 0;
  std::uint32_t key = 0;       ///< key index
  std::uint32_t observed = 0;  ///< get: op id of the put whose value it returned
  std::uint16_t node = 0;      ///< client (= coordinator) index
  bool is_put = false;
  bool done = false;
  bool ok = false;
  bool found = false;
  bool bad_value = false;
};

/// Append-only op table that several threads allocate from. Chunks never
/// move, so a slot reference stays valid while other threads grow the table.
class History {
 public:
  static constexpr std::size_t kChunkBits = 16;
  static constexpr std::size_t kChunks = 4096;

  std::uint32_t alloc() {
    const std::uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t c = id >> kChunkBits;
    if (c >= kChunks) throw std::runtime_error("history full");
    if (chunks_[c].load(std::memory_order_acquire) == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
        owned_.push_back(std::make_unique<OpSlot[]>(std::size_t{1} << kChunkBits));
        chunks_[c].store(owned_.back().get(), std::memory_order_release);
      }
    }
    return id;
  }
  OpSlot& at(std::uint32_t id) {
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & ((std::size_t{1} << kChunkBits) - 1)];
  }
  std::uint32_t size() const { return next_.load(std::memory_order_acquire); }
  /// Memory the table holds, all of it resident: chunks are zeroed when
  /// allocated.
  double resident_mb() {
    std::lock_guard<std::mutex> g(mu_);
    return static_cast<double>(owned_.size() * (std::size_t{1} << kChunkBits) * sizeof(OpSlot)) /
           (1024.0 * 1024.0);
  }

 private:
  std::atomic<std::uint32_t> next_{0};
  std::array<std::atomic<OpSlot*>, kChunks> chunks_{};
  std::mutex mu_;
  std::vector<std::unique_ptr<OpSlot[]>> owned_;
};

struct OpDesc {
  std::uint32_t key = 0;
  std::uint16_t node = 0;
  bool put = false;
};

std::vector<OpDesc> generate_ops(const KvSpec& s, std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(splitmix(seed ^ 0x6f70735f67656eULL));
  std::vector<OpDesc> ops(n);
  for (auto& op : ops) {
    op.key = static_cast<std::uint32_t>(rng() % s.keys);
    op.node = static_cast<std::uint16_t>(rng() % s.nodes);
    op.put = static_cast<double>(rng() % 1000000) >= s.get_share * 1e6;
  }
  return ops;
}

struct LinCheck {
  bool ok = true;
  std::string why;
  double ms = 0;
};

/// Splits the history by key and runs the Wing & Gong checker on each. A
/// get that returned bytes no put wrote fails the check outright.
LinCheck check_linearizable(History& h, std::size_t keys) {
  LinCheck out;
  const std::uint64_t t0 = now_ns();
  const std::uint32_t n = h.size();
  std::vector<std::vector<LinOp>> per_key(keys);
  for (std::uint32_t id = 0; id < n; ++id) {
    const OpSlot& s = h.at(id);
    if (s.invoke_ns == 0) continue;
    if (s.bad_value) {
      out.ok = false;
      out.why = "get op " + std::to_string(id) + " returned bytes no put wrote";
      return out;
    }
    if (!s.is_put && s.done && s.ok && s.found) {
      if (s.observed >= n || !h.at(s.observed).is_put || h.at(s.observed).key != s.key) {
        out.ok = false;
        out.why = "get op " + std::to_string(id) + " returned the value of op " +
                  std::to_string(s.observed) + ", which is not a put of the same key";
        return out;
      }
    }
    LinOp op;
    op.is_put = s.is_put;
    op.invoked = static_cast<std::int64_t>(s.invoke_ns);
    const bool completed = s.done && s.ok;
    op.responded = completed ? static_cast<std::int64_t>(s.respond_ns) : -1;
    op.optional = !completed;
    if (s.is_put) {
      op.value = id;
    } else if (completed && s.found) {
      op.value = s.observed;
    }
    if (!s.is_put && !completed) continue;  // a failed get constrains nothing
    per_key[s.key].push_back(op);
  }
  for (std::size_t k = 0; k < keys; ++k) {
    if (per_key[k].empty()) continue;
    LinResult r = check_register_history(std::move(per_key[k]));
    if (!r.linearizable) {
      out.ok = false;
      out.why = "key " + std::to_string(k) + ": " + r.explanation;
      break;
    }
  }
  out.ms = static_cast<double>(now_ns() - t0) / 1e6;
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: pass-through components on the Network and Timer ports
// ---------------------------------------------------------------------------

enum MsgKind : std::uint8_t {
  kAbdRead,
  kAbdReadAck,
  kAbdWrite,
  kAbdWriteAck,
  kAbdNack,
  kLookup,
  kLookupResult,
  kView,
  kMaint,
  kOther,
  kKinds
};

MsgKind classify(const net::Message& m) {
  static const std::unordered_map<std::type_index, MsgKind> table = {
      {typeid(AbdReadMsg), kAbdRead},
      {typeid(AbdReadAckMsg), kAbdReadAck},
      {typeid(AbdWriteMsg), kAbdWrite},
      {typeid(AbdWriteAckMsg), kAbdWriteAck},
      {typeid(AbdNackMsg), kAbdNack},
      {typeid(RouteLookupMsg), kLookup},
      {typeid(LookupResultMsg), kLookupResult},
      {typeid(ViewPrepareMsg), kView},
      {typeid(ViewPromiseMsg), kView},
      {typeid(ViewAcceptMsg), kView},
      {typeid(ViewAcceptedMsg), kView},
      {typeid(ViewInstallMsg), kView},
      {typeid(ViewInstallAckMsg), kView},
      {typeid(ViewFetchMsg), kView},
      {typeid(PingMsg), kMaint},
      {typeid(PongMsg), kMaint},
      {typeid(ShuffleRequestMsg), kMaint},
      {typeid(ShuffleResponseMsg), kMaint},
      {typeid(FindSuccessorMsg), kMaint},
      {typeid(FoundSuccessorMsg), kMaint},
      {typeid(GetRingStateMsg), kMaint},
      {typeid(RingStateMsg), kMaint},
      {typeid(NotifyMsg), kMaint},
      {typeid(KeepAliveMsg), kMaint},
      {typeid(BootstrapRequestMsg), kMaint},
      {typeid(BootstrapResponseMsg), kMaint},
  };
  auto it = table.find(typeid(m));
  return it == table.end() ? kOther : it->second;
}

/// Wire op id of an ABD phase message (internal id * 16 + attempt).
std::optional<OpId> abd_wire_op(const net::Message& m, MsgKind k) {
  switch (k) {
    case kAbdRead:
      return static_cast<const AbdReadMsg&>(m).op;
    case kAbdReadAck:
      return static_cast<const AbdReadAckMsg&>(m).op;
    case kAbdWrite:
      return static_cast<const AbdWriteMsg&>(m).op;
    case kAbdWriteAck:
      return static_cast<const AbdWriteAckMsg&>(m).op;
    case kAbdNack:
      return static_cast<const AbdNackMsg&>(m).op;
    default:
      return std::nullopt;
  }
}

/// Coordinator-side timeline of one ABD op, as seen on its node's Network.
struct PhaseRec {
  RingKey key = 0;
  std::uint8_t attempt = 0;
  bool retried = false;
  std::uint8_t read_acks = 0;
  std::uint8_t write_acks = 0;
  std::uint64_t first_read_send = 0;
  std::uint64_t read_quorum = 0;
  std::uint64_t first_write_send = 0;
  std::uint64_t write_quorum = 0;
};

/// One end of a network hop (sender-side send or receiver-side delivery).
struct HopEnd {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  OpId op = 0;
  std::uint64_t t_ns = 0;
  std::uint8_t kind = 0;
};

struct TapControl {
  std::atomic<bool> recording{false};
};

/// Network pass-through between a CatsNode and its transport. State is
/// touched only by its own handlers (component mutual exclusion) and read
/// after the scheduler has stopped.
class NetTap : public ComponentDefinition {
 public:
  NetTap(const TapControl* control, std::size_t quorum, std::uint64_t hop_sample,
         std::uint64_t rng_seed)
      : control_(control), quorum_(quorum), hop_sample_(hop_sample), rng_(rng_seed) {
    subscribe<net::Message>(up_, [this](const net::Message& m) {
      on_send(m);
      trigger(current_event(), down_);
    });
    subscribe<net::Message>(down_, [this](const net::Message& m) {
      on_recv(m);
      trigger(current_event(), up_);
    });
  }

  static constexpr std::size_t kReservoir = 1024;

  std::unordered_map<OpId, PhaseRec> phases;  ///< by ABD internal op id
  std::vector<HopEnd> sends, recvs;
  std::array<std::uint64_t, kKinds> sent{};
  std::vector<net::MessagePtr> reservoir;  ///< uniform sample of sent messages

 private:
  bool recording() const { return control_->recording.load(std::memory_order_relaxed); }

  void log_hop(std::vector<HopEnd>& v, const net::Message& m, MsgKind k, OpId op,
               std::uint64_t t) {
    if ((op / 16) % hop_sample_ != 0) return;
    v.push_back(HopEnd{m.source().key(), m.destination().key(), op, t, k});
  }

  void on_send(const net::Message& m) {
    if (!recording()) return;
    const std::uint64_t t = now_ns();
    const MsgKind k = classify(m);
    ++sent[k];
    ++seen_;
    if (reservoir.size() < kReservoir) {
      reservoir.push_back(current_event_as<net::Message>());
    } else if (const std::uint64_t j = rng_() % seen_; j < kReservoir) {
      reservoir[j] = current_event_as<net::Message>();
    }
    const auto wire = abd_wire_op(m, k);
    if (!wire) return;
    log_hop(sends, m, k, *wire, t);
    if (k != kAbdRead && k != kAbdWrite) return;
    PhaseRec& p = phases[*wire / 16];
    const auto attempt = static_cast<std::uint8_t>(*wire % 16);
    if (k == kAbdRead) {
      p.key = static_cast<const AbdReadMsg&>(m).key;
    } else {
      p.key = static_cast<const AbdWriteMsg&>(m).key;
    }
    if (attempt != p.attempt) {
      p.attempt = attempt;
      p.retried = true;
    }
    if (attempt != 0) p.retried = true;
    if (k == kAbdRead && p.first_read_send == 0) p.first_read_send = t;
    if (k == kAbdWrite && p.first_write_send == 0) p.first_write_send = t;
  }

  void on_recv(const net::Message& m) {
    if (!recording()) return;
    const std::uint64_t t = now_ns();
    const MsgKind k = classify(m);
    const auto wire = abd_wire_op(m, k);
    if (!wire) return;
    log_hop(recvs, m, k, *wire, t);
    if (k != kAbdReadAck && k != kAbdWriteAck) return;
    auto it = phases.find(*wire / 16);
    if (it == phases.end() || it->second.attempt != *wire % 16) return;
    PhaseRec& p = it->second;
    if (k == kAbdReadAck && p.read_quorum == 0 && ++p.read_acks == quorum_) p.read_quorum = t;
    if (k == kAbdWriteAck && p.write_quorum == 0 && ++p.write_acks == quorum_) {
      p.write_quorum = t;
    }
  }

  Negative<net::Network> up_ = provide<net::Network>();
  Positive<net::Network> down_ = require<net::Network>();
  const TapControl* control_;
  std::size_t quorum_;
  std::uint64_t hop_sample_;
  std::mt19937_64 rng_;
  std::uint64_t seen_ = 0;
};

/// Timer pass-through: learns each timeout's due time from the request and
/// measures how late its indication arrives.
class TimerTap : public ComponentDefinition {
 public:
  explicit TimerTap(const TapControl* control) : control_(control) {
    using namespace kompics::timing;
    subscribe<ScheduleTimeout>(up_, [this](const ScheduleTimeout& r) {
      due_[r.timeout_id()] = Due{now_ns() + static_cast<std::uint64_t>(r.delay_ms()) * 1000000, 0};
      trigger(current_event(), down_);
    });
    subscribe<SchedulePeriodicTimeout>(up_, [this](const SchedulePeriodicTimeout& r) {
      due_[r.timeout_id()] =
          Due{now_ns() + static_cast<std::uint64_t>(r.initial_delay_ms()) * 1000000,
              static_cast<std::uint64_t>(r.period_ms()) * 1000000};
      trigger(current_event(), down_);
    });
    subscribe<CancelTimeout>(up_, [this](const CancelTimeout& r) {
      due_.erase(r.id());
      trigger(current_event(), down_);
    });
    subscribe<Timeout>(down_, [this](const Timeout& t) {
      const std::uint64_t now = now_ns();
      auto it = due_.find(t.id());
      if (it != due_.end()) {
        if (control_->recording.load(std::memory_order_relaxed)) {
          ++fires;
          late_us.push_back(now > it->second.at ? static_cast<double>(now - it->second.at) / 1e3
                                                : 0.0);
        }
        if (it->second.period != 0) {
          it->second.at += it->second.period;
        } else {
          due_.erase(it);
        }
      }
      trigger(current_event(), up_);
    });
  }

  std::uint64_t fires = 0;
  std::vector<double> late_us;

 private:
  struct Due {
    std::uint64_t at = 0;
    std::uint64_t period = 0;
  };
  Negative<timing::Timer> up_ = provide<timing::Timer>();
  Positive<timing::Timer> down_ = require<timing::Timer>();
  const TapControl* control_;
  std::unordered_map<timing::TimeoutId, Due> due_;
};

/// Reads ConsistentABD's Status counters (view changes, retries) so a run
/// can say what the protocol did inside the window.
class StatusProbe : public ComponentDefinition {
 public:
  StatusProbe() {
    subscribe<StatusResponse>(status_, [this](const StatusResponse& r) {
      std::lock_guard<std::mutex> g(mu_);
      fields_ = r.fields;
      ++responses_;
    });
  }
  void request() { trigger(make_event<StatusRequest>(0), status_); }
  std::uint64_t responses() const {
    std::lock_guard<std::mutex> g(mu_);
    return responses_;
  }
  std::uint64_t field(const std::string& name) const {
    std::lock_guard<std::mutex> g(mu_);
    auto it = fields_.find(name);
    return it == fields_.end() ? 0 : std::stoull(it->second);
  }

 private:
  Positive<Status> status_ = require<Status>();
  mutable std::mutex mu_;
  std::map<std::string, std::string> fields_;
  std::uint64_t responses_ = 0;
};

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

struct Plan {
  const KvSpec* spec = nullptr;
  bool traced = false;
  const TapControl* taps = nullptr;
  Address boot;
  std::vector<Address> addrs;
  std::uint64_t seed = 0;
};

class Machine : public ComponentDefinition {
 public:
  Machine(const Plan& plan, std::size_t index, const net::LoopbackHubPtr& hub) {
    const KvSpec& s = *plan.spec;
    const Address self = plan.addrs[index];
    if (s.tcp) {
      net = create<net::TcpNetwork>();
      net::TcpNetwork::Options o;
      o.compress = true;
      trigger(make_event<net::TcpNetwork::Init>(self, o), net.control());
    } else {
      net = create<net::LoopbackNetwork>();
      trigger(make_event<net::LoopbackNetwork::Init>(self, hub), net.control());
    }
    timer = create<timing::ThreadTimer>();
    const RingKey ring_key = static_cast<RingKey>(index) * (~0ULL / static_cast<RingKey>(s.nodes));
    node = create<CatsNode>(NodeRef{ring_key, self}, plan.boot, Address{}, s.params);
    client = create<CatsClient>();
    if (plan.traced) {
      net_tap = create<NetTap>(plan.taps, quorum_of(s), s.hop_sample, plan.seed + index);
      timer_tap = create<TimerTap>(plan.taps);
      connect(node.required<net::Network>(), net_tap.provided<net::Network>());
      connect(net_tap.required<net::Network>(), net.provided<net::Network>());
      connect(node.required<timing::Timer>(), timer_tap.provided<timing::Timer>());
      connect(timer_tap.required<timing::Timer>(), timer.provided<timing::Timer>());
    } else {
      connect(node.required<net::Network>(), net.provided<net::Network>());
      connect(node.required<timing::Timer>(), timer.provided<timing::Timer>());
    }
    connect(node.provided<PutGet>(), client.required<PutGet>());
    probe = create<StatusProbe>();
    connect(node.definition_as<CatsNode>().abd.provided<Status>(), probe.required<Status>());
  }
  Component net, timer, node, client, net_tap, timer_tap, probe;
};

class ClusterMain : public ComponentDefinition {
 public:
  explicit ClusterMain(const Plan& plan) {
    auto hub = std::make_shared<net::LoopbackHub>();
    if (plan.spec->tcp) {
      boot_net = create<net::TcpNetwork>();
      trigger(make_event<net::TcpNetwork::Init>(plan.boot), boot_net.control());
    } else {
      boot_net = create<net::LoopbackNetwork>();
      trigger(make_event<net::LoopbackNetwork::Init>(plan.boot, hub), boot_net.control());
    }
    boot_timer = create<timing::ThreadTimer>();
    boot_server = create<BootstrapServer>();
    trigger(make_event<BootstrapServer::Init>(plan.boot, plan.spec->params),
            boot_server.control());
    connect(boot_server.required<net::Network>(), boot_net.provided<net::Network>());
    connect(boot_server.required<timing::Timer>(), boot_timer.provided<timing::Timer>());
    for (std::size_t i = 0; i < plan.addrs.size(); ++i) {
      machines.push_back(create<Machine>(plan, i, hub));
    }
  }
  Component boot_net, boot_timer, boot_server;
  std::vector<Component> machines;
};

/// Free 127.0.0.1 ports, probed by binding *without* SO_REUSEADDR: a port
/// still held by a TIME_WAIT socket of an earlier run fails the probe and is
/// skipped, so back-to-back runs never collide with their predecessors.
std::vector<std::uint16_t> pick_ports(std::size_t n, std::uint64_t salt) {
  constexpr std::uint16_t kLo = 20000, kSpan = 12000;
  std::uint64_t cursor = splitmix(salt ^ static_cast<std::uint64_t>(::getpid()) ^ now_ns());
  std::vector<std::uint16_t> ports;
  for (std::size_t tries = 0; ports.size() < n && tries < kSpan; ++tries) {
    const auto port = static_cast<std::uint16_t>(kLo + (cursor++ % kSpan));
    if (std::find(ports.begin(), ports.end(), port) != ports.end()) continue;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in a{};
    a.sin_family = AF_INET;
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    a.sin_port = htons(port);
    const bool free = ::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof(a)) == 0;
    ::close(fd);
    if (free) ports.push_back(port);
  }
  if (ports.size() < n) throw std::runtime_error("no free loopback ports");
  return ports;
}

/// Drives one booted cluster: issues ops, records their history.
class Driver {
 public:
  Driver(const KvSpec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {
    ring_keys_.reserve(spec.keys);
    for (std::size_t k = 0; k < spec.keys; ++k) {
      ring_keys_.push_back(hash_to_ring("pb-key-" + std::to_string(k)));
    }
  }

  void attach(std::vector<CatsClient*> clients) { clients_ = std::move(clients); }

  History history;

  std::uint32_t issue(const OpDesc& d, std::uint64_t due_ns) {
    const std::uint32_t id = history.alloc();
    OpSlot& s = history.at(id);
    s.key = d.key;
    s.node = d.node;
    s.is_put = d.put;
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    CatsClient* c = clients_[d.node];
    if (d.put) {
      Value v = make_value(seed_, id);
      s.invoke_ns = now_ns();
      s.due_ns = due_ns != 0 ? due_ns : s.invoke_ns;
      c->put(ring_keys_[d.key], std::move(v), [this, id](bool ok) { complete(id, ok, false, nullptr); });
    } else {
      s.invoke_ns = now_ns();
      s.due_ns = due_ns != 0 ? due_ns : s.invoke_ns;
      c->get(ring_keys_[d.key], [this, id](bool ok, bool found, const Value& v) {
        complete(id, ok, found, &v);
      });
    }
    return id;
  }

  /// Closed loop: every completion issues the next pre-generated op until
  /// stop_closed_loop().
  void start_closed_loop(const std::vector<OpDesc>* pool, std::size_t window) {
    pool_ = pool;
    closed_.store(true, std::memory_order_release);
    for (std::size_t i = 0; i < window; ++i) issue_next();
  }
  void stop_closed_loop() { closed_.store(false, std::memory_order_release); }

  std::int64_t outstanding() const { return outstanding_.load(std::memory_order_acquire); }

  bool drain(double timeout_s) {
    const std::uint64_t t0 = now_ns();
    while (outstanding() > 0) {
      if (seconds_since(t0) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return true;
  }

  /// Puts every key once (up to 64 in flight), repeating failed puts until
  /// all are stored or `timeout_s` passes.
  bool seed_keys(double timeout_s) {
    const std::uint64_t t0 = now_ns();
    std::vector<std::uint32_t> pending(spec_.keys);
    for (std::size_t k = 0; k < spec_.keys; ++k) pending[k] = static_cast<std::uint32_t>(k);
    while (!pending.empty() && seconds_since(t0) < timeout_s) {
      std::vector<std::uint32_t> ids;
      for (std::uint32_t k : pending) {
        while (outstanding() >= 64) std::this_thread::sleep_for(std::chrono::microseconds(50));
        ids.push_back(issue(OpDesc{k, static_cast<std::uint16_t>(k % spec_.nodes), true}, 0));
      }
      if (!drain(timeout_s)) return false;
      std::vector<std::uint32_t> again;
      for (std::uint32_t id : ids) {
        if (!history.at(id).ok) again.push_back(history.at(id).key);
      }
      seed_failures += again.size();
      pending = std::move(again);
    }
    return pending.empty();
  }

  std::uint64_t seed_failures = 0;

 private:
  void complete(std::uint32_t id, bool ok, bool found, const Value* v) {
    OpSlot& s = history.at(id);
    s.respond_ns = now_ns();
    s.ok = ok;
    s.done = true;
    if (!s.is_put && ok) {
      s.found = found;
      if (found) {
        std::uint32_t op = 0;
        if (check_value(seed_, *v, &op)) {
          s.observed = op;
        } else {
          s.bad_value = true;
        }
      }
    }
    if (closed_.load(std::memory_order_acquire)) issue_next();
    outstanding_.fetch_sub(1, std::memory_order_release);
  }

  void issue_next() {
    const std::uint64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    issue((*pool_)[i % pool_->size()], 0);
  }

  const KvSpec& spec_;
  std::uint64_t seed_;
  std::vector<RingKey> ring_keys_;
  std::vector<CatsClient*> clients_;
  std::atomic<std::int64_t> outstanding_{0};
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> cursor_{0};
  const std::vector<OpDesc>* pool_ = nullptr;
};

/// One booted cluster and the runtime that runs it.
struct Cluster {
  std::unique_ptr<Runtime> runtime;
  ClusterMain* main = nullptr;
  TapControl taps;
  double setup_s = 0;
  double ready_s = 0;  ///< part of setup_s until every node was ready

  std::vector<Machine*> machines() const {
    std::vector<Machine*> out;
    for (auto& m : main->machines) out.push_back(&m.definition_as<Machine>());
    return out;
  }
  void stop() {
    if (runtime) runtime->shutdown();
  }
};

/// Boots the cluster and seeds every key; setup_s covers both.
std::unique_ptr<Cluster> boot_cluster(const KvSpec& spec, std::uint64_t seed, bool traced,
                                      Driver& driver, std::uint64_t salt) {
  progress("booting");
  const std::uint64_t t0 = now_ns();
  auto c = std::make_unique<Cluster>();
  Plan plan;
  plan.spec = &spec;
  plan.traced = traced;
  plan.taps = &c->taps;
  plan.seed = seed;
  if (spec.tcp) {
    const auto ports = pick_ports(spec.nodes + 1, seed * 31 + salt);
    plan.boot = Address::loopback(ports[0]);
    for (std::size_t i = 0; i < spec.nodes; ++i) plan.addrs.push_back(Address::loopback(ports[i + 1]));
  } else {
    plan.boot = Address::node(1);
    for (std::size_t i = 0; i < spec.nodes; ++i) {
      plan.addrs.push_back(Address::node(static_cast<std::uint32_t>(10 + i)));
    }
  }
  Config config;
  if (traced) config.set("telemetry.metrics", true);
  c->runtime = Runtime::threaded(config);
  c->main = &c->runtime->bootstrap<ClusterMain>(plan).definition_as<ClusterMain>();
  std::vector<CatsClient*> clients;
  for (Machine* m : c->machines()) clients.push_back(&m->client.definition_as<CatsClient>());
  driver.attach(std::move(clients));

  for (;;) {
    std::size_t ready = 0;
    for (Machine* m : c->machines()) ready += m->node.definition_as<CatsNode>().ready() ? 1 : 0;
    if (ready == spec.nodes) break;
    if (seconds_since(t0) > 90) throw std::runtime_error("cluster did not become ready in 90 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  c->ready_s = seconds_since(t0);
  progress("seeding");
  if (!driver.seed_keys(120)) throw std::runtime_error("seeding the keys failed within 120 s");
  c->setup_s = seconds_since(t0);
  return c;
}

// ---------------------------------------------------------------------------
// Snapshots of the layers' own counters around the window
// ---------------------------------------------------------------------------

struct Counters {
  WorkStealingScheduler::Stats sched{};
  net::TcpNetwork::Counters tcp{};
  Usage usage{};
  std::uint64_t views = 0;    ///< reconfigurations proposed + views installed
  std::uint64_t retries = 0;  ///< ABD op retries
  std::map<std::string, double> busy_ns;  ///< handler time by component kind
};

std::string component_kind(const std::string& mangled) {
  static const std::vector<std::pair<const char*, const char*>> kinds = {
      {"ConsistentABD", "abd"},     {"OneHopRouter", "router"},   {"CatsRing", "ring"},
      {"PingFailureDetector", "fd"}, {"CyclonOverlay", "cyclon"}, {"BootstrapClient", "bootstrap"},
      {"BootstrapServer", "bootstrap"}, {"CatsClient", "client"}, {"TcpNetwork", "net"},
      {"LoopbackNetwork", "net"},   {"ThreadTimer", "timer"},     {"NetTap", "tap"},
      {"TimerTap", "tap"},          {"CatsNode", "node"},
  };
  for (const auto& [needle, kind] : kinds) {
    if (mangled.find(needle) != std::string::npos) return kind;
  }
  return "other";
}

void collect_busy(const ComponentCore& core, std::map<std::string, double>& out) {
  if (const auto* st = core.telemetry_stats()) {
    out[component_kind(core.name())] += static_cast<double>(st->handler_ns.snapshot().sum_ns);
  }
  for (const auto& child : core.children()) collect_busy(*child, out);
}

/// Asks every node's ABD for its Status counters and waits for the replies.
void read_status(Cluster& c, std::uint64_t* views, std::uint64_t* retries) {
  std::vector<std::pair<StatusProbe*, std::uint64_t>> probes;
  for (Machine* m : c.machines()) {
    auto* p = &m->probe.definition_as<StatusProbe>();
    probes.emplace_back(p, p->responses());
    p->request();
  }
  const std::uint64_t t0 = now_ns();
  *views = *retries = 0;
  for (auto& [p, before] : probes) {
    while (p->responses() == before && seconds_since(t0) < 5) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *views += p->field("reconfigs_proposed") + p->field("views_installed");
    *retries += p->field("retries");
  }
}

Counters snapshot(Cluster& c, bool traced) {
  Counters k;
  if (auto* ws = dynamic_cast<WorkStealingScheduler*>(&c.runtime->scheduler())) k.sched = ws->stats();
  if (c.main->boot_net && dynamic_cast<net::TcpNetwork*>(c.main->boot_net.core()->definition())) {
    std::vector<net::TcpNetwork*> nets = {&c.main->boot_net.definition_as<net::TcpNetwork>()};
    for (Machine* m : c.machines()) nets.push_back(&m->net.definition_as<net::TcpNetwork>());
    for (auto* n : nets) {
      const auto t = n->counters();
      k.tcp.messages_sent += t.messages_sent;
      k.tcp.bytes_sent += t.bytes_sent;
      k.tcp.send_failures += t.send_failures;
      k.tcp.reconnects += t.reconnects;
    }
  }
  read_status(c, &k.views, &k.retries);
  if (traced) collect_busy(*c.runtime->root().core(), k.busy_ns);
  k.usage = process_usage();
  return k;
}

// ---------------------------------------------------------------------------
// One measured window
// ---------------------------------------------------------------------------

/// Closed-loop figures are taken per slice of this length, after a warm-up
/// of this length.
constexpr std::uint64_t kSliceNs = 500000000;
constexpr std::uint64_t kWarmupNs = 1000000000;

struct Window {
  std::uint64_t t0 = 0, t_end = 0, drained = 0;
  /// Closed loop: share of the machine's CPU in each slice of the window that
  /// the hypervisor stole, and that the host took from this process in all
  /// (stolen or used by other processes).
  std::vector<double> steal, interference;
  std::vector<std::uint32_t> ops;  ///< ids of the ops issued in the window
  /// Completed-ok ops per second: closed loop, completions inside [t0, t_end];
  /// open loop, the window's ops over the time from t0 to the last of them
  /// completing (a schedule that a stall pushes past t_end reads lower).
  double achieved_per_s = 0;
  /// Peak resident memory up to the end of the load, less the op history,
  /// whose size grows with throughput and is the benchmark's, not the
  /// system's. Taken before the drain and the history check allocate.
  double rss_mb = 0;
  Counters before, after;
  std::vector<double> run_queue_depth;
  bool drained_ok = true;
};

/// Runs the load for `seconds`. The open loop issues ops[first_op...] on
/// schedule; the closed loop cycles through the whole pool.
Window measure(Cluster& c, Driver& d, const KvSpec& spec, double seconds,
               const std::vector<OpDesc>& ops, std::size_t first_op, bool traced) {
  progress("measuring");
  Window w;
  if (!spec.open_loop) {
    // The loop's first second after seeding runs below its pace; it is not
    // measured.
    d.start_closed_loop(&ops, spec.window);
    std::this_thread::sleep_for(std::chrono::nanoseconds(kWarmupNs));
  }
  w.before = snapshot(c, traced);
  std::atomic<bool> sampling{traced};
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      while (sampling.load(std::memory_order_relaxed)) {
        w.run_queue_depth.push_back(static_cast<double>(c.runtime->scheduler().run_queue_depth()));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  c.taps.recording.store(true);
  const auto window_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint32_t first_id = d.history.size();
  if (spec.open_loop) {
    w.t0 = now_ns() + 1000000;
    w.t_end = w.t0 + window_ns;
    const double gap_ns = 1e9 / spec.rate;
    for (std::size_t i = 0; first_op + i < ops.size(); ++i) {
      const auto due = w.t0 + static_cast<std::uint64_t>(static_cast<double>(i) * gap_ns);
      if (due >= w.t_end) break;
      const auto now = now_ns();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      d.issue(ops[first_op + i], due);
    }
    const auto now = now_ns();
    if (w.t_end > now) std::this_thread::sleep_for(std::chrono::nanoseconds(w.t_end - now));
  } else {
    w.t0 = now_ns();
    CpuTicks prev = cpu_ticks();
    for (std::uint64_t k = 1; k <= window_ns / kSliceNs; ++k) {
      sleep_until_ns(w.t0 + k * kSliceNs);
      const CpuTicks cur = cpu_ticks();
      w.steal.push_back(steal_share(prev, cur));
      w.interference.push_back(interference_share(prev, cur));
      prev = cur;
    }
    sleep_until_ns(w.t0 + window_ns);
    d.stop_closed_loop();
    w.t_end = now_ns();
  }
  const std::uint32_t last_id = d.history.size();
  w.rss_mb = peak_rss_mb() - d.history.resident_mb();
  w.after = snapshot(c, traced);
  progress("draining");
  w.drained_ok = d.drain(60);
  w.drained = now_ns();
  c.taps.recording.store(false);
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  std::uint64_t ok_in_window = 0, ok_ops = 0, last_respond = w.t0 + 1;
  for (std::uint32_t id = first_id; id < last_id; ++id) {
    const OpSlot& s = d.history.at(id);
    const bool in_window = s.invoke_ns >= w.t0 && s.invoke_ns < w.t_end;
    if (in_window) w.ops.push_back(id);
    if (!s.done || !s.ok) continue;
    if (s.respond_ns <= w.t_end) ++ok_in_window;
    if (in_window) {
      ++ok_ops;
      last_respond = std::max(last_respond, s.respond_ns);
    }
  }
  w.achieved_per_s = spec.open_loop
                         ? static_cast<double>(ok_ops) * 1e9 / static_cast<double>(last_respond - w.t0)
                         : static_cast<double>(ok_in_window) * 1e9 / static_cast<double>(w.t_end - w.t0);
  return w;
}

struct Latencies {
  std::vector<double> get_us, put_us;
  std::uint64_t failed = 0;
};

Latencies latencies(History& h, const Window& w) {
  Latencies l;
  for (std::uint32_t id : w.ops) {
    const OpSlot& s = h.at(id);
    if (!s.done || !s.ok) {
      ++l.failed;
      continue;
    }
    (s.is_put ? l.put_us : l.get_us).push_back(static_cast<double>(s.respond_ns - s.due_ns) / 1e3);
  }
  return l;
}

/// Closed loop: a slice in which the host took more than this share of the
/// machine's CPU from the process is left out, as long as at least
/// kMinKeptShare of its set-up's slices remain; otherwise the set-up keeps
/// that share of its slices, the quietest.
constexpr double kMaxHostShare = 0.05;
constexpr double kMinKeptShare = 0.5;

/// End-to-end figures of one or more windows.
///
/// Open loop: per window, percentiles over all of its ops and the achieved
/// rate; the run reports the mean over windows less the extremes. Every op that arrives during
/// a stall waits for it, so the tail is the property under test and is never
/// smoothed.
///
/// Closed loop: per half-second slice, the throughput of completions and the
/// percentiles of the ops issued in it, and the share of the machine's CPU
/// the host took from the process (stolen by the hypervisor or used by other
/// processes). Each set-up's figure is the median over its slices, less those
/// in which the host took much (kMaxHostShare); the run reports the mean over
/// set-ups less the extremes. On a shared host that
/// share swings from 0 to 50% within a run and a slice's figures track it,
/// so such slices measure the host, not the program. A stall of the
/// program's own shows in quiet slices too, and is kept.
struct Figures {
  std::vector<double> ops_per_s, get50, get99, put50, put99, interference;
  std::vector<std::size_t> setup;  ///< the set-up each slice was measured in
  bool closed_loop = false;

  void add(History& h, const Window& w) {
    if (!closed_loop) {
      const Latencies l = latencies(h, w);
      push(w.achieved_per_s, quantile(l.get_us, 0.50), quantile(l.get_us, 0.99),
           quantile(l.put_us, 0.50), quantile(l.put_us, 0.99), 0.0);
      return;
    }
    const std::size_t n = std::max<std::uint64_t>(1, (w.t_end - w.t0) / kSliceNs);
    std::vector<double> done(n, 0);
    std::vector<std::vector<double>> gets(n), puts(n);
    for (std::uint32_t id : w.ops) {
      const OpSlot& s = h.at(id);
      if (!s.done || !s.ok) continue;
      const std::uint64_t k = (s.invoke_ns - w.t0) / kSliceNs;
      if (k < n) (s.is_put ? puts : gets)[k].push_back(static_cast<double>(s.respond_ns - s.due_ns) / 1e3);
      if (s.respond_ns >= w.t0 && (s.respond_ns - w.t0) / kSliceNs < n) done[(s.respond_ns - w.t0) / kSliceNs] += 1;
    }
    for (std::size_t k = 0; k < n; ++k) {
      push(done[k] * 1e9 / static_cast<double>(kSliceNs), quantile(gets[k], 0.50),
           quantile(gets[k], 0.99), quantile(puts[k], 0.50), quantile(puts[k], 0.99),
           k < w.interference.size() ? w.interference[k] : 0.0);
    }
  }

  void push(double tput, double g50, double g99, double p50, double p99, double interference_share,
            std::size_t setup_index = 0) {
    ops_per_s.push_back(tput);
    get50.push_back(g50);
    get99.push_back(g99);
    put50.push_back(p50);
    put99.push_back(p99);
    interference.push_back(interference_share);
    setup.push_back(setup_index);
  }

  /// Indices of the slices the figures are taken from: all of an open loop's
  /// windows; a closed loop's slices less those where the host took much,
  /// chosen per set-up so that every set-up weighs about the same.
  std::vector<std::size_t> kept() const {
    std::vector<std::size_t> out;
    if (!closed_loop) {
      for (std::size_t i = 0; i < ops_per_s.size(); ++i) out.push_back(i);
      return out;
    }
    std::map<std::size_t, std::vector<std::size_t>> by_setup;
    for (std::size_t i = 0; i < ops_per_s.size(); ++i) by_setup[setup[i]].push_back(i);
    for (auto& [_, idx] : by_setup) {
      std::stable_sort(idx.begin(), idx.end(),
                       [this](std::size_t a, std::size_t b) { return interference[a] < interference[b]; });
      std::size_t keep = 0;
      while (keep < idx.size() && interference[idx[keep]] <= kMaxHostShare) ++keep;
      keep = std::max(keep, static_cast<std::size_t>(std::ceil(kMinKeptShare * static_cast<double>(idx.size()))));
      out.insert(out.end(), idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(keep));
    }
    return out;
  }

  /// Per set-up, the median over its kept slices; over set-ups, the mean
  /// less the highest and the lowest when there are three or more. Each
  /// set-up is one draw of how fast the program runs for its whole window
  /// (README.md): the mean of several draws is steadier than their median,
  /// and leaving out the extremes keeps one rare draw from moving the run.
  double over_kept(const std::vector<double>& v) const {
    std::map<std::size_t, std::vector<double>> by_setup;
    for (std::size_t i : kept()) by_setup[setup[i]].push_back(v[i]);
    std::vector<double> per_setup;
    for (const auto& [_, sel] : by_setup) per_setup.push_back(median(sel));
    std::sort(per_setup.begin(), per_setup.end());
    if (per_setup.size() >= 3) {
      per_setup.pop_back();
      per_setup.erase(per_setup.begin());
    }
    double sum = 0;
    for (double x : per_setup) sum += x;
    return per_setup.empty() ? 0 : sum / static_cast<double>(per_setup.size());
  }
};

// ---------------------------------------------------------------------------
// Per-layer analysis of a traced window
// ---------------------------------------------------------------------------

struct Parts {
  std::vector<double> late, pre, read, between, write, post, total;
  std::vector<double> read_self, write_self;
};

struct Span {
  std::uint64_t op, id, parent;
  const char* name;
  std::uint64_t start, dur;
};

struct HopKey {
  std::uint64_t src, dst;
  OpId op;
  std::uint8_t kind;
  bool operator==(const HopKey& o) const {
    return src == o.src && dst == o.dst && op == o.op && kind == o.kind;
  }
};
struct HopKeyHash {
  std::size_t operator()(const HopKey& k) const {
    return splitmix(k.src * 31 + k.dst) ^ splitmix(k.op * 11 + k.kind);
  }
};

struct Hop {
  std::uint64_t start, end;
  std::uint64_t replica;  ///< address key of the non-coordinator end
  std::uint8_t kind;
};

/// Self time of one quorum phase: its duration minus the two network hops
/// on its critical path, i.e. the request to and the ack from the replica
/// whose ack completed the quorum. What is left is coordinator and replica
/// processing, queueing included. Negative when the hops were not sampled.
double phase_self_us(const std::vector<Hop>& hops, MsgKind req, MsgKind ack, std::uint64_t begin,
                     std::uint64_t quorum) {
  const Hop* last = nullptr;
  for (const Hop& h : hops) {
    if (h.kind == ack && h.end == quorum) last = &h;
  }
  if (last == nullptr) return -1;
  for (const Hop& h : hops) {
    if (h.kind == req && h.replica == last->replica) {
      const double in_flight = static_cast<double>((h.end - h.start) + (last->end - last->start));
      return std::max(0.0, static_cast<double>(quorum - begin) - in_flight) / 1e3;
    }
  }
  return -1;
}

struct TraceAnalysis {
  Parts get, put;
  std::vector<double> hop_us;
  std::size_t matched = 0, retried = 0, unmatched = 0;
  std::vector<Span> spans;
};

/// Matches each window op to its coordinator's ABD timeline (same node, same
/// key, first read sent inside the op's lifetime) and splits its latency into
/// generator lateness, pre-read, read phase, gap, write phase and post.
TraceAnalysis analyse(History& h, const Window& w, const std::vector<Machine*>& machines,
                      const std::vector<RingKey>& ring_keys, std::size_t span_ops) {
  TraceAnalysis a;
  // Hops: join send and delivery ends by (src, dst, wire op, kind).
  std::unordered_map<HopKey, std::uint64_t, HopKeyHash> sent_at;
  for (Machine* m : machines) {
    for (const HopEnd& e : m->net_tap.definition_as<NetTap>().sends) {
      sent_at[HopKey{e.src, e.dst, e.op, e.kind}] = e.t_ns;
    }
  }
  // Hops per coordinator-side wire op (internal id, node) for self time.
  std::unordered_map<std::uint64_t, std::vector<Hop>> hops_by_op;
  for (Machine* m : machines) {
    for (const HopEnd& e : m->net_tap.definition_as<NetTap>().recvs) {
      auto it = sent_at.find(HopKey{e.src, e.dst, e.op, e.kind});
      if (it == sent_at.end() || e.t_ns < it->second) continue;
      a.hop_us.push_back(static_cast<double>(e.t_ns - it->second) / 1e3);
      // Request hops leave the coordinator, acks return to it.
      const bool request = e.kind == kAbdRead || e.kind == kAbdWrite;
      const std::uint64_t coord = request ? e.src : e.dst;
      const std::uint64_t replica = request ? e.dst : e.src;
      hops_by_op[splitmix(coord) ^ (e.op / 16)].push_back(Hop{it->second, e.t_ns, replica, e.kind});
    }
  }

  // Coordinator timelines by (node, key), in first-send order.
  std::vector<std::unordered_map<RingKey, std::vector<std::pair<OpId, const PhaseRec*>>>> by_node(
      machines.size());
  for (std::size_t n = 0; n < machines.size(); ++n) {
    for (const auto& [id, p] : machines[n]->net_tap.definition_as<NetTap>().phases) {
      by_node[n][p.key].emplace_back(id, &p);
    }
    for (auto& [key, v] : by_node[n]) {
      std::sort(v.begin(), v.end(), [](const auto& x, const auto& y) {
        return x.second->first_read_send < y.second->first_read_send;
      });
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> taken;  // (node,key) -> next unmatched index
  std::vector<std::uint32_t> ops = w.ops;
  std::sort(ops.begin(), ops.end(), [&](std::uint32_t x, std::uint32_t y) {
    return h.at(x).invoke_ns < h.at(y).invoke_ns;
  });
  std::uint64_t span_id = 1;
  for (std::uint32_t id : ops) {
    const OpSlot& s = h.at(id);
    if (!s.done || !s.ok) continue;
    auto& cands = by_node[s.node][ring_keys[s.key]];
    std::size_t& next = taken[(static_cast<std::uint64_t>(s.node) << 32) | s.key];
    const PhaseRec* p = nullptr;
    OpId internal = 0;
    while (next < cands.size()) {
      const PhaseRec* c = cands[next].second;
      if (c->first_read_send < s.invoke_ns) {
        ++next;  // a timeline that started before this op belongs to none of ours
        continue;
      }
      if (c->first_read_send <= s.respond_ns) {
        p = c;
        internal = cands[next].first;
        ++next;
      }
      break;
    }
    if (p == nullptr || p->read_quorum == 0 || p->write_quorum == 0 || p->first_write_send == 0) {
      ++a.unmatched;
      continue;
    }
    if (p->retried) {
      ++a.retried;
      continue;
    }
    ++a.matched;
    Parts& parts = s.is_put ? a.put : a.get;
    auto us = [](std::uint64_t from, std::uint64_t to) {
      return to > from ? static_cast<double>(to - from) / 1e3 : 0.0;
    };
    parts.late.push_back(us(s.due_ns, s.invoke_ns));
    parts.pre.push_back(us(s.invoke_ns, p->first_read_send));
    parts.read.push_back(us(p->first_read_send, p->read_quorum));
    parts.between.push_back(us(p->read_quorum, p->first_write_send));
    parts.write.push_back(us(p->first_write_send, p->write_quorum));
    parts.post.push_back(us(p->write_quorum, s.respond_ns));
    parts.total.push_back(us(s.due_ns, s.respond_ns));

    const Address coord = machines[s.node]->node.definition_as<CatsNode>().self().addr;
    auto hit = hops_by_op.find(splitmix(coord.key()) ^ internal);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> read_iv, write_iv;
    if (hit != hops_by_op.end()) {
      for (const Hop& hp : hit->second) {
        const bool rd = hp.kind == kAbdRead || hp.kind == kAbdReadAck;
        (rd ? read_iv : write_iv).emplace_back(hp.start, hp.end);
      }
      const double rs = phase_self_us(hit->second, kAbdRead, kAbdReadAck, p->first_read_send,
                                      p->read_quorum);
      const double ws = phase_self_us(hit->second, kAbdWrite, kAbdWriteAck, p->first_write_send,
                                      p->write_quorum);
      if (rs >= 0) parts.read_self.push_back(rs);
      if (ws >= 0) parts.write_self.push_back(ws);
    }

    if (a.spans.size() / 8 < span_ops) {
      const std::uint64_t root = span_id++;
      a.spans.push_back({id, root, 0, s.is_put ? "op.put" : "op.get", s.due_ns, s.respond_ns - s.due_ns});
      auto child = [&](const char* name, std::uint64_t from, std::uint64_t to) {
        const std::uint64_t sid = span_id++;
        a.spans.push_back({id, sid, root, name, from, to > from ? to - from : 0});
        return sid;
      };
      child("loadgen.late", s.due_ns, s.invoke_ns);
      child("cats.pre_read", s.invoke_ns, p->first_read_send);
      const std::uint64_t rd = child("abd.read_phase", p->first_read_send, p->read_quorum);
      child("abd.between_phases", p->read_quorum, p->first_write_send);
      const std::uint64_t wr = child("abd.write_phase", p->first_write_send, p->write_quorum);
      child("cats.post", p->write_quorum, s.respond_ns);
      for (const auto& [from, to] : read_iv) {
        a.spans.push_back({id, span_id++, rd, "net.hop", from, to - from});
      }
      for (const auto& [from, to] : write_iv) {
        a.spans.push_back({id, span_id++, wr, "net.hop", from, to - from});
      }
    }
  }
  return a;
}

struct CodecStats {
  double encode_ns = 0, decode_ns = 0, ratio = 0;
  std::array<double, kKinds> raw_bytes{};  ///< mean serialized size by kind
};

/// Replays a sample of the traced message mix through the serialization
/// registry and kz, as TcpNetwork frames it (bodies >= 256 B compressed).
CodecStats replay_codec(const std::vector<net::MessagePtr>& sample) {
  CodecStats out;
  if (sample.empty()) return out;
  auto& reg = net::SerializationRegistry::instance();
  std::array<double, kKinds> bytes{}, count{};
  double raw = 0, wire = 0;
  std::vector<double> enc, dec;
  for (int pass = 0; pass < 5; ++pass) {
    std::uint64_t e_ns = 0, d_ns = 0;
    for (const auto& m : sample) {
      const std::uint64_t t0 = now_ns();
      net::Bytes body;
      reg.serialize(*m, body);
      net::Bytes packed;
      const bool compressed = body.size() >= 256 && net::kz::compress(body, packed) < body.size();
      const std::uint64_t t1 = now_ns();
      net::MessagePtr back = compressed ? reg.deserialize(net::kz::decompress(packed)) : reg.deserialize(body);
      const std::uint64_t t2 = now_ns();
      if (back == nullptr) throw std::runtime_error("codec replay: decode failed");
      e_ns += t1 - t0;
      d_ns += t2 - t1;
      if (pass == 0) {
        const MsgKind k = classify(*m);
        bytes[k] += static_cast<double>(body.size());
        count[k] += 1;
        raw += static_cast<double>(body.size());
        wire += static_cast<double>(compressed ? packed.size() : body.size());
      }
    }
    enc.push_back(static_cast<double>(e_ns) / static_cast<double>(sample.size()));
    dec.push_back(static_cast<double>(d_ns) / static_cast<double>(sample.size()));
  }
  out.encode_ns = median(enc);
  out.decode_ns = median(dec);
  out.ratio = raw > 0 ? wire / raw : 0;
  for (std::size_t k = 0; k < kKinds; ++k) out.raw_bytes[k] = count[k] > 0 ? bytes[k] / count[k] : 0;
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "op,span,parent,name,start_ns,dur_ns\n";
  for (const Span& s : spans) {
    out << s.op << ',' << s.id << ',' << s.parent << ',' << s.name << ',' << s.start << ','
        << s.dur << '\n';
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void add_meta_params(const KvSpec& s, Meta& meta) {
  meta.emplace_back("transport", s.tcp ? "TcpNetwork 127.0.0.1, kz compression" : "LoopbackNetwork, no codec");
  meta.emplace_back("nodes", std::to_string(s.nodes));
  meta.emplace_back("replication_degree", std::to_string(s.params.replication_degree));
  meta.emplace_back("load", s.open_loop ? "open loop " + std::to_string(static_cast<int>(s.rate)) + " ops/s, 1 generator thread"
                                        : "closed loop " + std::to_string(s.window) + " outstanding");
  meta.emplace_back("get_share", std::to_string(s.get_share));
  meta.emplace_back("keys", std::to_string(s.keys));
  meta.emplace_back("value_bytes", std::to_string(kValueBytes));
  meta.emplace_back("setups_per_run", std::to_string(s.setups));
}

/// What one set-up, run in its own process, reports back to the parent.
struct Report {
  Outcome out;  ///< counts, errors, meta; per-layer metrics of a traced set-up
  /// ops/s, get p50/p99, put p50/p99, share of the CPU the host took
  std::vector<std::array<double, 6>> slices;
  double setup_s = 0, lin_ms = 0, rss_mb = 0, get50 = 0, put50 = 0;
};

/// One untraced set-up: boot, seed, measure for `share_s`, check.
void untraced_setup(const KvSpec& spec, const Options& opt, const std::vector<OpDesc>& ops,
                    double share_s, std::size_t first_op, std::size_t index, Report& r) {
  Driver d(spec, opt.seed);
  auto c = boot_cluster(spec, opt.seed, false, d, index);
  r.setup_s = c->setup_s;
  const Window w = measure(*c, d, spec, share_s, ops, first_op, false);
  progress("stopping");
  c->stop();
  progress("checking");
  const Latencies l = latencies(d.history, w);
  r.out.attempted = w.ops.size();
  r.out.failed = l.failed;
  r.get50 = quantile(l.get_us, 0.50);
  r.put50 = quantile(l.put_us, 0.50);
  Figures fig;
  fig.closed_loop = !spec.open_loop;
  fig.add(d.history, w);
  for (std::size_t k = 0; k < fig.ops_per_s.size(); ++k) {
    r.slices.push_back({fig.ops_per_s[k], fig.get50[k], fig.get99[k], fig.put50[k], fig.put99[k],
                        fig.interference[k]});
  }
  if (!w.drained_ok) r.out.errors.push_back("ops still outstanding 60 s after the window");
  const LinCheck lin = check_linearizable(d.history, spec.keys);
  r.lin_ms = lin.ms;
  if (!lin.ok) r.out.errors.push_back("history check failed: " + lin.why);
  const std::string n = std::to_string(index + 1);
  r.out.meta.emplace_back("setup_" + n, std::to_string(c->setup_s) + " s (ready " +
                                       std::to_string(c->ready_s) + " s, " +
                                       std::to_string(d.seed_failures) + " seed puts failed)");
  // View changes inside the window explain a stall instead of hiding it.
  r.out.meta.emplace_back(
      "window_" + n, std::to_string(w.ops.size()) + " ops, " + std::to_string(l.get_us.size()) +
                    " get / " + std::to_string(l.put_us.size()) + " put samples, " +
                    std::to_string(w.after.views - w.before.views) + " view changes, " +
                    std::to_string(w.after.retries - w.before.retries) + " ABD retries, get p99 " +
                    std::to_string(quantile(l.get_us, 0.99)) + " us over the window, " +
                    std::to_string(100 * median(w.steal)) + "% median CPU steal and " +
                    std::to_string(100 * median(w.interference)) + "% taken by the host per slice");
  r.rss_mb = w.rss_mb;
  progress("tearing down");
  c.reset();
}

// ---------------------------------------------------------------------------
// Set-ups in child processes
// ---------------------------------------------------------------------------

std::string one_line(std::string s) {
  for (char& ch : s) {
    if (ch == '\t' || ch == '\n') ch = ' ';
  }
  return s;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string encode(const Report& r) {
  std::string t;
  auto line = [&t](const char* tag, std::initializer_list<std::string> fields) {
    t += tag;
    for (const auto& f : fields) {
      t += '\t';
      t += f;
    }
    t += '\n';
  };
  line("figures", {num(r.setup_s), num(r.lin_ms), num(r.rss_mb), num(r.get50), num(r.put50)});
  line("count", {std::to_string(r.out.attempted), std::to_string(r.out.failed)});
  for (const auto& sl : r.slices) {
    line("slice", {num(sl[0]), num(sl[1]), num(sl[2]), num(sl[3]), num(sl[4]), num(sl[5])});
  }
  for (const auto& m : r.out.metrics.items()) line("metric", {m.name, num(m.value), m.unit});
  for (const auto& [k, v] : r.out.meta) line("meta", {one_line(k), one_line(v)});
  for (const auto& e : r.out.errors) line("error", {one_line(e)});
  line("end", {});
  return t;
}

Report decode(const std::string& text) {
  Report r;
  bool ended = false;
  std::string phase = "starting";
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line = text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() : nl + 1;
    std::vector<std::string> f;
    for (std::size_t a = 0;;) {
      const std::size_t b = line.find('\t', a);
      f.push_back(line.substr(a, b == std::string::npos ? std::string::npos : b - a));
      if (b == std::string::npos) break;
      a = b + 1;
    }
    if (f[0] == "figures" && f.size() == 6) {
      r.setup_s = std::stod(f[1]);
      r.lin_ms = std::stod(f[2]);
      r.rss_mb = std::stod(f[3]);
      r.get50 = std::stod(f[4]);
      r.put50 = std::stod(f[5]);
    } else if (f[0] == "count" && f.size() == 3) {
      r.out.attempted = std::stoull(f[1]);
      r.out.failed = std::stoull(f[2]);
    } else if (f[0] == "slice" && f.size() == 7) {
      r.slices.push_back({std::stod(f[1]), std::stod(f[2]), std::stod(f[3]), std::stod(f[4]),
                          std::stod(f[5]), std::stod(f[6])});
    } else if (f[0] == "metric" && f.size() == 4) {
      r.out.metrics.set(f[1], std::stod(f[2]), f[3]);
    } else if (f[0] == "meta" && f.size() == 3) {
      r.out.meta.emplace_back(f[1], f[2]);
    } else if (f[0] == "error" && f.size() == 2) {
      r.out.errors.push_back(f[1]);
    } else if (f[0] == "phase" && f.size() == 2) {
      phase = f[1];
    } else if (f[0] == "end") {
      ended = true;
    }
  }
  if (!ended) {
    r.out.errors.push_back("set-up process ended without a complete report, while " + phase);
  }
  return r;
}

/// Runs `body` in a forked child and returns its report. Each set-up gets a
/// fresh process: no set-up inherits another's threads, sockets or heap, and
/// peak RSS is per set-up. The child is killed if it outlives `timeout_s`.
/// Must be called while the calling process has no other threads.
Report in_child(const std::function<void(Report&)>& body, double timeout_s) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    // A set-up never outlives the run that started it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    g_progress_fd = fds[1];
    Report r;
    try {
      body(r);
    } catch (const std::exception& e) {
      r.out.errors.push_back(std::string("set-up aborted: ") + e.what());
    }
    const std::string text = encode(r);
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::close(fds[1]);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  const std::uint64_t t0 = now_ns();
  bool timed_out = false;
  for (;;) {
    pollfd p{fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, 200);
    if (ready > 0) {
      char buf[4096];
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    } else if (seconds_since(t0) > timeout_s) {
      timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Report r = decode(text);
  if (timed_out) r.out.errors.push_back("set-up process killed after " + num(timeout_s) + " s");
  if (!timed_out && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    r.out.errors.push_back("set-up process died (status " + std::to_string(status) + ")");
  }
  return r;
}

/// One traced set-up: taps wired in, telemetry metrics on. Fills `out` with
/// the per-layer metrics; `base_*50` are the untraced p50s it is compared to.
void traced_setup(const KvSpec& spec, const Options& opt, const std::vector<OpDesc>& ops,
                  double share_s, std::size_t first_op, double base_get50, double base_put50,
                  Outcome& out) {
  Driver d(spec, opt.seed);
  auto c = boot_cluster(spec, opt.seed, true, d, 1);
  Window w = measure(*c, d, spec, share_s, ops, first_op, true);
  const double threads = thread_count();
  progress("stopping");
  c->stop();  // handlers stopped: the taps' state is now stable to read
  progress("analysing");
  const Latencies traced = latencies(d.history, w);
  if (!w.drained_ok) out.errors.push_back("traced run: ops still outstanding after the window");
  const LinCheck tlin = check_linearizable(d.history, spec.keys);
  if (!tlin.ok) out.errors.push_back("traced run: history check failed: " + tlin.why);

  const std::vector<Machine*> machines = c->machines();
  std::vector<RingKey> ring_keys;
  for (std::size_t k = 0; k < spec.keys; ++k) ring_keys.push_back(hash_to_ring("pb-key-" + std::to_string(k)));
  TraceAnalysis a = analyse(d.history, w, machines, ring_keys, 20000);
  write_spans(opt.trace_out, a.spans);

  std::array<double, kKinds> sent{};
  std::vector<net::MessagePtr> sample;
  double fires = 0;
  std::vector<double> timer_late;
  for (Machine* m : machines) {
    const auto& tap = m->net_tap.definition_as<NetTap>();
    for (std::size_t k = 0; k < kKinds; ++k) sent[k] += static_cast<double>(tap.sent[k]);
    sample.insert(sample.end(), tap.reservoir.begin(), tap.reservoir.end());
    const auto& tt = m->timer_tap.definition_as<TimerTap>();
    fires += static_cast<double>(tt.fires);
    timer_late.insert(timer_late.end(), tt.late_us.begin(), tt.late_us.end());
  }
  const CodecStats codec = replay_codec(sample);

  const double ops_n = static_cast<double>(w.ops.size());
  const double rec_s = static_cast<double>(w.drained - w.t0) / 1e9;
  const double tw_s = static_cast<double>(w.t_end - w.t0) / 1e9;
  const auto& b = w.before;
  const auto& e = w.after;
  Metrics& m = out.metrics;
  std::vector<double> late;
  for (std::uint32_t id : w.ops) {
    const OpSlot& s = d.history.at(id);
    late.push_back(static_cast<double>(s.invoke_ns - s.due_ns) / 1e3);
  }
  m.set("loadgen.offered_per_s", ops_n / tw_s, "1/s");
  m.set("loadgen.achieved_per_s", w.achieved_per_s, "1/s");
  m.set("loadgen.late_p99_us", quantile(late, 0.99), "us");

  auto p50 = [](const std::vector<double>& v) { return quantile(v, 0.50); };
  auto p99 = [](const std::vector<double>& v) { return quantile(v, 0.99); };
  std::vector<double> read, write, pre, post, between, read_self, write_self;
  for (const Parts* p : {&a.get, &a.put}) {
    read.insert(read.end(), p->read.begin(), p->read.end());
    write.insert(write.end(), p->write.begin(), p->write.end());
    pre.insert(pre.end(), p->pre.begin(), p->pre.end());
    post.insert(post.end(), p->post.begin(), p->post.end());
    between.insert(between.end(), p->between.begin(), p->between.end());
    read_self.insert(read_self.end(), p->read_self.begin(), p->read_self.end());
    write_self.insert(write_self.end(), p->write_self.begin(), p->write_self.end());
  }
  m.set("abd.read_phase_p50_us", p50(read), "us");
  m.set("abd.read_phase_p99_us", p99(read), "us");
  m.set("abd.write_phase_p50_us", p50(write), "us");
  m.set("abd.write_phase_p99_us", p99(write), "us");
  m.set("abd.between_phases_p50_us", p50(between), "us");
  m.set("abd.read_self_p50_us", p50(read_self), "us");
  m.set("abd.write_self_p50_us", p50(write_self), "us");
  m.set("cats.pre_read_p50_us", p50(pre), "us");
  m.set("cats.pre_read_p99_us", p99(pre), "us");
  m.set("cats.post_p50_us", p50(post), "us");
  m.set("cats.post_p99_us", p99(post), "us");
  auto parts_sum = [&](const Parts& p) {
    return p50(p.late) + p50(p.pre) + p50(p.read) + p50(p.between) + p50(p.write) + p50(p.post);
  };
  m.set("abd.phase_sum_get_ratio", ratio(parts_sum(a.get), p50(a.get.total)), "ratio");
  m.set("abd.phase_sum_put_ratio", ratio(parts_sum(a.put), p50(a.put.total)), "ratio");
  m.set("trace.matched_ops", static_cast<double>(a.matched), "count");
  m.set("trace.get_p50_us", p50(traced.get_us), "us");
  m.set("trace.put_p50_us", p50(traced.put_us), "us");
  m.set("trace.overhead_get_ratio", ratio(p50(traced.get_us), base_get50), "ratio");
  m.set("trace.overhead_put_ratio", ratio(p50(traced.put_us), base_put50), "ratio");

  const double abd_msgs = sent[kAbdRead] + sent[kAbdReadAck] + sent[kAbdWrite] + sent[kAbdWriteAck] + sent[kAbdNack];
  double abd_bytes = 0;
  for (MsgKind k : {kAbdRead, kAbdReadAck, kAbdWrite, kAbdWriteAck, kAbdNack}) abd_bytes += sent[k] * codec.raw_bytes[k];
  m.set("abd.msgs_per_op", ratio(abd_msgs, ops_n), "count");
  m.set("abd.bytes_per_op", ratio(abd_bytes, ops_n), "B");
  m.set("abd.nack_ratio", ratio(sent[kAbdNack], sent[kAbdReadAck] + sent[kAbdWriteAck] + sent[kAbdNack]), "ratio");
  m.set("abd.retries_per_op", ratio(static_cast<double>(e.retries - b.retries), ops_n), "count");
  m.set("router.lookup_msgs_per_op", ratio(sent[kLookup] + sent[kLookupResult], ops_n), "count");
  m.set("ring.view_msgs", sent[kView], "count");
  m.set("maint.msgs_per_s", ratio(sent[kMaint], rec_s), "1/s");
  m.set("net.hop_p50_us", p50(a.hop_us), "us");
  m.set("net.hop_p99_us", p99(a.hop_us), "us");
  m.set("tcp.frames_per_op", ratio(static_cast<double>(e.tcp.messages_sent - b.tcp.messages_sent), ops_n), "count");
  m.set("tcp.bytes_sent_per_op", ratio(static_cast<double>(e.tcp.bytes_sent - b.tcp.bytes_sent), ops_n), "B");
  m.set("tcp.send_failures", static_cast<double>(e.tcp.send_failures - b.tcp.send_failures), "count");
  m.set("tcp.reconnects", static_cast<double>(e.tcp.reconnects - b.tcp.reconnects), "count");
  m.set("codec.encode_ns", codec.encode_ns, "ns");
  m.set("codec.decode_ns", codec.decode_ns, "ns");
  m.set("codec.compress_ratio", codec.ratio, "ratio");
  const double steals = static_cast<double>(e.sched.steals - b.sched.steals);
  m.set("sched.executed_per_op", ratio(static_cast<double>(e.sched.executed - b.sched.executed), ops_n), "count");
  m.set("sched.steals_per_op", ratio(steals, ops_n), "count");
  m.set("sched.stolen_per_steal", ratio(static_cast<double>(e.sched.stolen_components - b.sched.stolen_components), steals), "count");
  m.set("sched.parks_per_op", ratio(static_cast<double>(e.sched.parks - b.sched.parks), ops_n), "count");
  m.set("sched.wakes_per_op", ratio(static_cast<double>(e.sched.wakes - b.sched.wakes), ops_n), "count");
  m.set("sched.run_queue_depth_p99", p99(w.run_queue_depth), "count");
  m.set("proc.cpu_us_per_op", ratio(e.usage.cpu_us - b.usage.cpu_us, ops_n), "us");
  m.set("proc.ctx_switches_per_op", ratio(e.usage.ctx_switches - b.usage.ctx_switches, ops_n), "count");
  m.set("proc.threads", threads, "count");
  for (const char* kind : {"client", "node", "abd", "router", "ring", "fd", "cyclon", "bootstrap", "net", "timer", "tap"}) {
    const auto bi = b.busy_ns.find(kind);
    const auto ei = e.busy_ns.find(kind);
    const double before_ns = bi == b.busy_ns.end() ? 0 : bi->second;
    const double after_ns = ei == e.busy_ns.end() ? 0 : ei->second;
    m.set(std::string("handler.") + kind + ".busy_us_per_op", ratio((after_ns - before_ns) / 1e3, ops_n), "us");
  }
  m.set("timer.fires_per_s", ratio(fires, rec_s), "1/s");
  m.set("timer.late_p99_us", p99(timer_late), "us");
  m.set("lin.check_ms", tlin.ms, "ms");
  m.set("failed_ratio", ratio(static_cast<double>(traced.failed), ops_n), "ratio");
  m.set("get_samples", static_cast<double>(traced.get_us.size()), "count");
  m.set("put_samples", static_cast<double>(traced.put_us.size()), "count");

  out.meta.emplace_back("trace_matched_ops", std::to_string(a.matched));
  out.meta.emplace_back("trace_retried_ops", std::to_string(a.retried));
  out.meta.emplace_back("trace_unmatched_ops", std::to_string(a.unmatched));
  out.meta.emplace_back("hop_sample", "1/" + std::to_string(spec.hop_sample));
  out.attempted += w.ops.size();
  out.failed += traced.failed;
  out.correct = out.errors.empty();
  progress("tearing down");
  c.reset();
}

}  // namespace

bool is_kv_workload(const std::string& name) {
  return name == "tcp-rf5-mixed" || name == "loop24-read95";
}

Outcome run_kv(const Options& opt) {
  const KvSpec spec = spec_for(opt.workload, opt.smoke);
  Outcome out;
  add_meta_params(spec, out.meta);

  // Ops are generated before any timing so their cost is the same on every
  // commit: the open loop's whole schedule, or the closed loop's op pool.
  const std::size_t n_ops = spec.open_loop
                                ? static_cast<std::size_t>(std::ceil(spec.rate * opt.seconds)) + 16
                                : std::size_t{1} << 20;
  const std::vector<OpDesc> ops = generate_ops(spec, opt.seed, n_ops);

  // Every set-up is measured for its share of the run, and the run reports
  // the median over set-ups (and slices) of each end-to-end metric, so one
  // cluster that converged unusually does not decide the run. A traced run
  // measures one untraced and then one traced set-up, half the time each.
  const std::size_t untraced_setups = opt.trace ? 1 : spec.setups;
  const double share_s = opt.seconds / static_cast<double>(opt.trace ? 2 : untraced_setups);
  const auto ops_per_share = static_cast<std::size_t>(std::ceil(spec.rate * share_s));
  // A run must end within 180 s: each child may use what is left of a 165 s
  // budget, less 25 s kept for every child still to come.
  const std::uint64_t run_start = now_ns();
  const std::size_t children = untraced_setups + (opt.trace ? 1 : 0);
  std::size_t started = 0;
  auto child_timeout_s = [&] {
    ++started;
    return 165.0 - seconds_since(run_start) - 25.0 * static_cast<double>(children - started);
  };
  std::vector<double> setup_s, lin_ms, rss_mb;
  Figures fig;
  fig.closed_loop = !spec.open_loop;
  double base_get50 = 0, base_put50 = 0;
  auto absorb = [&](Report& r) {
    out.attempted += r.out.attempted;
    out.failed += r.out.failed;
    out.errors.insert(out.errors.end(), r.out.errors.begin(), r.out.errors.end());
    out.meta.insert(out.meta.end(), r.out.meta.begin(), r.out.meta.end());
  };
  for (std::size_t i = 0; i < untraced_setups; ++i) {
    Report r = in_child(
        [&](Report& rep) { untraced_setup(spec, opt, ops, share_s, i * ops_per_share, i, rep); },
        child_timeout_s());
    absorb(r);
    setup_s.push_back(r.setup_s);
    lin_ms.push_back(r.lin_ms);
    rss_mb.push_back(r.rss_mb);
    base_get50 = r.get50;
    base_put50 = r.put50;
    for (const auto& sl : r.slices) fig.push(sl[0], sl[1], sl[2], sl[3], sl[4], sl[5], i);
  }
  out.meta.emplace_back("window_s_per_setup", std::to_string(share_s));
  out.meta.emplace_back("slices_kept", std::to_string(fig.kept().size()) + " of " +
                                           std::to_string(fig.ops_per_s.size()));
  out.meta.emplace_back("host_share_kept", std::to_string(100 * fig.over_kept(fig.interference)) + "% median, " +
                                               std::to_string(100 * median(fig.interference)) + "% over all slices");
  out.meta.emplace_back("lin_check_ms", std::to_string(median(lin_ms)));

  if (!opt.trace) {
    Metrics& m = out.metrics;
    m.set("setup_s", median(setup_s), "s");
    m.set("ops_per_s", fig.over_kept(fig.ops_per_s), "1/s");
    m.set("get_p50_us", fig.over_kept(fig.get50), "us");
    m.set("put_p50_us", fig.over_kept(fig.put50), "us");
    m.set("rss_mb", median(rss_mb), "MB");
    out.correct = out.errors.empty();
    return out;
  }

  Report r = in_child(
      [&](Report& rep) {
        traced_setup(spec, opt, ops, share_s, ops_per_share, base_get50, base_put50, rep.out);
      },
      child_timeout_s());
  absorb(r);
  out.metrics = r.out.metrics;
  // The tails, from the untraced set-up: they track the host's share of the
  // CPU too closely to be gated (README.md).
  out.metrics.set("get_p99_us", fig.over_kept(fig.get99), "us");
  out.metrics.set("put_p99_us", fig.over_kept(fig.put99), "us");
  out.correct = out.errors.empty();
  return out;
}

bool correctness_check_rejects_forgeries(std::string* why) {
  // One key: put A completes, then put B completes, then a get returns A.
  // Real-time order forces B after A, so the get must see B.
  std::vector<LinOp> forged(3);
  forged[0] = LinOp{true, 0, 10, false, 1};
  forged[1] = LinOp{true, 20, 30, false, 2};
  forged[2] = LinOp{false, 40, 50, false, 1};
  if (check_register_history(forged).linearizable) {
    *why = "a stale read after a completed newer put was accepted as linearizable";
    return false;
  }
  forged[2].value = 2;
  if (!check_register_history(forged).linearizable) {
    *why = "the corrected history was rejected";
    return false;
  }
  Value v = make_value(7, 42);
  std::uint32_t op = 0;
  if (!check_value(7, v, &op) || op != 42) {
    *why = "a genuine value failed the value check";
    return false;
  }
  v[500] ^= 1;
  if (check_value(7, v, &op)) {
    *why = "a value with one flipped bit passed the value check";
    return false;
  }
  return true;
}

}  // namespace perfbench
