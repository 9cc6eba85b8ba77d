#pragma once

// Network messages of the CATS protocols (Fig. 11), all registered with the
// serialization registry so the same components run over TcpNetwork,
// LoopbackNetwork (codec-exercising mode), or the NetworkEmulator.
// Wire ids 100..149 are reserved for CATS.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cats/ports.hpp"
#include "net/buffer.hpp"
#include "net/network_port.hpp"

namespace kompics::cats {

using net::BufferReader;
using net::BufferWriter;
using net::Message;

/// Call once (idempotent, thread-safe) before using CATS over a serializing
/// network provider. Component constructors call it automatically.
void register_cats_serializers();

// ---- helpers ---------------------------------------------------------------

inline void write_node_ref(BufferWriter& w, const NodeRef& n) {
  w.u64(n.key);
  n.addr.write(w);
}
inline NodeRef read_node_ref(BufferReader& r) {
  NodeRef n;
  n.key = r.u64();
  n.addr = Address::read(r);
  return n;
}
inline void write_node_refs(BufferWriter& w, const std::vector<NodeRef>& v) {
  w.var_u64(v.size());
  for (const auto& n : v) write_node_ref(w, n);
}
inline std::vector<NodeRef> read_node_refs(BufferReader& r) {
  std::vector<NodeRef> v(r.var_u64());
  for (auto& n : v) n = read_node_ref(r);
  return v;
}

// ---- failure detector ------------------------------------------------------

class PingMsg : public Message {
  KOMPICS_EVENT(PingMsg, Message);

 public:
  PingMsg(Address s, Address d, std::uint64_t seq) : Message(s, d), seq(seq) {}
  std::uint64_t seq;
};

class PongMsg : public Message {
  KOMPICS_EVENT(PongMsg, Message);

 public:
  PongMsg(Address s, Address d, std::uint64_t seq) : Message(s, d), seq(seq) {}
  std::uint64_t seq;
};

// ---- Cyclon ------------------------------------------------------------------

struct CyclonEntry {
  NodeRef node;
  std::uint32_t age = 0;
};

class ShuffleRequestMsg : public Message {
  KOMPICS_EVENT(ShuffleRequestMsg, Message);

 public:
  ShuffleRequestMsg(Address s, Address d, std::vector<CyclonEntry> entries)
      : Message(s, d), entries(std::move(entries)) {}
  std::vector<CyclonEntry> entries;
};

class ShuffleResponseMsg : public Message {
  KOMPICS_EVENT(ShuffleResponseMsg, Message);

 public:
  ShuffleResponseMsg(Address s, Address d, std::vector<CyclonEntry> entries)
      : Message(s, d), entries(std::move(entries)) {}
  std::vector<CyclonEntry> entries;
};

// ---- ring maintenance --------------------------------------------------------

/// Iteratively routed join lookup: find the successor of `target`. The hop
/// budget bounds forwarding: successor lists disagree while a partition
/// heals, so the "monotonic progress" forwarding rule can cycle — and on a
/// duplicating link an unbounded cycle is an exponential message storm
/// (campaign finding, seeds 565/805/940/1915). An exhausted budget drops the
/// lookup; the joiner's retry timer issues a fresh one.
class FindSuccessorMsg : public Message {
  KOMPICS_EVENT(FindSuccessorMsg, Message);

 public:
  FindSuccessorMsg(Address s, Address d, NodeRef joiner, RingKey target, std::uint32_t hops_left)
      : Message(s, d), joiner(joiner), target(target), hops_left(hops_left) {}
  NodeRef joiner;
  RingKey target;
  std::uint32_t hops_left;
};

class FoundSuccessorMsg : public Message {
  KOMPICS_EVENT(FoundSuccessorMsg, Message);

 public:
  FoundSuccessorMsg(Address s, Address d, NodeRef successor, std::vector<NodeRef> successor_list)
      : Message(s, d), successor(successor), successor_list(std::move(successor_list)) {}
  NodeRef successor;
  std::vector<NodeRef> successor_list;
};

/// Periodic stabilization probe to our successor.
class GetRingStateMsg : public Message {
  KOMPICS_EVENT(GetRingStateMsg, Message);

 public:
  GetRingStateMsg(Address s, Address d, NodeRef from) : Message(s, d), from(from) {}
  NodeRef from;
};

class RingStateMsg : public Message {
  KOMPICS_EVENT(RingStateMsg, Message);

 public:
  RingStateMsg(Address s, Address d, NodeRef self, bool has_pred, NodeRef pred,
               std::vector<NodeRef> succs)
      : Message(s, d), self(self), has_pred(has_pred), pred(pred), succs(std::move(succs)) {}
  NodeRef self;
  bool has_pred;
  NodeRef pred;
  std::vector<NodeRef> succs;
};

/// Chord-style notify: "I believe I am your predecessor".
class NotifyMsg : public Message {
  KOMPICS_EVENT(NotifyMsg, Message);

 public:
  NotifyMsg(Address s, Address d, NodeRef from) : Message(s, d), from(from) {}
  NodeRef from;
};

// ---- ABD quorum replication ----------------------------------------------------

struct VersionTag {
  std::uint64_t counter = 0;
  std::uint64_t writer = 0;  // tie-break
  bool operator<(const VersionTag& o) const {
    return counter != o.counter ? counter < o.counter : writer < o.writer;
  }
  bool operator==(const VersionTag& o) const {
    return counter == o.counter && writer == o.writer;
  }
};

/// Every ABD phase message carries the consistent-quorum view version the
/// coordinator resolved its replica group under (`view`); replicas reject
/// phase messages whose version does not match their installed view, which
/// is what makes two concurrent quorums for the same range impossible.
class AbdReadMsg : public Message {
  KOMPICS_EVENT(AbdReadMsg, Message);

 public:
  AbdReadMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view)
      : Message(s, d), op(op), key(key), view(view) {}
  OpId op;
  RingKey key;
  std::uint64_t view;
};

class AbdReadAckMsg : public Message {
  KOMPICS_EVENT(AbdReadAckMsg, Message);

 public:
  AbdReadAckMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view, VersionTag tag,
                bool exists, Value value)
      : Message(s, d), op(op), key(key), view(view), tag(tag), exists(exists),
        value(std::move(value)) {}
  OpId op;
  RingKey key;
  std::uint64_t view;  ///< echo of the phase message's view version
  VersionTag tag;
  bool exists;
  Value value;
};

class AbdWriteMsg : public Message {
  KOMPICS_EVENT(AbdWriteMsg, Message);

 public:
  AbdWriteMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view, VersionTag tag,
              bool exists, Value value)
      : Message(s, d), op(op), key(key), view(view), tag(tag), exists(exists),
        value(std::move(value)) {}
  OpId op;
  RingKey key;
  std::uint64_t view;
  VersionTag tag;
  bool exists;  ///< false only for write-backs of "no value" (no-op impose)
  Value value;
};

class AbdWriteAckMsg : public Message {
  KOMPICS_EVENT(AbdWriteAckMsg, Message);

 public:
  AbdWriteAckMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t view)
      : Message(s, d), op(op), key(key), view(view) {}
  OpId op;
  RingKey key;
  std::uint64_t view;
};

/// Replica refusal of an ABD phase message sent under a stale (or not yet
/// installed) view. Lets the coordinator abandon an unreachable quorum
/// early and retry with a fresh lookup instead of waiting out the timeout.
class AbdNackMsg : public Message {
  KOMPICS_EVENT(AbdNackMsg, Message);

 public:
  AbdNackMsg(Address s, Address d, OpId op, RingKey key, std::uint64_t current_version)
      : Message(s, d), op(op), key(key), current_version(current_version) {}
  OpId op;
  RingKey key;
  std::uint64_t current_version;  ///< replica's installed version (0 = none)
};

// ---- one-hop routing ---------------------------------------------------------

/// Greedily forwarded lookup: find the replication group of `key` on behalf
/// of `origin`. The responsible node answers the origin directly with a
/// LookupResultMsg — one forwarding hop in the common (warm-table) case.
class RouteLookupMsg : public Message {
  KOMPICS_EVENT(RouteLookupMsg, Message);

 public:
  RouteLookupMsg(Address s, Address d, NodeRef origin, OpId op, RingKey key,
                 std::uint32_t group_size, std::uint32_t ttl)
      : Message(s, d), origin(origin), op(op), key(key), group_size(group_size), ttl(ttl) {}
  NodeRef origin;
  OpId op;
  RingKey key;
  std::uint32_t group_size;
  std::uint32_t ttl;
};

class LookupResultMsg : public Message {
  KOMPICS_EVENT(LookupResultMsg, Message);

 public:
  LookupResultMsg(Address s, Address d, OpId op, RingKey key, std::vector<NodeRef> group,
                  std::uint64_t view_version = 0, bool ranged = false, RingKey lo = 0,
                  RingKey hi = 0)
      : Message(s, d),
        op(op),
        key(key),
        group(std::move(group)),
        view_version(view_version),
        ranged(ranged),
        lo(lo),
        hi(hi) {}
  OpId op;
  RingKey key;
  std::vector<NodeRef> group;
  std::uint64_t view_version;
  bool ranged;  ///< answered from an installed view covering (lo, hi]
  RingKey lo;
  RingKey hi;
};

// ---- consistent-quorum view reconfiguration ---------------------------------
//
// A key range's replica group only changes through a single-decree consensus
// instance run over the members of the OLD view (the paper's consistent
// quorums [11]). Promising a proposal FENCES the old view at the acceptor:
// it stops acknowledging ABD phase messages for that version. A new view is
// installed only after a majority of the old view accepted it — i.e. only
// once the old view can no longer assemble an ABD quorum — so a partial
// partition can never commit divergent writes under two views of one range.

/// Proposal ballot: totally ordered, proposer key breaks ties.
struct Ballot {
  std::uint64_t round = 0;
  std::uint64_t proposer = 0;
  bool operator<(const Ballot& o) const {
    return round != o.round ? round < o.round : proposer < o.proposer;
  }
  bool operator==(const Ballot& o) const { return round == o.round && proposer == o.proposer; }
  bool operator<=(const Ballot& o) const { return *this < o || *this == o; }
};

/// One stored key shipped during view installation / catch-up.
struct KeyState {
  RingKey key = 0;
  VersionTag tag{};
  Value value;
};

/// Phase 1a: fence the range (range_lo, range_hi] at version target-1 and
/// ask its members to promise ballot for the reconfiguration to `target`.
class ViewPrepareMsg : public Message {
  KOMPICS_EVENT(ViewPrepareMsg, Message);

 public:
  ViewPrepareMsg(Address s, Address d, RingKey range_lo, RingKey range_hi, std::uint64_t target,
                 Ballot ballot)
      : Message(s, d), range_lo(range_lo), range_hi(range_hi), target(target), ballot(ballot) {}
  RingKey range_lo;
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;
};

/// Phase 1b. ok=true carries any previously accepted proposal (Paxos adopt
/// rule) plus the acceptor's replica state for the range (the state-transfer
/// source). ok=false with a non-empty `catchup` view tells a stale proposer
/// which newer view is already installed.
class ViewPromiseMsg : public Message {
  KOMPICS_EVENT(ViewPromiseMsg, Message);

 public:
  ViewPromiseMsg(Address s, Address d, RingKey range_hi, std::uint64_t target, Ballot ballot,
                 bool ok, Ballot promised, bool has_accepted, Ballot accepted_ballot,
                 std::vector<GroupView> accepted_children, std::vector<GroupView> catchup,
                 std::vector<KeyState> state)
      : Message(s, d), range_hi(range_hi), target(target), ballot(ballot), ok(ok),
        promised(promised), has_accepted(has_accepted), accepted_ballot(accepted_ballot),
        accepted_children(std::move(accepted_children)), catchup(std::move(catchup)),
        state(std::move(state)) {}
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;  ///< the prepare's ballot, echoed for matching
  bool ok;
  Ballot promised;
  bool has_accepted;
  Ballot accepted_ballot;
  std::vector<GroupView> accepted_children;
  std::vector<GroupView> catchup;  ///< 0 or 1 newer installed views (ok=false)
  std::vector<KeyState> state;
};

/// Phase 2a: the children views (1 = member change, 2 = range split) that
/// replace the parent range at `target`.
class ViewAcceptMsg : public Message {
  KOMPICS_EVENT(ViewAcceptMsg, Message);

 public:
  ViewAcceptMsg(Address s, Address d, RingKey range_lo, RingKey range_hi, std::uint64_t target,
                Ballot ballot, std::vector<GroupView> children)
      : Message(s, d), range_lo(range_lo), range_hi(range_hi), target(target), ballot(ballot),
        children(std::move(children)) {}
  RingKey range_lo;
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;
  std::vector<GroupView> children;
};

/// Phase 2b.
class ViewAcceptedMsg : public Message {
  KOMPICS_EVENT(ViewAcceptedMsg, Message);

 public:
  ViewAcceptedMsg(Address s, Address d, RingKey range_hi, std::uint64_t target, Ballot ballot,
                  bool ok)
      : Message(s, d), range_hi(range_hi), target(target), ballot(ballot), ok(ok) {}
  RingKey range_hi;
  std::uint64_t target;
  Ballot ballot;
  bool ok;
};

/// Decision + state transfer: install one child view (sent to every member
/// of the child; also answers a ViewFetchMsg for catch-up). The receiver
/// merges `state` by max tag, drops any overlapping older range, and
/// publishes the view to its router.
class ViewInstallMsg : public Message {
  KOMPICS_EVENT(ViewInstallMsg, Message);

 public:
  ViewInstallMsg(Address s, Address d, RingKey parent_hi, GroupView child,
                 std::vector<KeyState> state)
      : Message(s, d), parent_hi(parent_hi), child(std::move(child)), state(std::move(state)) {}
  RingKey parent_hi;
  GroupView child;
  std::vector<KeyState> state;
};

class ViewInstallAckMsg : public Message {
  KOMPICS_EVENT(ViewInstallAckMsg, Message);

 public:
  ViewInstallAckMsg(Address s, Address d, RingKey parent_hi, RingKey child_hi,
                    std::uint64_t version)
      : Message(s, d), parent_hi(parent_hi), child_hi(child_hi), version(version) {}
  RingKey parent_hi;
  RingKey child_hi;
  std::uint64_t version;
};

/// Catch-up pull: "send me the views covering (lo, hi]". A node that is
/// ring-responsible for an interval no installed view covers (e.g. a healed
/// boundary node that was evicted from its old group) asks a successor —
/// replicas of its ranges — for copies, then proposes a member change to
/// re-enter the group. Answered with ViewInstallMsg per overlapping view.
class ViewFetchMsg : public Message {
  KOMPICS_EVENT(ViewFetchMsg, Message);

 public:
  ViewFetchMsg(Address s, Address d, RingKey lo, RingKey hi)
      : Message(s, d), lo(lo), hi(hi) {}
  RingKey lo;
  RingKey hi;
};

// ---- bootstrap ------------------------------------------------------------------

class BootstrapRequestMsg : public Message {
  KOMPICS_EVENT(BootstrapRequestMsg, Message);

 public:
  BootstrapRequestMsg(Address s, Address d, NodeRef self) : Message(s, d), self(self) {}
  NodeRef self;
};

class BootstrapResponseMsg : public Message {
  KOMPICS_EVENT(BootstrapResponseMsg, Message);

 public:
  BootstrapResponseMsg(Address s, Address d, std::vector<NodeRef> peers)
      : Message(s, d), peers(std::move(peers)) {}
  std::vector<NodeRef> peers;
};

class KeepAliveMsg : public Message {
  KOMPICS_EVENT(KeepAliveMsg, Message);

 public:
  KeepAliveMsg(Address s, Address d, NodeRef self) : Message(s, d), self(self) {}
  NodeRef self;
};

// ---- monitoring ------------------------------------------------------------------

class StatusReportMsg : public Message {
  KOMPICS_EVENT(StatusReportMsg, Message);

 public:
  StatusReportMsg(Address s, Address d, NodeRef node,
                  std::map<std::string, std::string> fields)
      : Message(s, d), node(node), fields(std::move(fields)) {}
  NodeRef node;
  std::map<std::string, std::string> fields;
};

}  // namespace kompics::cats
