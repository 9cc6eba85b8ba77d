#include "cats/messages.hpp"

#include <mutex>

#include "net/serialization.hpp"

namespace kompics::cats {

namespace {

using net::MessagePtr;
using net::SerializationRegistry;

void write_value(BufferWriter& w, const Value& v) { w.bytes(v.data(), v.size()); }
Value read_value(BufferReader& r) { return r.bytes(); }

void write_tag(BufferWriter& w, const VersionTag& t) {
  w.var_u64(t.counter);
  w.u64(t.writer);
}
VersionTag read_tag(BufferReader& r) {
  VersionTag t;
  t.counter = r.var_u64();
  t.writer = r.u64();
  return t;
}

void write_ballot(BufferWriter& w, const Ballot& b) {
  w.var_u64(b.round);
  w.u64(b.proposer);
}
Ballot read_ballot(BufferReader& r) {
  Ballot b;
  b.round = r.var_u64();
  b.proposer = r.u64();
  return b;
}

void write_group_view(BufferWriter& w, const GroupView& v) {
  w.u64(v.lo);
  w.u64(v.hi);
  w.var_u64(v.version);
  write_node_refs(w, v.members);
}
GroupView read_group_view(BufferReader& r) {
  GroupView v;
  v.lo = r.u64();
  v.hi = r.u64();
  v.version = r.var_u64();
  v.members = read_node_refs(r);
  return v;
}

void write_group_views(BufferWriter& w, const std::vector<GroupView>& vs) {
  w.var_u64(vs.size());
  for (const auto& v : vs) write_group_view(w, v);
}
std::vector<GroupView> read_group_views(BufferReader& r) {
  std::vector<GroupView> vs(r.var_u64());
  for (auto& v : vs) v = read_group_view(r);
  return vs;
}

void write_key_states(BufferWriter& w, const std::vector<KeyState>& ks) {
  w.var_u64(ks.size());
  for (const auto& k : ks) {
    w.u64(k.key);
    write_tag(w, k.tag);
    write_value(w, k.value);
  }
}
std::vector<KeyState> read_key_states(BufferReader& r) {
  std::vector<KeyState> ks(r.var_u64());
  for (auto& k : ks) {
    k.key = r.u64();
    k.tag = read_tag(r);
    k.value = read_value(r);
  }
  return ks;
}

void write_entries(BufferWriter& w, const std::vector<CyclonEntry>& es) {
  w.var_u64(es.size());
  for (const auto& e : es) {
    write_node_ref(w, e.node);
    w.var_u64(e.age);
  }
}
std::vector<CyclonEntry> read_entries(BufferReader& r) {
  std::vector<CyclonEntry> es(r.var_u64());
  for (auto& e : es) {
    e.node = read_node_ref(r);
    e.age = static_cast<std::uint32_t>(r.var_u64());
  }
  return es;
}

void do_register() {
  auto& reg = SerializationRegistry::instance();

  reg.register_message<PingMsg>(
      100,
      [](const Message& m, BufferWriter& w) {
        w.var_u64(static_cast<const PingMsg&>(m).seq);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const PingMsg>(s, d, r.var_u64());
      });

  reg.register_message<PongMsg>(
      101,
      [](const Message& m, BufferWriter& w) {
        w.var_u64(static_cast<const PongMsg&>(m).seq);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const PongMsg>(s, d, r.var_u64());
      });

  reg.register_message<ShuffleRequestMsg>(
      102,
      [](const Message& m, BufferWriter& w) {
        write_entries(w, static_cast<const ShuffleRequestMsg&>(m).entries);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const ShuffleRequestMsg>(s, d, read_entries(r));
      });

  reg.register_message<ShuffleResponseMsg>(
      103,
      [](const Message& m, BufferWriter& w) {
        write_entries(w, static_cast<const ShuffleResponseMsg&>(m).entries);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const ShuffleResponseMsg>(s, d, read_entries(r));
      });

  reg.register_message<FindSuccessorMsg>(
      104,
      [](const Message& m, BufferWriter& w) {
        const auto& fs = static_cast<const FindSuccessorMsg&>(m);
        write_node_ref(w, fs.joiner);
        w.u64(fs.target);
        w.u32(fs.hops_left);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        NodeRef joiner = read_node_ref(r);
        const RingKey target = r.u64();
        const std::uint32_t hops_left = r.u32();
        return std::make_shared<const FindSuccessorMsg>(s, d, joiner, target, hops_left);
      });

  reg.register_message<FoundSuccessorMsg>(
      105,
      [](const Message& m, BufferWriter& w) {
        const auto& fs = static_cast<const FoundSuccessorMsg&>(m);
        write_node_ref(w, fs.successor);
        write_node_refs(w, fs.successor_list);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        NodeRef succ = read_node_ref(r);
        return std::make_shared<const FoundSuccessorMsg>(s, d, succ, read_node_refs(r));
      });

  reg.register_message<GetRingStateMsg>(
      106,
      [](const Message& m, BufferWriter& w) {
        write_node_ref(w, static_cast<const GetRingStateMsg&>(m).from);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const GetRingStateMsg>(s, d, read_node_ref(r));
      });

  reg.register_message<RingStateMsg>(
      107,
      [](const Message& m, BufferWriter& w) {
        const auto& rs = static_cast<const RingStateMsg&>(m);
        write_node_ref(w, rs.self);
        w.boolean(rs.has_pred);
        write_node_ref(w, rs.pred);
        write_node_refs(w, rs.succs);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        NodeRef self = read_node_ref(r);
        const bool has_pred = r.boolean();
        NodeRef pred = read_node_ref(r);
        return std::make_shared<const RingStateMsg>(s, d, self, has_pred, pred,
                                                    read_node_refs(r));
      });

  reg.register_message<NotifyMsg>(
      108,
      [](const Message& m, BufferWriter& w) {
        write_node_ref(w, static_cast<const NotifyMsg&>(m).from);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const NotifyMsg>(s, d, read_node_ref(r));
      });

  reg.register_message<AbdReadMsg>(
      110,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const AbdReadMsg&>(m);
        w.var_u64(msg.op);
        w.u64(msg.key);
        w.var_u64(msg.view);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        return std::make_shared<const AbdReadMsg>(s, d, op, key, r.var_u64());
      });

  reg.register_message<AbdReadAckMsg>(
      111,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const AbdReadAckMsg&>(m);
        w.var_u64(msg.op);
        w.u64(msg.key);
        w.var_u64(msg.view);
        write_tag(w, msg.tag);
        w.boolean(msg.exists);
        write_value(w, msg.value);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        const std::uint64_t view = r.var_u64();
        const VersionTag tag = read_tag(r);
        const bool exists = r.boolean();
        return std::make_shared<const AbdReadAckMsg>(s, d, op, key, view, tag, exists,
                                                     read_value(r));
      });

  reg.register_message<AbdWriteMsg>(
      112,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const AbdWriteMsg&>(m);
        w.var_u64(msg.op);
        w.u64(msg.key);
        w.var_u64(msg.view);
        write_tag(w, msg.tag);
        w.boolean(msg.exists);
        write_value(w, msg.value);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        const std::uint64_t view = r.var_u64();
        const VersionTag tag = read_tag(r);
        const bool exists = r.boolean();
        return std::make_shared<const AbdWriteMsg>(s, d, op, key, view, tag, exists,
                                                   read_value(r));
      });

  reg.register_message<AbdWriteAckMsg>(
      113,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const AbdWriteAckMsg&>(m);
        w.var_u64(msg.op);
        w.u64(msg.key);
        w.var_u64(msg.view);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        return std::make_shared<const AbdWriteAckMsg>(s, d, op, key, r.var_u64());
      });

  reg.register_message<AbdNackMsg>(
      114,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const AbdNackMsg&>(m);
        w.var_u64(msg.op);
        w.u64(msg.key);
        w.var_u64(msg.current_version);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        return std::make_shared<const AbdNackMsg>(s, d, op, key, r.var_u64());
      });

  reg.register_message<ViewPrepareMsg>(
      115,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewPrepareMsg&>(m);
        w.u64(msg.range_lo);
        w.u64(msg.range_hi);
        w.var_u64(msg.target);
        write_ballot(w, msg.ballot);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey lo = r.u64();
        const RingKey hi = r.u64();
        const std::uint64_t target = r.var_u64();
        return std::make_shared<const ViewPrepareMsg>(s, d, lo, hi, target, read_ballot(r));
      });

  reg.register_message<ViewPromiseMsg>(
      116,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewPromiseMsg&>(m);
        w.u64(msg.range_hi);
        w.var_u64(msg.target);
        write_ballot(w, msg.ballot);
        w.boolean(msg.ok);
        write_ballot(w, msg.promised);
        w.boolean(msg.has_accepted);
        write_ballot(w, msg.accepted_ballot);
        write_group_views(w, msg.accepted_children);
        write_group_views(w, msg.catchup);
        write_key_states(w, msg.state);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey hi = r.u64();
        const std::uint64_t target = r.var_u64();
        const Ballot ballot = read_ballot(r);
        const bool ok = r.boolean();
        const Ballot promised = read_ballot(r);
        const bool has_accepted = r.boolean();
        const Ballot accepted_ballot = read_ballot(r);
        auto accepted_children = read_group_views(r);
        auto catchup = read_group_views(r);
        return std::make_shared<const ViewPromiseMsg>(s, d, hi, target, ballot, ok, promised,
                                                      has_accepted, accepted_ballot,
                                                      std::move(accepted_children),
                                                      std::move(catchup), read_key_states(r));
      });

  reg.register_message<ViewAcceptMsg>(
      117,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewAcceptMsg&>(m);
        w.u64(msg.range_lo);
        w.u64(msg.range_hi);
        w.var_u64(msg.target);
        write_ballot(w, msg.ballot);
        write_group_views(w, msg.children);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey lo = r.u64();
        const RingKey hi = r.u64();
        const std::uint64_t target = r.var_u64();
        const Ballot ballot = read_ballot(r);
        return std::make_shared<const ViewAcceptMsg>(s, d, lo, hi, target, ballot,
                                                     read_group_views(r));
      });

  reg.register_message<ViewAcceptedMsg>(
      118,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewAcceptedMsg&>(m);
        w.u64(msg.range_hi);
        w.var_u64(msg.target);
        write_ballot(w, msg.ballot);
        w.boolean(msg.ok);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey hi = r.u64();
        const std::uint64_t target = r.var_u64();
        const Ballot ballot = read_ballot(r);
        return std::make_shared<const ViewAcceptedMsg>(s, d, hi, target, ballot, r.boolean());
      });

  reg.register_message<ViewInstallMsg>(
      119,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewInstallMsg&>(m);
        w.u64(msg.parent_hi);
        write_group_view(w, msg.child);
        write_key_states(w, msg.state);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey parent_hi = r.u64();
        GroupView child = read_group_view(r);
        return std::make_shared<const ViewInstallMsg>(s, d, parent_hi, std::move(child),
                                                      read_key_states(r));
      });

  reg.register_message<ViewInstallAckMsg>(
      142,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewInstallAckMsg&>(m);
        w.u64(msg.parent_hi);
        w.u64(msg.child_hi);
        w.var_u64(msg.version);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey parent_hi = r.u64();
        const RingKey child_hi = r.u64();
        return std::make_shared<const ViewInstallAckMsg>(s, d, parent_hi, child_hi, r.var_u64());
      });

  reg.register_message<ViewFetchMsg>(
      143,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const ViewFetchMsg&>(m);
        w.u64(msg.lo);
        w.u64(msg.hi);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const RingKey lo = r.u64();
        return std::make_shared<const ViewFetchMsg>(s, d, lo, r.u64());
      });

  reg.register_message<RouteLookupMsg>(
      140,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const RouteLookupMsg&>(m);
        write_node_ref(w, msg.origin);
        w.var_u64(msg.op);
        w.u64(msg.key);
        w.var_u64(msg.group_size);
        w.var_u64(msg.ttl);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        NodeRef origin = read_node_ref(r);
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        const auto group_size = static_cast<std::uint32_t>(r.var_u64());
        const auto ttl = static_cast<std::uint32_t>(r.var_u64());
        return std::make_shared<const RouteLookupMsg>(s, d, origin, op, key, group_size, ttl);
      });

  reg.register_message<LookupResultMsg>(
      141,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const LookupResultMsg&>(m);
        w.var_u64(msg.op);
        w.u64(msg.key);
        write_node_refs(w, msg.group);
        w.var_u64(msg.view_version);
        w.boolean(msg.ranged);
        w.u64(msg.lo);
        w.u64(msg.hi);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        const OpId op = r.var_u64();
        const RingKey key = r.u64();
        auto group = read_node_refs(r);
        const std::uint64_t version = r.var_u64();
        const bool ranged = r.boolean();
        const RingKey lo = r.u64();
        const RingKey hi = r.u64();
        return std::make_shared<const LookupResultMsg>(s, d, op, key, std::move(group), version,
                                                       ranged, lo, hi);
      });

  reg.register_message<BootstrapRequestMsg>(
      120,
      [](const Message& m, BufferWriter& w) {
        write_node_ref(w, static_cast<const BootstrapRequestMsg&>(m).self);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const BootstrapRequestMsg>(s, d, read_node_ref(r));
      });

  reg.register_message<BootstrapResponseMsg>(
      121,
      [](const Message& m, BufferWriter& w) {
        write_node_refs(w, static_cast<const BootstrapResponseMsg&>(m).peers);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const BootstrapResponseMsg>(s, d, read_node_refs(r));
      });

  reg.register_message<KeepAliveMsg>(
      122,
      [](const Message& m, BufferWriter& w) {
        write_node_ref(w, static_cast<const KeepAliveMsg&>(m).self);
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        return std::make_shared<const KeepAliveMsg>(s, d, read_node_ref(r));
      });

  reg.register_message<StatusReportMsg>(
      130,
      [](const Message& m, BufferWriter& w) {
        const auto& msg = static_cast<const StatusReportMsg&>(m);
        write_node_ref(w, msg.node);
        w.var_u64(msg.fields.size());
        for (const auto& [k, v] : msg.fields) {
          w.str(k);
          w.str(v);
        }
      },
      [](BufferReader& r, Address s, Address d) -> MessagePtr {
        NodeRef node = read_node_ref(r);
        const std::uint64_t n = r.var_u64();
        std::map<std::string, std::string> fields;
        for (std::uint64_t i = 0; i < n; ++i) {
          std::string k = r.str();
          fields[k] = r.str();
        }
        return std::make_shared<const StatusReportMsg>(s, d, node, std::move(fields));
      });
}

}  // namespace

void register_cats_serializers() {
  static std::once_flag flag;
  std::call_once(flag, do_register);
}

}  // namespace kompics::cats
