#include "cats/router.hpp"

#include <algorithm>

namespace kompics::cats {

OneHopRouter::OneHopRouter() {
  register_cats_serializers();

  subscribe<Init>(control(), [this](const Init& init) {
    self_ = init.self;
    params_ = init.params;
  });

  subscribe<NodeSample>(sampling_, [this](const NodeSample& sample) {
    for (const auto& n : sample.nodes) learn(n);
  });

  subscribe<RingView>(ring_, [this](const RingView& view) {
    view_received_ = true;
    sole_member_ = view.sole_member;
    self_ = view.self;
    has_pred_ = view.has_predecessor;
    pred_ = view.predecessor;
    succs_ = view.successors;
    if (view.has_predecessor) learn(view.predecessor);
    for (const auto& s : view.successors) learn(s);
  });

  // Mirror the local ABD's installed quorum views: a newly installed view
  // supersedes any older cached view it covers (same range after a member
  // change, or the parent of a split).
  subscribe<ViewUpdate>(quorum_views_, [this](const ViewUpdate& vu) {
    for (auto it = views_.begin(); it != views_.end();) {
      const bool superseded =
          it->second.version < vu.view.version && it->second.covers(vu.view.hi);
      it = superseded ? views_.erase(it) : std::next(it);
    }
    auto have = views_.find(vu.view.hi);
    if (have == views_.end() || have->second.version < vu.view.version) {
      views_[vu.view.hi] = vu.view;
      for (const auto& m : vu.view.members) learn(m);
    }
  });

  subscribe<LookupRequest>(router_, [this](const LookupRequest& req) {
    evict_stale();
    if (responsible_for(req.key)) {
      handle_lookup_at_responsible(self_, req.id, req.key, req.group_size);
      return;
    }
    protocol::spawn(relay_lookup(req.id, req.key, req.group_size));
  });

  subscribe<RouteLookupMsg>(network_, [this](const RouteLookupMsg& msg) {
    // Note: the origin is deliberately NOT learned here — join lookups come
    // from nodes that are not ring members yet, and routing to a non-member
    // can livelock a lookup for that node's own key.
    if (responsible_for(msg.key)) {
      handle_lookup_at_responsible(msg.origin, msg.op, msg.key, msg.group_size);
      return;
    }
    if (msg.ttl > 0) forward(msg.origin, msg.op, msg.key, msg.group_size, msg.ttl - 1);
    // TTL exhausted: drop; the origin's operation timeout handles it.
  });

  subscribe<StatusRequest>(status_, [this](const StatusRequest& req) {
    std::map<std::string, std::string> fields;
    fields["table_size"] = std::to_string(table_.size());
    fields["lookups_served"] = std::to_string(lookups_served_);
    fields["lookups_forwarded"] = std::to_string(lookups_forwarded_);
    fields["views_cached"] = std::to_string(views_.size());
    trigger(make_event<StatusResponse>(req.id, "OneHopRouter", std::move(fields)), status_);
  });
}

protocol::Proto<void> OneHopRouter::relay_lookup(OpId op, RingKey key, std::size_t group_size) {
  // Open the result stream BEFORE forwarding: a same-process responsible
  // node can answer inline.
  auto results = co_await network_.open<LookupResultMsg>(
      [op](const LookupResultMsg& m) { return m.op == op; });
  if (!forward(self_, op, key, static_cast<std::uint32_t>(group_size), kMaxHops)) {
    // Nowhere to route: answer with an empty group; the caller retries.
    trigger(make_event<LookupResponse>(op, key, std::vector<NodeRef>{}), router_);
    co_return;
  }
  auto got = co_await protocol::when_any(results.next(),
                                         protocol::sleep(timer_, params_.op_timeout_ms));
  if (got.index() == 1) co_return;  // no answer: the origin's deadline retries
  const LookupResultMsg& msg = *std::get<0>(got);
  for (const auto& n : msg.group) learn(n);
  trigger(make_event<LookupResponse>(msg.op, msg.key, msg.group, msg.view_version, msg.ranged,
                                     msg.lo, msg.hi),
          router_);
}

void OneHopRouter::learn(const NodeRef& n) {
  if (n.addr == self_.addr || !n.addr.valid()) return;
  Entry& e = table_[n.key];
  e.node = n;
  e.last_heard = now();
}

void OneHopRouter::evict_stale() {
  const TimeMs cutoff = now() - kEntryTtlMs;
  for (auto it = table_.begin(); it != table_.end();) {
    it = it->second.last_heard < cutoff ? table_.erase(it) : std::next(it);
  }
}

bool OneHopRouter::responsible_for(RingKey key) const {
  if (!view_received_) return false;  // not a ring member yet
  if (has_pred_) return in_interval_oc(pred_.key, self_.key, key);
  // Whole-ring authority belongs only to a genuine sole member (a fresh
  // ring's first node). A node that merely LOST all neighbors — e.g. cut
  // off by a partition — must refuse authority, otherwise it would commit
  // split-brain writes at quorum 1 (found by the partition tests).
  return sole_member_;
}

const GroupView* OneHopRouter::covering_view(RingKey key) const {
  // Bug emulation (params.hpp): the pre-consistent-quorums router answered
  // lookups from the raw ring neighborhood, never from installed views.
  if (params_.inject_stale_view_bug) return nullptr;
  const GroupView* best = nullptr;
  for (const auto& [hi, v] : views_) {
    if (!v.covers(key)) continue;
    if (best == nullptr || best->version < v.version) best = &v;
  }
  return best;
}

std::vector<std::string> OneHopRouter::invariant_violations() const {
  std::vector<std::string> out;
  // Routing-table sanity: every entry must be keyed by its node's own ring
  // key, carry a routable address, and never describe this node itself
  // (learn() filters all three; an entry violating them would forward
  // lookups to the wrong place or loop them back here forever).
  for (const auto& [k, e] : table_) {
    if (e.node.key != k) {
      out.push_back("router: table entry keyed " + std::to_string(k) +
                    " holds node with key " + std::to_string(e.node.key));
    }
    if (!e.node.addr.valid()) {
      out.push_back("router: table entry " + std::to_string(k) + " has an invalid address");
    }
    if (e.node.addr == self_.addr) {
      out.push_back("router: table contains this node itself (key " + std::to_string(k) + ")");
    }
  }
  // Cached installed views must be mutually disjoint: overlapping cached
  // views would let two lookups for the same key resolve to different
  // replica groups (split-brain at the routing layer).
  for (const auto& [hi, v] : views_) {
    for (const auto& [other_hi, other] : views_) {
      if (other_hi != hi && other.covers(hi) && v.covers(other_hi)) {
        out.push_back("router: cached views overlap: (" + std::to_string(v.lo) + ", " +
                      std::to_string(hi) + "]@v" + std::to_string(v.version) + " and (" +
                      std::to_string(other.lo) + ", " + std::to_string(other_hi) + "]@v" +
                      std::to_string(other.version));
      }
    }
  }
  return out;
}

std::vector<NodeRef> OneHopRouter::build_group(RingKey, std::size_t group_size) const {
  // The responsible node heads the group; its ring successors replicate.
  std::vector<NodeRef> group{self_};
  for (const auto& s : succs_) {
    if (group.size() >= group_size) break;
    const bool dup = std::any_of(group.begin(), group.end(),
                                 [&s](const NodeRef& g) { return g.addr == s.addr; });
    if (!dup) group.push_back(s);
  }
  return group;
}

bool OneHopRouter::forward(const NodeRef& origin, OpId op, RingKey key,
                           std::uint32_t group_size, std::uint32_t ttl) {
  // Candidates: nodes in (self, key] — at or preceding the target (Chord
  // rule: progress toward the key is guaranteed). Among the closest three
  // we pick randomly: a retried lookup then explores a different path, so a
  // stale table entry pointing at a dead node cannot black-hole the same
  // operation forever.
  const TimeMs cutoff = now() - kEntryTtlMs;
  struct Cand {
    std::uint64_t dist;
    NodeRef node;
  };
  std::vector<Cand> candidates;
  for (const auto& [k, e] : table_) {
    if (e.last_heard < cutoff) continue;
    if (!in_interval_oc(self_.key, key, k)) continue;
    candidates.push_back(Cand{ring_distance(k, key), e.node});
  }
  NodeRef best{};
  bool found = false;
  if (!candidates.empty()) {
    std::sort(candidates.begin(), candidates.end(),
              [](const Cand& a, const Cand& b) { return a.dist < b.dist; });
    const std::size_t pool = std::min<std::size_t>(candidates.size(), 3);
    best = candidates[rng().next_below(pool)].node;
    found = true;
  }
  if (!found) {
    // Fallback: route along the ring through our successor.
    for (const auto& s : succs_) {
      if (s.addr != self_.addr) {
        best = s;
        found = true;
        break;
      }
    }
  }
  if (!found) return false;
  ++lookups_forwarded_;
  trigger(make_event<RouteLookupMsg>(self_.addr, best.addr, origin, op, key, group_size, ttl),
          network_);
  return true;
}

void OneHopRouter::handle_lookup_at_responsible(const NodeRef& origin, OpId op, RingKey key,
                                                std::size_t group_size) {
  ++lookups_served_;
  const GroupView* v = covering_view(key);
  // Only an installed view carries its range (coordinators may reuse the
  // answer across it); a ring-successor group is an answer for this key alone.
  const bool ranged = v != nullptr;
  auto group = ranged ? v->members : build_group(key, group_size);
  const std::uint64_t version = ranged ? v->version : 0;
  const RingKey lo = ranged ? v->lo : 0;
  const RingKey hi = ranged ? v->hi : 0;
  if (origin.addr == self_.addr) {
    trigger(make_event<LookupResponse>(op, key, std::move(group), version, ranged, lo, hi),
            router_);
  } else {
    trigger(make_event<LookupResultMsg>(self_.addr, origin.addr, op, key, std::move(group),
                                        version, ranged, lo, hi),
            network_);
  }
}

}  // namespace kompics::cats
