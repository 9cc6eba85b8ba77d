// The ConsistentABD coordinator path, rewritten on the TestKit event-stream
// DSL (ISSUE 7 satellite; originals lived in abd_protocol_test.cpp as
// hand-rolled harness tests). The DSL versions assert strictly *more* than
// the originals: the exact emission order of every protocol message enters
// the expectation stream, and the "must not respond yet" checks are real
// timed silence windows instead of point-in-time empty-vector probes.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cats/abd.hpp"
#include "cats/bootstrap.hpp"
#include "testkit/event_stream.hpp"

namespace kompics::cats::test {
namespace {

using testkit::PortHandle;
using testkit::Result;
using testkit::TestContext;
using testkit::TestProbe;

struct AbdDslTest : ::testing::Test {
  explicit AbdDslTest(bool inject_stale_view_bug = false) {
    CatsParams params;
    params.op_timeout_ms = 1000;
    params.op_max_retries = 2;
    params.inject_stale_view_bug = inject_stale_view_bug;
    ctx = std::make_unique<TestContext>(9, [this, params](TestProbe& p, sim::SimulatorCore&) {
      Component abd = p.make<ConsistentABD>();
      abd.control()->trigger(make_event<ConsistentABD::Init>(self, params));
      return abd;
    });
    router = ctx->monitor_required<Router>();
    net = ctx->monitor_required<net::Network>();
    putget = ctx->monitor_provided<PutGet>();
    ctx->attach_sim_timer();
  }

  // Replica replies, echoing the phase view as a correct replica does.
  EventPtr read_ack(const AbdReadMsg& to, VersionTag tag, bool exists, Value v, Address from) {
    return make_event<AbdReadAckMsg>(from, to.source(), to.op, to.key, to.view, tag, exists,
                                     std::move(v));
  }
  EventPtr write_ack(const AbdWriteMsg& to, Address from) {
    return make_event<AbdWriteAckMsg>(from, to.source(), to.op, to.key, to.view);
  }
  EventPtr lookup_answer(const LookupRequest& req, std::uint64_t view_version) {
    return make_event<LookupResponse>(req.id, req.key, group, view_version);
  }

  ConsistentABD& abd() { return ctx->cut().definition_as<ConsistentABD>(); }

  // Expects the pending op's LookupRequest and answers it with `group` under
  // `version`, carrying the view range (lo, hi] when `ranged`.
  TestContext& answer_lookup(std::uint64_t version, bool ranged, RingKey lo = 0, RingKey hi = 0) {
    auto req = std::make_shared<LookupRequest>(0, 0, 0);
    return ctx->expect<LookupRequest>(router, [req](const LookupRequest& r) { *req = r; })
        .trigger(router, [this, req, version, ranged, lo, hi] {
          return make_event<LookupResponse>(req->id, req->key, group, version, ranged, lo, hi);
        });
  }

  // Expects the pending get's three reads, all under `view`, and answers two
  // of them from empty replicas: the get completes with nothing to write back.
  TestContext& empty_get_completes(OpId id, std::uint64_t view) {
    auto reads = std::make_shared<std::vector<AbdReadMsg>>();
    return ctx->repeat(3)
        .expect<AbdReadMsg>(net, [reads](const AbdReadMsg& m) { reads->push_back(m); })
        .end_repeat()
        .exec([reads, view] {
          ASSERT_EQ(reads->size(), 3u);
          for (const auto& r : *reads) EXPECT_EQ(r.view, view);
        })
        .trigger(net, [this, reads] {
          return read_ack(reads->at(0), VersionTag{}, false, {}, Address::node(10));
        })
        .trigger(net, [this, reads] {
          return read_ack(reads->at(1), VersionTag{}, false, {}, Address::node(20));
        })
        .expect<GetResponse>(putget, [id](const GetResponse& r) {
          return r.ok && r.id == id && !r.found;
        });
  }

  // Starts get `id` of `key`, answers its lookup under view 1 and captures
  // the three reads it sends.
  TestContext& get_reads(OpId id, RingKey key, std::vector<AbdReadMsg>& reads) {
    ctx->trigger(putget, make_event<GetRequest>(id, key));
    return answer_lookup(1, false)
        .repeat(3)
        .expect<AbdReadMsg>(net, [&reads](const AbdReadMsg& m) { reads.push_back(m); })
        .end_repeat();
  }

  // Expects the write-back of (tag, value) to the whole group, acks it from
  // two replicas and expects the get to answer with the value.
  TestContext& get_imposes(VersionTag tag, Value value, std::vector<AbdWriteMsg>& writes) {
    return ctx->repeat(3)
        .expect<AbdWriteMsg>(net, [&writes](const AbdWriteMsg& m) { writes.push_back(m); })
        .end_repeat()
        .exec([&writes, tag, value] {
          ASSERT_EQ(writes.size(), 3u);
          EXPECT_EQ(writes[0].tag, tag) << "impose carries the max tag";
          EXPECT_EQ(writes[0].value, value);
        })
        .trigger(net, [this, &writes] { return write_ack(writes[0], Address::node(10)); })
        .trigger(net, [this, &writes] { return write_ack(writes[1], Address::node(20)); })
        .expect<GetResponse>(putget, [value](const GetResponse& r) {
          return r.ok && r.found && r.value == value;
        });
  }

  NodeRef self{100, Address::node(1)};
  // The coordinator is NOT a group member here — the protocol must not care.
  std::vector<NodeRef> group{NodeRef{10, Address::node(10)}, NodeRef{20, Address::node(20)},
                             NodeRef{30, Address::node(30)}};
  std::unique_ptr<TestContext> ctx;
  PortHandle router, net, putget;
};

TEST_F(AbdDslTest, PutRunsReadThenWritePhaseAndAcksAtQuorum) {
  LookupRequest lookup{0, 0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<PutRequest>(1, 555, Value{1}))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      // Read phase queries the whole group — exactly three reads, no more.
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(reads.size(), 3u);
        EXPECT_EQ(reads[0].view, 1u) << "phases carry the lookup's view version";
      })
      // Two read acks (= quorum of 3) with empty replicas start the write
      // phase; until then the coordinator must emit nothing further.
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[1], VersionTag{}, false, {}, Address::node(20)); })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(writes.size(), 3u);
        EXPECT_EQ(writes[0].tag.counter, 1u) << "fresh key: counter 0+1";
        EXPECT_TRUE(writes[0].exists);
      })
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .expect_silence(200)  // 1 of 3 is not a quorum: no response may appear
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<PutResponse>(putget, [](const PutResponse& r) { return r.ok && r.id == 1; });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, GetImposesMaxValueBeforeResponding) {
  LookupRequest lookup{0, 0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<GetRequest>(3, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // Replicas disagree: {3,50}->0xA vs {5,60}->0xB. The get must impose
      // (write back) the max tag/value before answering.
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{3, 50}, true, Value{0xA}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{5, 60}, true, Value{0xB}, Address::node(20));
      })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      .exec([&] {
        ASSERT_EQ(writes.size(), 3u);
        EXPECT_EQ(writes[0].tag, (VersionTag{5, 60})) << "impose retransmits the max tag";
        EXPECT_EQ(writes[0].value, Value{0xB});
      })
      .expect_silence(200)  // must not respond before the impose quorum
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<GetResponse>(putget, [](const GetResponse& r) {
        return r.ok && r.found && r.value == Value{0xB};
      });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- one-round gets: the write-back only when the read quorum disagrees ----

TEST_F(AbdDslTest, GetOfAgreeingQuorumAnswersWithoutWriteBack) {
  std::vector<AbdReadMsg> reads;
  get_reads(3, 7, reads)
      // Both counted acks carry the max tag: a majority already holds it.
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{5, 60}, true, Value{0xB}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{5, 60}, true, Value{0xB}, Address::node(20));
      })
      .expect<GetResponse>(putget, [](const GetResponse& r) {
        return r.ok && r.id == 3 && r.found && r.value == Value{0xB};
      })
      .expect_silence(200);  // no AbdWriteMsg follows: nothing was imposed

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().gets_ok, 1u);
  EXPECT_EQ(abd().counters().gets_imposed, 0u);
}

TEST_F(AbdDslTest, GetImposesWhenAnOlderAckFollowsTheMax) {
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;
  get_reads(3, 7, reads)
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{5, 60}, true, Value{0xB}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{3, 50}, true, Value{0xA}, Address::node(20));
      });
  get_imposes(VersionTag{5, 60}, Value{0xB}, writes);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().gets_imposed, 1u);
}

TEST_F(AbdDslTest, DuplicatedMaxTagAckDoesNotMakeTheQuorumUnanimous) {
  // Two copies of replica 10's ack agree with each other, not with a
  // majority: only deduplicated acks may count toward unanimity.
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;
  get_reads(3, 7, reads)
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{5, 60}, true, Value{0xB}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[0], VersionTag{5, 60}, true, Value{0xB}, Address::node(10));
      })
      .trigger(net, [&] {
        return read_ack(reads[1], VersionTag{3, 50}, true, Value{0xA}, Address::node(20));
      });
  get_imposes(VersionTag{5, 60}, Value{0xB}, writes);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_F(AbdDslTest, RetriedGetCountsOnlyTheRetrysAcks) {
  std::vector<AbdReadMsg> reads;
  std::vector<AbdReadMsg> retry_reads;
  std::vector<AbdWriteMsg> writes;
  // Attempt 0 hears one replica only and hits its deadline.
  get_reads(3, 7, reads).trigger(net, [&] {
    return read_ack(reads[0], VersionTag{5, 60}, true, Value{0xB}, Address::node(10));
  });
  answer_lookup(1, false)
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { retry_reads.push_back(m); })
      .end_repeat()
      // A late copy of attempt 0's ack from replica 30 matches no round.
      .trigger(net, [&] {
        return read_ack(reads[2], VersionTag{5, 60}, true, Value{0xB}, Address::node(30));
      })
      // The retry's own quorum disagrees, whatever attempt 0 heard.
      .trigger(net, [&] {
        return read_ack(retry_reads[1], VersionTag{5, 60}, true, Value{0xB}, Address::node(20));
      })
      .trigger(net, [&] {
        return read_ack(retry_reads[2], VersionTag{3, 50}, true, Value{0xA}, Address::node(30));
      });
  get_imposes(VersionTag{5, 60}, Value{0xB}, writes);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().retries, 1u);
  EXPECT_EQ(abd().counters().gets_imposed, 1u);
}

TEST_F(AbdDslTest, DuplicatedAcksFromOneReplicaDoNotCompleteQuorum) {
  // Pre-fix, quorum progress was a raw counter (++acks): duplicated
  // deliveries of one replica's ack (retransmitting transports do that)
  // could "complete" a 2-of-3 quorum with a single replica's answer.
  LookupRequest lookup{0, 0, 0};
  std::vector<AbdReadMsg> reads;
  std::vector<AbdWriteMsg> writes;

  ctx->trigger(putget, make_event<PutRequest>(9, 21, Value{4}))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] { return lookup_answer(lookup, 1); })
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      // Three copies of ONE replica's read ack: not a quorum, so the write
      // phase must not start inside the silence window.
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .trigger(net, [&] { return read_ack(reads[0], VersionTag{}, false, {}, Address::node(10)); })
      .expect_silence(150)
      .trigger(net, [&] { return read_ack(reads[1], VersionTag{}, false, {}, Address::node(20)); })
      .repeat(3)
      .expect<AbdWriteMsg>(net, [&](const AbdWriteMsg& m) { writes.push_back(m); })
      .end_repeat()
      // Same for the write phase: duplicated write acks from one replica.
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .trigger(net, [&] { return write_ack(writes[0], Address::node(10)); })
      .expect_silence(150)
      .trigger(net, [&] { return write_ack(writes[1], Address::node(20)); })
      .expect<PutResponse>(putget, [](const PutResponse& r) { return r.ok && r.id == 9; });

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- coordinator lookup cache --------------------------------------------

TEST_F(AbdDslTest, RangedAnswerLetsTheNextOpSkipTheLookup) {
  ctx->trigger(putget, make_event<GetRequest>(1, 7));
  answer_lookup(3, true, 0, 1000);
  empty_get_completes(1, 3);
  // Another key of the same range: straight to the reads, under the cached
  // version — a LookupRequest here would not match the script.
  ctx->trigger(putget, make_event<GetRequest>(2, 500));
  empty_get_completes(2, 3);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().lookups_sent, 1u);
  EXPECT_EQ(abd().counters().lookups_cached, 1u);
}

TEST_F(AbdDslTest, NackedCachedViewIsLookedUpAgainAndReplaced) {
  std::vector<AbdReadMsg> reads;
  LookupRequest retry{0, 0, 0};
  LookupRequest other{0, 0, 0};
  auto answer_v2 = [this](const LookupRequest& r) {
    return make_event<LookupResponse>(r.id, r.key, group, 2, true, 0, 1000);
  };
  ctx->trigger(putget, make_event<GetRequest>(1, 7));
  answer_lookup(1, true, 0, 1000);
  empty_get_completes(1, 1);
  // The range moved to v2 since: replicas nack the cached v1, which makes a
  // quorum infeasible, and the fast retry resolves the group afresh.
  ctx->trigger(putget, make_event<GetRequest>(2, 7))
      .repeat(3)
      .expect<AbdReadMsg>(net, [&](const AbdReadMsg& m) { reads.push_back(m); })
      .end_repeat()
      .exec([&] { EXPECT_EQ(reads.at(0).view, 1u) << "first attempt runs on the cached view"; })
      .trigger(net, [&] {
        return make_event<AbdNackMsg>(Address::node(10), self.addr, reads.at(0).op, 7, 2);
      })
      .trigger(net, [&] {
        return make_event<AbdNackMsg>(Address::node(20), self.addr, reads.at(1).op, 7, 2);
      })
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { retry = r; })
      // The retry dropped the entry for every op on the range, not just its own.
      .trigger(putget, make_event<GetRequest>(3, 9))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { other = r; })
      .trigger(router, [&] { return answer_v2(retry); });
  empty_get_completes(2, 2);
  ctx->trigger(router, [&] { return answer_v2(other); });
  empty_get_completes(3, 2);
  // The fresh answer replaced the entry: the next op reuses v2.
  ctx->trigger(putget, make_event<GetRequest>(4, 11));
  empty_get_completes(4, 2);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().fast_retries, 1u);
  EXPECT_EQ(abd().counters().lookups_sent, 3u);
  EXPECT_EQ(abd().counters().lookups_cached, 2u);
}

TEST_F(AbdDslTest, AnswersWithoutRangeOrVersionAreNotCached) {
  ctx->trigger(putget, make_event<GetRequest>(1, 7));
  answer_lookup(1, false);
  empty_get_completes(1, 1);
  // No range: the next op on the key looks it up again. Its first answer is
  // ranged but unversioned, which the coordinator neither runs on nor keeps.
  LookupRequest lookup{0, 0, 0};
  ctx->trigger(putget, make_event<GetRequest>(2, 7))
      .expect<LookupRequest>(router, [&](const LookupRequest& r) { lookup = r; })
      .trigger(router, [&] {
        return make_event<LookupResponse>(lookup.id, lookup.key, group, 0, true, 0, 1000);
      })
      .trigger(router, [&] { return make_event<LookupResponse>(lookup.id, lookup.key, group, 1); });
  empty_get_completes(2, 1);
  ctx->trigger(putget, make_event<GetRequest>(3, 7)).expect<LookupRequest>(router);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().lookups_cached, 0u);
}

TEST_F(AbdDslTest, CachedAnswerOlderThanTheOpTimeoutIsNotUsed) {
  ctx->trigger(putget, make_event<GetRequest>(1, 7));
  answer_lookup(1, true, 0, 1000);
  empty_get_completes(1, 1);
  ctx->expect_silence(1100);  // op_timeout_ms is 1000
  ctx->trigger(putget, make_event<GetRequest>(2, 7));
  answer_lookup(1, true, 0, 1000);
  empty_get_completes(2, 1);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(abd().counters().lookups_sent, 2u);
  EXPECT_EQ(abd().counters().lookups_cached, 0u);
}

TEST_F(AbdDslTest, StoredAnswerEvictsTheRangesItOverlaps) {
  ctx->trigger(putget, make_event<GetRequest>(1, 7));
  answer_lookup(1, true, 0, 1000);
  empty_get_completes(1, 1);
  // A key outside (0, 1000] misses; its answer (500, 3000] overlaps the
  // cached range, which must go — else two entries would claim key 700.
  ctx->trigger(putget, make_event<GetRequest>(2, 2000));
  answer_lookup(2, true, 500, 3000);
  empty_get_completes(2, 2);
  ctx->trigger(putget, make_event<GetRequest>(3, 7)).expect<LookupRequest>(router);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

struct AbdStaleViewBugDslTest : AbdDslTest {
  AbdStaleViewBugDslTest() : AbdDslTest(true) {}
};

TEST_F(AbdStaleViewBugDslTest, UnversionedAnswerRunsButIsNeverCached) {
  // The bug emulation runs quorum phases under version 0; such an answer
  // must still not outlive its op, even when it names a range.
  ctx->trigger(putget, make_event<GetRequest>(1, 7));
  answer_lookup(0, true, 0, 1000);
  empty_get_completes(1, 0);
  ctx->trigger(putget, make_event<GetRequest>(2, 7)).expect<LookupRequest>(router);

  const Result result = ctx->check();
  EXPECT_TRUE(result.ok) << result.message;
}

// ---- a coroutine protocol end-to-end under the DSL -----------------------
//
// The BootstrapClient handshake is a pure protocol.hpp coroutine (open the
// response stream, retransmit every keep-alive period, relay the answer).
// This drives it through the event-stream DSL: the retransmission loop, the
// relay of the first response, idempotence of a second handshake request,
// and the periodic keep-alive frame started by BootstrapDone — each a
// co_await suspension resumed by an injected event or the virtual clock.

TEST(BootstrapDsl, CoroutineHandshakeRetransmitsRelaysAndHeartbeats) {
  CatsParams params;
  params.keepalive_period_ms = 400;
  const NodeRef self{100, Address::node(1)};
  const Address server = Address::node(9);
  TestContext ctx(11, [&](TestProbe& p, sim::SimulatorCore&) {
    Component c = p.make<BootstrapClient>();
    c.control()->trigger(make_event<BootstrapClient::Init>(self, server, params));
    return c;
  });
  const PortHandle net = ctx.monitor_required<net::Network>();
  const PortHandle bootstrap = ctx.monitor_provided<Bootstrap>();
  ctx.attach_sim_timer();

  const std::vector<NodeRef> peers{NodeRef{10, Address::node(10)},
                                   NodeRef{20, Address::node(20)}};
  ctx.trigger(bootstrap, make_event<BootstrapRequest>(self))
      .expect<BootstrapRequestMsg>(net,
                                   [&](const BootstrapRequestMsg& m) {
                                     return m.destination() == server && m.self.key == self.key;
                                   })
      // The server stays silent for one period: the parked frame's timer
      // fires and the loop retransmits.
      .expect<BootstrapRequestMsg>(net)
      // A second BootstrapRequest while the handshake frame is in flight
      // must NOT spawn a second retransmission loop.
      .trigger(bootstrap, make_event<BootstrapRequest>(self))
      .trigger(net, [&] { return make_event<BootstrapResponseMsg>(server, self.addr, peers); })
      .expect<BootstrapResponse>(bootstrap,
                                 [&](const BootstrapResponse& r) { return r.peers.size() == 2; })
      // The frame finished: no stray retransmission (and no duplicate
      // response from the second trigger) inside two full periods.
      .expect_silence(2 * params.keepalive_period_ms)
      // BootstrapDone starts the keep-alive heartbeat coroutine: one beat
      // immediately, then one per period.
      .trigger(bootstrap, make_event<BootstrapDone>())
      .expect<KeepAliveMsg>(net, [&](const KeepAliveMsg& m) { return m.destination() == server; })
      .expect<KeepAliveMsg>(net)
      .expect<KeepAliveMsg>(net);
  const Result result = ctx.check();
  EXPECT_TRUE(result.ok) << result.message;
}

}  // namespace
}  // namespace kompics::cats::test
