#pragma once

// Shared event hierarchy for the event-type-registry tests. Deliberately
// included from TWO translation units (event_registry_test.cpp and
// event_registry_tu2.cpp) to prove that lazy registration hands the same
// class the same TypeId no matter which TU touches it first.

#include "kompics/kompics.hpp"

namespace kompics::test::reg {

// Registered three-level chain: BaseEv -> MidEv -> LeafEv.
class BaseEv : public Event {
  KOMPICS_EVENT(BaseEv, Event);

 public:
  explicit BaseEv(int v = 0) : v(v) {}
  int v;
};

class MidEv : public BaseEv {
  KOMPICS_EVENT(MidEv, BaseEv);

 public:
  using BaseEv::BaseEv;
};

class LeafEv : public MidEv {
  KOMPICS_EVENT(LeafEv, MidEv);

 public:
  using MidEv::MidEv;
};

// Registered sibling branch off BaseEv.
class OtherEv : public BaseEv {
  KOMPICS_EVENT(OtherEv, BaseEv);

 public:
  using BaseEv::BaseEv;
};

// Registered type outside the BaseEv family: declared on no port of the
// registry tests, so triggering it is rejected.
class StrayEv : public Event {
  KOMPICS_EVENT(StrayEv, Event);
};

// UNREGISTERED classes. No typed entry point accepts them (make_event,
// subscribe, port-type declarations reject them at compile time), but an
// instance can still be built directly and published: it then reports its
// nearest registered ancestor's TypeId and must behave exactly like
// dynamic_cast against every registered target.
class PlainLeaf : public MidEv {
 public:
  using MidEv::MidEv;
};

class PlainBase : public Event {
 public:
  explicit PlainBase(int v = 0) : v(v) {}
  int v;
};

// TypeIds as observed by the OTHER translation unit.
EventTypeId tu2_base_id();
EventTypeId tu2_mid_id();
EventTypeId tu2_leaf_id();
EventTypeId tu2_other_id();
bool tu2_event_is_mid(const Event& e);

}  // namespace kompics::test::reg
