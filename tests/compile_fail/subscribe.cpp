// Compile-fail probe: subscribing a handler for an unregistered event type
// must not compile. Built with KOMPICS_PROBE_CONTROL the type is registered
// and the file compiles (tests/CMakeLists.txt).

#include "kompics/kompics.hpp"

class Unregistered : public kompics::Event {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(Unregistered, kompics::Event);
#endif
};

class Subscriber : public kompics::ComponentDefinition {
 public:
  Subscriber() { subscribe<Unregistered>(control(), [](const Unregistered&) {}); }
};

kompics::ComponentDefinition* probe_subscribe() { return new Subscriber(); }
