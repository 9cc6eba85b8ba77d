// Compile-fail probe: event_is against an unregistered event type must not
// compile. Built with KOMPICS_PROBE_CONTROL the type is registered and the
// file compiles (tests/CMakeLists.txt).

#include "kompics/kompics.hpp"

class Unregistered : public kompics::Event {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(Unregistered, kompics::Event);
#endif
};

bool probe_event_is(const kompics::Event& e) { return kompics::event_is<Unregistered>(e); }
