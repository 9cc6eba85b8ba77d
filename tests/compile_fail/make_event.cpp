// Compile-fail probe: make_event with an event type that never registered
// itself must not compile. Built with KOMPICS_PROBE_CONTROL the type is
// registered and the file compiles (tests/CMakeLists.txt).

#include "kompics/kompics.hpp"

class Unregistered : public kompics::Event {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(Unregistered, kompics::Event);
#endif
};

kompics::EventPtr probe_make_event() { return kompics::make_event<Unregistered>(); }
