// Compile-fail probe: scheduling an unregistered Timeout subclass must not
// compile. Built with KOMPICS_PROBE_CONTROL the type is registered and the
// file compiles (tests/CMakeLists.txt).

#include "kompics/kompics.hpp"
#include "timing/timer_port.hpp"

struct Unregistered : kompics::timing::Timeout {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(Unregistered, kompics::timing::Timeout);
#endif
  using Timeout::Timeout;
};

kompics::EventPtr probe_schedule() { return kompics::timing::schedule<Unregistered>(10); }
