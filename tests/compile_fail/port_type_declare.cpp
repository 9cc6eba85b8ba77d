// Compile-fail probe: declaring an unregistered event type on a port type
// must not compile. Built with KOMPICS_PROBE_CONTROL the type is registered
// and the file compiles (tests/CMakeLists.txt).

#include "kompics/kompics.hpp"

class Unregistered : public kompics::Event {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(Unregistered, kompics::Event);
#endif
};

class Svc : public kompics::PortType {
 public:
  Svc() { request<Unregistered>(); }
};

const kompics::PortType& probe_port_type() { return kompics::port_type<Svc>(); }
