// Compile-fail probe: KOMPICS_EVENT naming an unregistered base class must
// not compile (the registry chain would skip it). Built with
// KOMPICS_PROBE_CONTROL the base is registered and the file compiles
// (tests/CMakeLists.txt).

#include "kompics/kompics.hpp"

class UnregisteredBase : public kompics::Event {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(UnregisteredBase, kompics::Event);
#endif
};

class Leaf : public UnregisteredBase {
  KOMPICS_EVENT(Leaf, UnregisteredBase);
};

kompics::EventTypeId probe_event_base() { return Leaf::kompics_static_type_id(); }
