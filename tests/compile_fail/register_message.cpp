// Compile-fail probe: registering a wire codec for an unregistered message
// type must not compile. Built with KOMPICS_PROBE_CONTROL the type is
// registered and the file compiles (tests/CMakeLists.txt).

#include "net/serialization.hpp"

class Unregistered : public kompics::net::Message {
#ifdef KOMPICS_PROBE_CONTROL
  KOMPICS_EVENT(Unregistered, kompics::net::Message);
#endif
 public:
  using Message::Message;
};

void probe_register_message() {
  kompics::net::SerializationRegistry::instance().register_message<Unregistered>(
      9999, [](const kompics::net::Message&, kompics::net::BufferWriter&) {},
      [](kompics::net::BufferReader&, kompics::net::Address src, kompics::net::Address dst) {
        return std::make_shared<const Unregistered>(src, dst);
      });
}
