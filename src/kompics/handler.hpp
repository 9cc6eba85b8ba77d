#pragma once

// Event handlers (paper §2.1): first-class procedures of a component. A
// handler accepts events of a particular registered type (and subtypes) and
// runs reactively when such an event arrives on a port it is subscribed to.
// Components attach handlers with subscribe<E>(port, fn) (component.hpp).
// Handlers of one component instance are mutually exclusive — the runtime
// never executes two handlers of the same component concurrently — so
// handlers may freely mutate component-local state.

#include <atomic>
#include <functional>
#include <memory>

#include "event.hpp"

namespace kompics {

class ComponentCore;
class PortCore;

/// Runtime representation of one subscription: binds an accepted event type
/// and an invoker to (subscriber component, port half). Created by
/// ComponentDefinition::subscribe and kept alive by the port's subscription
/// table. The accept check is an integer ancestor-walk on `event_type`.
struct Subscription {
  ComponentCore* subscriber = nullptr;
  PortCore* half = nullptr;
  EventTypeId event_type = kEventTypeInvalid;  ///< the subscribed event type
  std::function<void(const Event&)> invoke;
  // Cleared under the port's writer lock by unsubscribe but also read
  // lock-free by the executing worker (ComponentCore::run_item), hence
  // atomic.
  std::atomic<bool> active{true};

  /// True when an event reporting TypeId `eid` is an `event_type`.
  bool accepts(EventTypeId eid) const { return detail::is_ancestor(event_type, eid); }
};

using SubscriptionRef = std::shared_ptr<Subscription>;

}  // namespace kompics
