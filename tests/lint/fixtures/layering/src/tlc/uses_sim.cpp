// Seeded layering violation: the protocol layer must not depend on the
// discrete-event simulator; timing is the caller's business. Lexed by the
// lint tests, never compiled.
#include "sim/scheduler.hpp"
#include "tlc/protocol.hpp"

namespace tlc::core {}
