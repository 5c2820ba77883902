// svc's name for the JSON layer of util/json.h: svc code, its tests and
// the benches write `svc::Json`.
#pragma once

#include "util/json.h"

namespace netd::svc {
using util::Json;
using util::JsonReader;
}  // namespace netd::svc
