#pragma once

#include "core/query_service.h"

/// \file query_backend.h
/// The former name of the serving interface. QueryService is now the one
/// serving engine (query_service.h); this alias keeps code that still
/// spells `core::QueryBackend` compiling.

namespace ppq::core {

using QueryBackend = QueryService;

}  // namespace ppq::core
