#pragma once

#include "core/query_service.h"
#include "repo/live_repository.h"

/// \file live_query_service.h
/// The former name of the live serving front end. A LiveRepository is a
/// core::ShardViewSource, so core::QueryService serves it directly (sealed
/// summary plus raw tail per shard); this alias keeps code that still
/// spells `repo::LiveQueryService` compiling.

namespace ppq::repo {

using LiveQueryService = core::QueryService;

}  // namespace ppq::repo
