#pragma once

#include <string>

#include "telemetry/json.hpp"

namespace clove::telemetry {

/// Write `doc` to `<dir>/<name>.json` (pretty-printed), creating the
/// directory if needed. Returns the written path, or "" on failure / when
/// `dir` is empty.
std::string write_json_artifact(const std::string& dir, const std::string& name,
                                const Json& doc);

/// Write an arbitrary text blob (JSONL traces, chrome traces, CSV) next to
/// the JSON artifacts. Same return convention.
std::string write_text_artifact(const std::string& dir, const std::string& name,
                                const std::string& text);

}  // namespace clove::telemetry
