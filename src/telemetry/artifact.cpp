#include "telemetry/artifact.hpp"

#include <filesystem>
#include <fstream>

namespace clove::telemetry {

std::string write_text_artifact(const std::string& dir, const std::string& name,
                                const std::string& text) {
  if (dir.empty()) return {};
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return {};
  const std::filesystem::path path = std::filesystem::path(dir) / name;
  std::ofstream out(path, std::ios::trunc);
  if (!out) return {};
  out << text;
  return out.good() ? path.string() : std::string();
}

std::string write_json_artifact(const std::string& dir, const std::string& name,
                                const Json& doc) {
  return write_text_artifact(dir, name + ".json", doc.dump(2) + "\n");
}

}  // namespace clove::telemetry
