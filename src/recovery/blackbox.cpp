#include "src/recovery/blackbox.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace qserv::recovery {
namespace {

bool write_file(const std::filesystem::path& path, const void* data,
                size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  return static_cast<bool>(out);
}

}  // namespace

std::string BlackBox::dump(const std::string& label, const std::string& meta,
                           const std::vector<uint8_t>& checkpoint,
                           const std::vector<uint8_t>& journal,
                           const std::string& trace_json) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path base = dir_.empty() ? fs::path(".") : fs::path(dir_);
  fs::create_directories(base, ec);
  char name[128];
  std::snprintf(name, sizeof name, "qserv-blackbox-%s-%llu", label.c_str(),
                static_cast<unsigned long long>(dumps_));
  const fs::path dir = base / name;
  fs::create_directories(dir, ec);
  if (ec) return "";

  bool ok = write_file(dir / "meta.txt", meta.data(), meta.size());
  if (!checkpoint.empty())
    ok &= write_file(dir / "checkpoint.qckpt", checkpoint.data(),
                     checkpoint.size());
  if (!journal.empty())
    ok &= write_file(dir / "journal.qjrnl", journal.data(), journal.size());
  if (!trace_json.empty())
    ok &= write_file(dir / "trace.json", trace_json.data(), trace_json.size());
  if (!ok) return "";
  ++dumps_;
  last_path_ = dir.string();
  return last_path_;
}

}  // namespace qserv::recovery
