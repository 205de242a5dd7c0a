// The black box: when something goes wrong — an invariant violation or a
// watchdog stall verdict — dump everything a post-mortem needs to one
// directory: the latest checkpoint, the journal tail, the observability
// trace and a plain-text meta file naming the trigger. Checkpoint +
// journal feed `qserv-replay`; the trace feeds chrome://tracing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qserv::recovery {

class BlackBox {
 public:
  // `dump_dir` "" = current directory. Directories are created on demand.
  explicit BlackBox(std::string dump_dir) : dir_(std::move(dump_dir)) {}

  // Writes `<dir>/qserv-blackbox-<label>-<n>/{checkpoint.qckpt,
  // journal.qjrnl, trace.json, meta.txt}`; empty buffers are skipped.
  // Returns the dump directory path, or "" on I/O failure.
  std::string dump(const std::string& label, const std::string& meta,
                   const std::vector<uint8_t>& checkpoint,
                   const std::vector<uint8_t>& journal,
                   const std::string& trace_json);

  uint64_t dumps() const { return dumps_; }
  const std::string& last_path() const { return last_path_; }

 private:
  std::string dir_;
  uint64_t dumps_ = 0;
  std::string last_path_;
};

}  // namespace qserv::recovery
